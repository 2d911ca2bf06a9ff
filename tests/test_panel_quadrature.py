"""The panel quadrature engine against the scalar quad formulas it replaced.

The reference below restates, with scipy's adaptive ``quad`` at the former
tolerances, how potentials, overshoot laws and costs were integrated before
the engine moved to batched Gauss-Kronrod panels: one ``quad`` per density
value, per cost integral and per outer expectation.  Every comparison is to
1e-7 relative.  The guard tests check that the engine never calls ``quad``,
raises when its round budget or its panel cap runs out, keeps its error
estimates and refines a panel that waited behind a worse one.
"""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

import levydam.exits as exits
from levydam import (
    BrownianDrift,
    ConvergenceError,
    CostSpec,
    ExponentialJumps,
    FillPhase,
    GammaDrift,
    InverseGaussianDrift,
    PiecewisePoly,
    PolicyEvaluator,
    PolicyParams,
    ReleasePhase,
    ScaleFunctionSet,
    compound_poisson_exp,
    potential_reflected,
    potential_release,
    potential_up_killed,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
G = PiecewisePoly((0.0, 1.0, 2.0), ((0.2, 0.1), (0.3, -0.05)))
G_STAR = PiecewisePoly((0.5, 2.0, 4.0), ((0.1, 0.05), (0.175, -0.02)))
COSTS = CostSpec(K1=1.0, K2=0.5, R=0.3, g=G, g_star=G_STAR)
# charges and reward only: the reference prices maintenance with a quad per
# overshoot node, thousands of Laplace inversions on the inversion families
CHARGES = CostSpec(K1=1.0, K2=0.5, R=0.3, g=PiecewisePoly.zero(),
                   g_star=PiecewisePoly.zero())

# ---------------------------------------------------------------------------
# Reference: one scalar quad per integral, as before the panel engine
# ---------------------------------------------------------------------------

_QUAD = dict(epsabs=1e-11, epsrel=1e-9, limit=300)
_TAIL_EPS = 1e-15


def _quad_pts(f, lo, hi, pts=()):
    interior = sorted(p for p in pts if lo < p < hi)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        if interior:
            return quad(f, lo, hi, points=interior, **_QUAD)[0]
        return quad(f, lo, hi, **_QUAD)[0]


def ref_up_density(s, lam):
    w, eta = s.w, s.eta_alpha
    return lambda x, y: (0.0 if y > lam else
                         w(lam - x) * math.exp(-eta * (lam - y)) - w(y - x))


def ref_reflected_density(s, lam):
    w, wp = s.w, s.wp
    wp_lam = wp(lam)
    return lambda x, y: (0.0 if y < 0 or y >= lam else
                         w(lam - x) * wp(y) / wp_lam - w(y - x))


def ref_release_density(s_M, tau, V):
    w, z, eta = s_M.w, s_M.z, s_M.eta_alpha
    if math.isinf(V):
        return lambda x, y: (0.0 if y <= tau else
                             math.exp(-eta * (x - tau)) * w(y - tau) - w(y - x))
    z_denom = z(V - tau)
    return lambda x, y: (0.0 if y <= tau or y > V else
                         z(V - x) * w(y - tau) / z_denom - w(y - x))


class RefLaw:
    """The former overshoot law: a quad per density value, kept per point."""

    def __init__(self, s, x, lam, reflected):
        self.lam = lam
        model = s.model
        nu = model.measure.density
        cut = model.measure.tail_quantile(_TAIL_EPS)
        self.z_cut = lam + cut
        self._kept = {}
        if reflected:
            w, wp = s.w, s.wp
            wp_lam, w0, w_lam_x = wp(lam), s.w_at_zero(), w(lam - x)

            def kernel(z):
                y_lo = max(z - cut, 0.0)
                first = w0 * float(nu(z)) if w0 > 0 else 0.0
                if y_lo < lam:
                    first += _quad_pts(lambda y: wp(y) * float(nu(z - y)),
                                       y_lo, lam)
                second = 0.0
                if max(z - cut, x) < lam:
                    second = _quad_pts(lambda y: w(y - x) * float(nu(z - y)),
                                       max(z - cut, x), lam)
                return (w_lam_x * first - wp_lam * second) / wp_lam

            self._fn = kernel
            transform = FillPhase(s, lam, True).exit_lt(x)
        else:
            dens = ref_up_density(s, lam)

            def plain(z):
                y_lo = z - cut
                if y_lo >= lam:
                    return 0.0
                return _quad_pts(lambda y: dens(x, y) * float(nu(z - y)),
                                 y_lo, lam, pts=(x, 0.0))

            self._fn = plain
            transform = (FillPhase(s, lam, False).exit_lt(x)
                         if model.sigma2 > 0 else 0.0)
        self.atom = 0.0
        if model.sigma2 > 0.0:
            self.atom = max(transform - self.integrate(lambda z: 1.0), 0.0)

    def density(self, z):
        if z <= self.lam:
            return 0.0
        if z not in self._kept:
            self._kept[z] = self._fn(z)
        return self._kept[z]

    def integrate(self, fn, lo=None, hi=None):
        lo = self.lam if lo is None else max(lo, self.lam)
        hi = self.z_cut if hi is None or math.isinf(hi) else min(hi, self.z_cut)
        if hi <= lo:
            return 0.0
        return _quad_pts(lambda z: fn(z) * self.density(z), lo, hi)

    def expectation(self, fn, V):
        val = self.atom * fn(self.lam)
        if math.isinf(V):
            return val + self.integrate(fn)
        val += self.integrate(fn, self.lam, V)
        if self.z_cut > V:
            val += self.integrate(lambda z: 1.0, lo=V) * fn(V)
        return val


def ref_fill_cost(s, x, lam, g, reflected):
    if reflected:
        dens = ref_reflected_density(s, lam)
        val = _quad_pts(lambda y: g(y) * dens(x, y), 0.0, lam,
                        pts=g.breakpoints + (x,))
        if s.w_at_zero() > 0:
            val += g(0.0) * s.w_at_zero() * s.w(lam - x) / s.wp(lam)
        return val
    dens = ref_up_density(s, lam)
    lo, hi = g.support
    return _quad_pts(lambda y: g(y) * dens(x, y), lo, min(hi, lam),
                     pts=g.breakpoints + (x,))


def ref_release_cost(s_M, x, tau, V, g_star):
    if x == tau:
        return 0.0
    dens = ref_release_density(s_M, tau, V)
    lo, hi = g_star.support
    hi = hi if math.isinf(V) else min(hi, V)
    return _quad_pts(lambda y: g_star(y) * dens(x, y), max(lo, tau), hi,
                     pts=g_star.breakpoints + (x,))


def ref_cycle_cost(s, s_M, law, policy, costs, alpha, reflected):
    lam, tau, M, V = policy.lam, policy.tau, policy.M, policy.V
    x = tau
    q_fill = FillPhase(s, lam, reflected).exit_lt(x)
    q_cycle = law.expectation(
        lambda z: ReleasePhase(s_M, tau, V).exit_lt(min(z, V)), V)
    fill = ref_fill_cost(s, x, lam, costs.g, reflected)
    rel = law.expectation(
        lambda z: ref_release_cost(s_M, min(z, V), tau, V, costs.g_star), V)
    c = (M * (costs.K2 + costs.K1 * q_fill - (costs.R / alpha) * (q_fill - q_cycle))
         + fill + rel)
    return c, q_cycle


def ref_long_run_average(s0, s_M0, law, policy, costs, reflected):
    lam, tau, M, V = policy.lam, policy.tau, policy.M, policy.V
    mean_fill = FillPhase(s0, lam, reflected).exit_mean(tau)
    mean_rel = law.expectation(
        lambda z: ReleasePhase(s_M0, tau, V).exit_mean(min(z, V)), V)
    cost_fill = ref_fill_cost(s0, tau, lam, costs.g, reflected)
    cost_rel = law.expectation(
        lambda z: ref_release_cost(s_M0, min(z, V), tau, V, costs.g_star), V)
    numer = (M * (costs.K1 + costs.K2) + cost_fill + cost_rel
             + costs.R * M * mean_fill)
    return numer / (mean_fill + mean_rel) - costs.R * M


def ref_potential_mass(dens, x, lo, hi, atom=0.0):
    return _quad_pts(lambda y: dens(x, y), lo, hi, pts=(x,)) + atom


# ---------------------------------------------------------------------------
# Combinations
# ---------------------------------------------------------------------------

FAMILIES = {
    # convolution series
    "cp_exponential": lambda: compound_poisson_exp(2.0, 1.0, 1.0),
    # Laplace inversion, jumps of infinite activity, drifting up
    "gamma": lambda: GammaDrift(1.0, 3.0, 2.0),
    "inverse_gaussian": lambda: InverseGaussianDrift(1.0, 1.0, 0.8),
    # Laplace inversion, creeping and jumping
    "jump_diffusion": lambda: BrownianDrift(0.5, 1.0, 0.8, ExponentialJumps(0.5)),
}

# (family, reflected fill, capacity V, alpha); plain compound Poisson drifts
# down, so its long-run average does not exist and is left out
COMBOS = [
    ("cp_exponential", True, 4.0, 0.0),
    ("cp_exponential", True, 4.0, 0.5),
    ("cp_exponential", True, 4.0, 2.0),
    ("cp_exponential", True, math.inf, 0.0),
    ("cp_exponential", True, math.inf, 0.5),
    ("cp_exponential", False, 4.0, 0.5),
    ("cp_exponential", False, math.inf, 2.0),
    ("gamma", False, 4.0, 0.0),
    ("gamma", False, 4.0, 0.5),
    ("gamma", False, math.inf, 2.0),
    ("gamma", True, 4.0, 0.0),
    ("gamma", True, 4.0, 0.5),
    ("inverse_gaussian", False, 4.0, 0.0),
    ("inverse_gaussian", False, 4.0, 2.0),
    ("inverse_gaussian", True, math.inf, 0.5),
    ("jump_diffusion", False, 4.0, 0.5),
    ("jump_diffusion", True, 4.0, 0.0),
    ("jump_diffusion", True, math.inf, 0.5),
    ("jump_diffusion", False, math.inf, 2.0),
]


def _id(combo):
    fam, reflected, V, alpha = combo
    return f"{fam}-{'reflected' if reflected else 'plain'}-V{V:g}-a{alpha:g}"


def _close(got, want, what):
    assert got == pytest.approx(want, rel=1e-7, abs=1e-12), (what, got, want)


@pytest.mark.parametrize("combo", COMBOS, ids=_id)
def test_panel_engine_matches_quad_reference(combo):
    fam, reflected, V, alpha = combo
    model = FAMILIES[fam]()
    policy = PolicyParams(lam=2.0, tau=0.5, M=2.0, V=V)
    lam, tau = policy.lam, policy.tau
    costs = COSTS if model.is_bounded_variation and not math.isinf(
        model.measure.total) else CHARGES
    ev = PolicyEvaluator(model, policy, costs, reflected=reflected)
    s, s_M = ev.fill_set(alpha), ev.release_set(alpha)
    # fresh sets for the reference, so neither side sees the other's caches
    s_ref = ScaleFunctionSet(model, alpha)
    s_M_ref = ScaleFunctionSet(model.shifted(policy.M), alpha)

    law = ev.overshoot_law(alpha)
    ref = RefLaw(s_ref, tau, lam, reflected)
    for z in (lam + 0.01, lam + 0.3, lam + 1.0, lam + 2.5):
        _close(law.density(z), ref.density(z), f"density({z})")
    _close(law.total_mass(), ref.atom + ref.integrate(lambda z: 1.0), "law mass")
    if math.isfinite(V):
        _close(law.mass_above(V), ref.integrate(lambda z: 1.0, lo=V), "mass above V")

    if reflected:
        atom = s_ref.w_at_zero() * s_ref.w(lam - tau) / s_ref.wp(lam)
        _close(potential_reflected(s, lam).mass(tau),
               ref_potential_mass(ref_reflected_density(s_ref, lam), tau,
                                  0.0, lam, atom), "fill potential mass")
    else:
        _close(potential_up_killed(s, lam).integrate(tau, lambda y: 1.0,
                                                     lo=-1.0, hi=lam),
               ref_potential_mass(ref_up_density(s_ref, lam), tau, -1.0, lam),
               "fill potential mass on [-1, lam]")
    _close(FillPhase(s, lam, reflected).cost(tau, G),
           ref_fill_cost(s_ref, tau, lam, G, reflected), "fill_cost")
    x_rel = 3.0
    _close(ReleasePhase(s_M, tau, V).cost(x_rel, G_STAR),
           ref_release_cost(s_M_ref, x_rel, tau, V, G_STAR), "release_cost")
    if math.isfinite(V):
        _close(potential_release(s_M, tau, V).mass(x_rel),
               ref_potential_mass(ref_release_density(s_M_ref, tau, V), x_rel,
                                  tau, V), "release potential mass")

    if alpha > 0:
        c_ref, q_ref = ref_cycle_cost(s_ref, s_M_ref, ref, policy, costs,
                                      alpha, reflected)
        _close(ev.cycle_cost(alpha), c_ref, "cycle_cost")
        _close(ev.cycle_end_lt(alpha), q_ref, "cycle_end_lt")
        _close(ev.total_discounted(alpha), c_ref / (1.0 - q_ref),
               "total_discounted")
    elif reflected or s.eta_alpha > 0.0:
        _close(ev.long_run_average(),
               ref_long_run_average(s_ref, s_M_ref, ref, policy, costs,
                                    reflected), "long_run_average")
    assert 0.0 < ev.max_quad_error < math.inf


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------

def _cp_config():
    return json.loads((CONFIGS / "compound_poisson.json").read_text())


def test_engine_makes_no_quad_call_and_no_grid_rebuild(monkeypatch):
    from levydam.cli import build_costs, build_model, build_policy, cmd_evaluate

    def no_quad(*args, **kwargs):
        raise AssertionError("scalar quad called")

    monkeypatch.setattr(exits, "quad", no_quad)
    cfg = _cp_config()
    ev = PolicyEvaluator(build_model(cfg["model"]), build_policy(cfg["policy"]),
                         build_costs(cfg["costs"]), reflected=cfg["reflected"])
    assert math.isfinite(ev.long_run_average())
    assert math.isfinite(ev.total_discounted(0.5))
    assert 0.0 < ev.max_quad_error < 1e-8
    report = cmd_evaluate(cfg)
    summary = report["quantities"]["overshoot"]
    assert summary["jump_crossing_mass"] == pytest.approx(1.0, abs=1e-6)
    assert summary["mean_overshoot_given_jump"] > 0.0


def test_tiny_round_budget_raises(monkeypatch):
    monkeypatch.setattr(exits, "_MAX_ROUNDS", 1)
    s = ScaleFunctionSet(compound_poisson_exp(2.0, 1.0, 1.0), 0.5)
    law = FillPhase(s, 2.0, True).overshoot_law(0.5)
    with pytest.raises(ConvergenceError):
        law.density_mass()


def test_panel_cap_raises_before_the_panels_grow():
    # no panel width resolves this integrand, so without the cap nearly
    # every panel is bisected each round until the round budget runs out
    def noise(row, y):
        return np.sin(1e15 * y)

    with pytest.raises(ConvergenceError, match="panels"):
        exits._integrate(noise, np.zeros(2), np.ones(2), np.arange(2), 2)


def test_law_keeps_its_error_estimate():
    s = ScaleFunctionSet(compound_poisson_exp(2.0, 1.0, 1.0), 0.5)
    law = FillPhase(s, 2.0, True).overshoot_law(0.5)
    assert law.max_quad_error == 0.0
    law.density_mass()
    assert 0.0 < law.max_quad_error < 1e-8


@pytest.mark.parametrize("reflected", [True, False])
def test_potentials_keep_their_error_estimates(reflected):
    # continuous input has no overshoot density: only the potential
    # integrals of the two phases' costs carry error estimates
    policy = PolicyParams(lam=2.0, tau=0.5, M=2.0, V=4.0)
    ev = PolicyEvaluator(BrownianDrift(1.0, 1.0), policy, COSTS,
                         reflected=reflected)
    assert ev.max_quad_error == 0.0
    ev.cycle_cost(0.5)
    fill, release = ev._fill(0.5), ev._release(0.5)
    assert not fill.overshoot_law(policy.tau).max_quad_error
    assert 0.0 < fill.max_quad_error < 1e-8
    assert 0.0 < release.max_quad_error < 1e-8
    assert ev.max_quad_error == max(fill.max_quad_error,
                                    release.max_quad_error)


def test_density_lookups_return_kept_values():
    s = ScaleFunctionSet(compound_poisson_exp(2.0, 1.0, 1.0), 0.5)
    law = exits.FillPhase(s, 2.0, True).overshoot_law(0.5)
    law.density_mass()
    kept = law.density._kept
    zs = np.array(sorted(kept)[:5])
    assert np.array_equal(law.density(zs), [kept[z] for z in zs])
    assert law.density(float(zs[0])) == kept[zs[0]]


def test_waiting_panels_are_refined_not_settled():
    # a sharp peak on [0, 1] holds the row's worst estimate for many rounds;
    # the oscillation on [1, 2] misses its share by less than a tenth of
    # that, so it waits, and is bisected once the peak is resolved
    c = 1e-4

    def f(row, y):
        return np.where(y < 1.0, 1.0 / (c + (y - 0.5) ** 2), np.cos(20.0 * y))

    want = (2.0 / math.sqrt(c) * math.atan(0.5 / math.sqrt(c))
            + (math.sin(40.0) - math.sin(20.0)) / 20.0)
    got, err = exits._integrate(f, np.array([0.0, 1.0]), np.array([1.0, 2.0]),
                                np.array([0, 0]), 1)
    tol = max(exits._EPSABS, exits._EPSREL * abs(want))
    assert err[0] <= tol
    assert abs(got[0] - want) <= tol


def test_arrays_of_start_states_equal_scalar_calls():
    model = compound_poisson_exp(2.0, 1.0, 1.0)
    s = ScaleFunctionSet(model, 0.5)
    s_M = ScaleFunctionSet(model.shifted(2.0), 0.5)
    xs = np.array([[0.5, 1.0], [2.5, 4.0]])
    release = ReleasePhase(s_M, 0.5, 4.0)
    assert np.array_equal(
        release.cost(xs, G_STAR),
        [[release.cost(float(x), G_STAR) for x in r] for r in xs])
    assert np.array_equal(
        ReleasePhase(s_M, 0.5, 4.0).exit_lt(xs),
        [[ReleasePhase(s_M, 0.5, 4.0).exit_lt(float(x)) for x in r]
         for r in xs])
    fills = np.array([0.0, 0.5, 1.9, 2.0])
    fill = FillPhase(s, 2.0, True)
    assert np.array_equal(fill.cost(fills, G),
                          [fill.cost(float(x), G) for x in fills])
