import math

import numpy as np
import pytest

from levydam import (
    LAPLACE_INVERSION,
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
    brownian,
    compound_poisson_exp,
    potential_reflected,
    potential_release,
    potential_two_sided,
    potential_up_killed,
)
from levydam.simulate import PathConfig, path_rng


class TestPotentials:
    def test_two_sided_driftless_point_value(self):
        # with W(x) = 2x: u(0.5, 0.5) on [0, 1] is 1*1/2 - 0 = 0.5
        s = ScaleFunctionSet(brownian(0.0, 1.0), 0.0)
        pot = potential_two_sided(s, 0.0, 1.0)
        assert pot.density(0.5, 0.5) == pytest.approx(0.5, rel=1e-12)

    def test_two_sided_support(self):
        s = ScaleFunctionSet(brownian(0.0, 1.0), 0.0)
        pot = potential_two_sided(s, 0.0, 1.0)
        assert pot.density(0.5, -0.2) == 0.0
        assert pot.density(0.5, 1.2) == 0.0

    def test_two_sided_rejects_bad_interval(self):
        s = ScaleFunctionSet(brownian(0.0, 1.0), 0.0)
        with pytest.raises(ValueError):
            potential_two_sided(s, 1.0, 1.0)

    def test_up_killed_is_two_sided_limit(self):
        s = ScaleFunctionSet(brownian(1.0, 2.0), 0.5)
        far = potential_two_sided(s, -40.0, 1.0)
        up = potential_up_killed(s, 1.0)
        for x in (-0.5, 0.0, 0.4):
            for y in (-1.0, 0.0, 0.7):
                assert far.density(x, y) == pytest.approx(up.density(x, y),
                                                          abs=1e-8)

    def test_release_support_and_capacity_edge(self):
        s_M = ScaleFunctionSet(
            compound_poisson_exp(2.0, 1.0, 1.0).shifted(2.0), 0.4)
        pot = potential_release(s_M, 0.5, 4.0)
        assert pot.density(1.0, 0.3) == 0.0
        # at x = V the capacity ratio is Z(0) = 1
        w, z = s_M.w, s_M.z
        y = 2.0
        expect = w(y - 0.5) / z(3.5) - w(y - 4.0)
        assert pot.density(4.0, y) == pytest.approx(expect, rel=1e-10)

    def test_reflected_atom_presence(self):
        s_cp = ScaleFunctionSet(compound_poisson_exp(2.0, 1.0, 1.0), 0.4)
        pot = potential_reflected(s_cp, 2.0)
        # atom weight (1/zeta) W(lam - x) / W'(lam)
        expect = 0.5 * s_cp.w(1.5) / s_cp.wp(2.0)
        assert pot.atom_at_zero(0.5) == pytest.approx(expect, rel=1e-10)
        s_bm = ScaleFunctionSet(brownian(1.0, 2.0), 0.4)
        assert potential_reflected(s_bm, 2.0).atom_at_zero is None

    def test_density_nonnegative_on_grid(self):
        s = ScaleFunctionSet(compound_poisson_exp(2.0, 1.0, 1.0), 0.4)
        pot = potential_reflected(s, 2.0)
        for x in (0.0, 0.5, 1.5):
            for y in np.linspace(0.0, 1.99, 21):
                assert pot.density(x, y) >= -1e-9

    @pytest.mark.parametrize("alpha", [0.3, 1.0])
    def test_mass_transform_identity_all_kinds(self, alpha):
        """alpha * total potential mass + exit transform = 1."""
        bm = brownian(1.0, 2.0)
        cp = compound_poisson_exp(2.0, 1.0, 1.0)
        s_bm = ScaleFunctionSet(bm, alpha)
        s_cp = ScaleFunctionSet(cp, alpha)

        # two-sided: transform assembled from the one-sided identities,
        # independent of the potential quadrature
        a, lam = -1.0, 1.5
        pot = potential_two_sided(s_bm, a, lam)
        for x in np.linspace(-0.6, 1.2, 5):
            up = (s_bm.z(lam - x)
                  - s_bm.z(lam - a) * s_bm.w(lam - x) / s_bm.w(lam - a))
            down = s_bm.w(lam - x) / s_bm.w(lam - a)
            assert alpha * pot.mass(x) + up + down == pytest.approx(1.0, abs=1e-6)

        pot = potential_up_killed(s_bm, lam)
        for x in np.linspace(-0.5, 1.3, 5):
            total = (alpha * pot.mass(x)
                     + FillPhase(s_bm, lam, False).exit_lt(x))
            assert total == pytest.approx(1.0, abs=1e-6)

        for s in (s_bm, s_cp):
            pot = potential_reflected(s, lam)
            for x in np.linspace(0.0, 1.3, 5):
                total = (alpha * pot.mass(x)
                         + FillPhase(s, lam, True).exit_lt(x))
                assert total == pytest.approx(1.0, abs=1e-6)

        tau, V = 0.5, 4.0
        for model in (bm, cp):
            s_M = ScaleFunctionSet(model.shifted(2.0), alpha)
            pot = potential_release(s_M, tau, V)
            for x in np.linspace(0.6, 4.0, 5):
                total = (alpha * pot.mass(x)
                         + ReleasePhase(s_M, tau, V).exit_lt(x))
                assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("method", [None, LAPLACE_INVERSION])
    def test_infinite_capacity_mass_raises(self, method):
        # the two terms of the release density both grow like e^{eta y} and
        # cancel: by alpha * mass + transform = 1 the mass here is 0.1532,
        # where inversion gave 1.2e12
        model = compound_poisson_exp(2.0, 1.0, 1.0).shifted(2.0)
        pot = potential_release(ScaleFunctionSet(model, 0.5, method), 0.5,
                                math.inf)
        with pytest.raises(ConvergenceError, match="cancel"):
            pot.mass(1.0)

    def test_two_sided_mass_against_occupation_mc(self):
        # driftless Brownian on [0, 1]: expected occupation of [0.4, 0.6]
        # from x = 0.5 against the integrated potential density
        s = ScaleFunctionSet(brownian(0.0, 1.0), 0.0)
        pot = potential_two_sided(s, 0.0, 1.0)
        analytic = pot.integrate(0.5, lambda y: 1.0, lo=0.4, hi=0.6)
        rng = path_rng(99, 0)
        n, dt = 4000, 1e-4
        occ = np.zeros(n)
        for i in range(n):
            x, total = 0.5, 0.0
            while 0.0 < x < 1.0:
                if 0.4 <= x <= 0.6:
                    total += dt
                x += rng.normal(0.0, math.sqrt(dt))
            occ[i] = total
        se = occ.std(ddof=1) / math.sqrt(n)
        assert abs(occ.mean() - analytic) < 3.0 * se + 2e-3


def reference_terms(kind, s, *ends):
    """The terms (t1, t2) of each potential as four separate closures, one
    per potential, in the arithmetic ``PotentialDensity.terms`` must keep
    bit for bit."""
    w, wp, z, eta = s.w, s.wp, s.z, s.eta_alpha
    if kind == "two_sided":
        a, lam = ends
        denom = w(lam - a)

        def terms(x, y):
            yc = np.clip(y, a, lam)
            out = (y < a) | (y > lam)
            return (np.where(out, 0.0, w(lam - x) * w(yc - a) / denom),
                    np.where(out, 0.0, w(yc - x)))
    elif kind == "up_killed":
        (lam,) = ends

        def terms(x, y):
            yc = np.minimum(y, lam)
            out = y > lam
            return (np.where(out, 0.0, w(lam - x) * np.exp(-eta * (lam - yc))),
                    np.where(out, 0.0, w(yc - x)))
    elif kind == "reflected":
        (lam,) = ends
        wp_lam = wp(lam)

        def terms(x, y):
            yc = np.clip(y, 0.0, lam)
            out = (y < 0) | (y >= lam)
            return (np.where(out, 0.0, w(lam - x) * wp(yc) / wp_lam),
                    np.where(out, 0.0, w(yc - x)))
    elif math.isinf(ends[1]):
        tau = ends[0]

        def terms(x, y):
            yc = np.maximum(y, tau)
            out = y <= tau
            return (np.where(out, 0.0, np.exp(-eta * (x - tau)) * w(yc - tau)),
                    np.where(out, 0.0, w(yc - x)))
    else:
        tau, V = ends
        z_denom = z(V - tau)

        def terms(x, y):
            yc = np.clip(y, tau, V)
            out = (y <= tau) | (y > V)
            return (np.where(out, 0.0, z(V - x) * w(yc - tau) / z_denom),
                    np.where(out, 0.0, w(yc - x)))
    return terms


class TestPotentialTerms:
    """``PotentialDensity.terms``, one form for every potential, equals the
    four hand-written closures it replaced byte for byte: every committed
    report depends on their arithmetic."""

    MODELS = {
        "brownian": brownian(1.0, 2.0),
        "compound_poisson": compound_poisson_exp(2.0, 1.0, 1.0),
        "gamma": GammaDrift(1.0, 3.0, 2.0),
        "inverse_gaussian": InverseGaussianDrift(1.0, 1.0, 2.0),
    }

    @staticmethod
    def around(*ends):
        """Points on both sides of every finite end, and at it."""
        pts = [e + d for e in ends if math.isfinite(e)
               for d in (-0.7, -1e-9, 0.0, 1e-9, 0.7)]
        return np.array(sorted(set(pts)))

    @pytest.mark.parametrize("model", list(MODELS))
    def test_terms_equal_the_closures_they_replaced(self, model):
        m = self.MODELS[model]
        s = ScaleFunctionSet(m, 0.5)
        s_M = ScaleFunctionSet(m.shifted(2.0), 0.5)
        cases = [
            ("two_sided", potential_two_sided(s, 0.5, 2.0), s, (0.5, 2.0)),
            ("up_killed", potential_up_killed(s, 2.0), s, (2.0,)),
            ("reflected", potential_reflected(s, 2.0), s, (2.0,)),
            ("release", potential_release(s_M, 0.5, 4.0), s_M, (0.5, 4.0)),
            ("release", potential_release(s_M, 0.5, math.inf), s_M,
             (0.5, math.inf)),
        ]
        for kind, pot, scale_set, ends in cases:
            ref = reference_terms(kind, scale_set, *ends)
            pts = self.around(0.0, *ends)
            if kind == "reflected":
                starts = pts[(pts >= 0.0) & (pts <= 2.0)]
            elif kind == "release":
                starts = pts[pts >= 0.5]
            else:
                starts = pts
            x, y = np.meshgrid(starts, pts, indexing="ij")
            calls = [(x, y)] + [(float(x0), y[0]) for x0 in starts]
            for xa, ya in calls:
                for got, want in zip(pot.terms(xa, ya), ref(xa, ya)):
                    got, want = np.asarray(got), np.asarray(want)
                    assert got.shape == want.shape, (kind, model)
                    assert got.tobytes() == want.tobytes(), (kind, model, xa)


class TestExitTransforms:
    def test_wiener_transform_unit_variance_form(self):
        # sigma2 = 1: exp((delta - mu)(x - lam))
        s = ScaleFunctionSet(brownian(1.0, 1.0), 0.5)
        assert FillPhase(s, 1.0, False).exit_lt(0.0) == pytest.approx(
            math.exp(1.0 - math.sqrt(2.0)), rel=1e-12)

    def test_wiener_transform_general_variance(self):
        mu, sig2, alpha, lam, x = 1.0, 2.0, 0.5, 1.5, 0.2
        delta = math.sqrt(2 * alpha * sig2 + mu * mu)
        s = ScaleFunctionSet(brownian(mu, sig2), alpha)
        assert FillPhase(s, lam, False).exit_lt(x) == pytest.approx(
            math.exp((delta - mu) * (x - lam) / sig2), rel=1e-12)

    def test_wiener_exit_mean(self):
        s0 = ScaleFunctionSet(brownian(1.0, 1.0), 0.0)
        assert FillPhase(s0, 2.0, False).exit_mean(0.0) == pytest.approx(
            2.0, rel=1e-10)

    def test_exit_mean_infinite_for_downward_drift(self):
        s0 = ScaleFunctionSet(compound_poisson_exp(2.0, 1.0, 1.0), 0.0)
        assert FillPhase(s0, 2.0, False).exit_mean(0.0) == math.inf

    def test_boundary_limit_unbounded_variation(self):
        s = ScaleFunctionSet(brownian(1.0, 2.0), 0.5)
        assert FillPhase(s, 1.0, False).exit_lt(1.0 - 1e-12) == pytest.approx(
            1.0, abs=1e-9)

    def test_reflected_transform_matches_display(self):
        mu, sig2, alpha, lam = 1.0, 2.0, 0.5, 1.0
        delta = math.sqrt(2 * alpha * sig2 + mu * mu)
        s = ScaleFunctionSet(brownian(mu, sig2), alpha)
        for x in (0.0, 0.3, 0.8):
            coth = 1.0 / math.tanh(lam * delta / sig2)
            display = math.exp(mu * (lam - x) / sig2) * (
                math.cosh((lam - x) * delta / sig2)
                - math.sinh((lam - x) * delta / sig2) / delta
                * (mu + 2 * alpha * sig2 / (mu + delta * coth)))
            assert FillPhase(s, lam, True).exit_lt(x) == pytest.approx(display,
                                                                 rel=1e-12)

    def test_reflected_alpha_zero_is_one(self):
        s = ScaleFunctionSet(compound_poisson_exp(2.0, 1.0, 1.0), 0.0)
        assert FillPhase(s, 2.0, True).exit_lt(0.5) == 1.0

    def test_reflected_mean_driftless(self):
        s0 = ScaleFunctionSet(brownian(0.0, 1.0), 0.0)
        fill = FillPhase(s0, 1.0, True)
        assert fill.exit_mean(0.0) == pytest.approx(1.0, rel=1e-10)
        assert fill.exit_mean(0.5) == pytest.approx(0.75, rel=1e-10)

    def test_reflected_mean_with_drift(self):
        mu, sig2, lam = 1.0, 2.0, 1.0
        s0 = ScaleFunctionSet(brownian(mu, sig2), 0.0)
        for x in (0.0, 0.25, 0.7):
            closed = ((lam - x) / mu + sig2 / (2 * mu * mu)
                      * (math.exp(-2 * mu * lam / sig2)
                         - math.exp(-2 * mu * x / sig2)))
            assert FillPhase(s0, lam, True).exit_mean(x) == pytest.approx(
                closed, rel=1e-10)

    def test_transforms_monotone_in_alpha_and_distance(self):
        model = compound_poisson_exp(2.0, 1.0, 1.0)
        sets = [ScaleFunctionSet(model, a) for a in (0.2, 0.5, 1.0)]
        vals = [FillPhase(s, 2.0, True).exit_lt(0.5) for s in sets]
        assert vals[0] > vals[1] > vals[2] > 0
        s = sets[1]
        fill = FillPhase(s, 2.0, True)
        near, far = fill.exit_lt(1.5), fill.exit_lt(0.2)
        assert near > far

    def test_transforms_within_unit_interval(self):
        for model in (brownian(1.0, 2.0), compound_poisson_exp(2.0, 1.0, 1.0)):
            s = ScaleFunctionSet(model, 0.6)
            for x in (0.0, 0.5, 1.4):
                assert 0.0 < FillPhase(s, 1.5, True).exit_lt(x) <= 1.0
                assert 0.0 < FillPhase(s, 1.5, False).exit_lt(x) <= 1.0


class TestReleasePhase:
    def test_start_at_bottom(self):
        s_M = ScaleFunctionSet(brownian(1.0, 2.0).shifted(2.0), 0.5)
        assert ReleasePhase(s_M, 0.5, 4.0).exit_lt(0.5) == pytest.approx(1.0)

    def test_alpha_zero(self):
        s_M0 = ScaleFunctionSet(brownian(1.0, 2.0).shifted(2.0), 0.0)
        assert ReleasePhase(s_M0, 0.5, 4.0).exit_lt(2.0) == 1.0

    def test_mean_at_bottom_is_zero(self):
        s_M0 = ScaleFunctionSet(brownian(1.0, 2.0).shifted(2.0), 0.0)
        assert ReleasePhase(s_M0, 0.5, 4.0).exit_mean(0.5) == pytest.approx(
            0.0, abs=1e-12)

    def test_infinite_capacity_busy_period(self):
        model = compound_poisson_exp(2.0, 1.0, 1.0)
        s_M0 = ScaleFunctionSet(model.shifted(2.0), 0.0)
        closed = (1.0 - 0.0) / (2.0 - model.mean_input())
        busy = ReleasePhase(s_M0, 0.0, math.inf).exit_mean(1.0)
        assert busy == pytest.approx(closed, rel=1e-12)
        # and the finite-capacity formula converges to it
        for V in (20.0, 40.0):
            val = ReleasePhase(s_M0, 0.0, V).exit_mean(1.0)
            assert val == pytest.approx(closed, rel=1e-3)

    def test_infinite_capacity_slow_release_diverges(self):
        model = compound_poisson_exp(2.0, 1.0, 4.0)  # mean inflow +2
        s_M0 = ScaleFunctionSet(model.shifted(1.0), 0.0)
        assert ReleasePhase(s_M0, 0.0, math.inf).exit_mean(1.0) == math.inf

    def test_transform_slope_matches_mean(self):
        model = compound_poisson_exp(2.0, 1.0, 1.0)
        s_small = ScaleFunctionSet(model.shifted(2.0), 1e-6)
        s_M0 = ScaleFunctionSet(model.shifted(2.0), 0.0)
        lt = ReleasePhase(s_small, 0.5, 4.0).exit_lt(2.5)
        mean = ReleasePhase(s_M0, 0.5, 4.0).exit_mean(2.5)
        assert (1.0 - lt) / 1e-6 == pytest.approx(mean, rel=1e-4)

    def test_start_above_capacity_starts_at_capacity(self):
        s_M = ScaleFunctionSet(brownian(1.0, 2.0).shifted(2.0), 0.5)
        release = ReleasePhase(s_M, 0.5, 4.0)
        assert release.exit_lt(5.0) == release.exit_lt(4.0)
        assert np.array_equal(release.exit_lt(np.array([4.0, 7.5])),
                              [release.exit_lt(4.0)] * 2)

    def test_argument_validation(self):
        s_M = ScaleFunctionSet(brownian(1.0, 2.0).shifted(2.0), 0.5)
        with pytest.raises(ValueError):
            ReleasePhase(s_M, 0.5, 4.0).exit_lt(0.4)  # below tau
        with pytest.raises(ValueError):
            ReleasePhase(s_M, 0.5, 4.0).exit_mean(1.0)  # alpha != 0


class TestOvershootLaws:
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("reflected", [False, True],
                             ids=["plain", "reflected"])
    @pytest.mark.parametrize("model, rate", [
        (compound_poisson_exp(2.0, 1.0, 1.0), 1.0),
        (BrownianDrift(0.5, 1.0, 0.8, ExponentialJumps(0.5)), 2.0),
    ], ids=["compound_poisson", "jump_diffusion"])
    def test_memorylessness_of_exponential_jumps(self, model, rate, reflected,
                                                 alpha):
        # with exponential jumps of rate c the jump crossing forgets where
        # it started: the density part of the law, over its mass, is
        # c e^{-c (z - lam)} whatever the start, the fill and the discount
        law = FillPhase(ScaleFunctionSet(model, alpha), 2.0,
                        reflected).overshoot_law(0.5)
        over = np.array([1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0])
        shape = law.density(2.0 + over) / law.density_mass()
        want = rate * np.exp(-rate * over)
        assert np.max(np.abs(shape / want - 1.0)) < 1e-12

    def test_total_mass_matches_exit_transform_plain(self):
        s = ScaleFunctionSet(compound_poisson_exp(2.0, 1.0, 1.0), 0.3)
        fill = FillPhase(s, 2.0, False)
        law = fill.overshoot_law(0.5)
        assert law.total_mass() == pytest.approx(fill.exit_lt(0.5), abs=1e-6)
        assert law.atom_at_lambda == 0.0  # no creeping without a diffusion part

    def test_total_mass_matches_exit_transform_reflected(self):
        s = ScaleFunctionSet(compound_poisson_exp(2.0, 1.0, 1.0), 0.3)
        law = FillPhase(s, 2.0, True).overshoot_law(0.5)
        assert law.total_mass() == pytest.approx(
            FillPhase(s, 2.0, True).exit_lt(0.5), abs=1e-6)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("model", [GammaDrift(1.0, 1.0, 2.0),
                                       InverseGaussianDrift(1.0, 1.0, 2.0)],
                             ids=["gamma", "inverse_gaussian"])
    def test_reflected_mass_matches_exit_transform_infinite_activity(
            self, model, alpha):
        # W' near 0, which the reflected potential weighs, must be exact:
        # with a finite-difference W' the alpha = 0 mass fell short of 1 by
        # 3.7e-6 (gamma) and 7.2e-4 (inverse Gaussian)
        fill = FillPhase(ScaleFunctionSet(model, alpha), 2.0, True)
        law = fill.overshoot_law(0.5)
        assert abs(law.total_mass() - fill.exit_lt(0.5)) <= 1e-9

    def test_pure_brownian_up_is_creeping_atom(self):
        s = ScaleFunctionSet(brownian(1.0, 2.0), 0.5)
        fill = FillPhase(s, 2.0, False)
        law = fill.overshoot_law(0.5)
        assert law.atom_at_lambda == fill.exit_lt(0.5)
        assert law.density_mass() == 0.0

    def test_pure_brownian_reflected_is_atom(self):
        s = ScaleFunctionSet(brownian(1.0, 2.0), 0.5)
        law = FillPhase(s, 2.0, True).overshoot_law(0.5)
        assert law.atom_at_lambda == pytest.approx(
            FillPhase(s, 2.0, True).exit_lt(0.5), rel=1e-12)
        assert law.density_mass() == 0.0

    def test_jump_diffusion_creeping_atom(self):
        model = BrownianDrift(0.5, 1.0, 0.8, ExponentialJumps(0.5))
        s = ScaleFunctionSet(model, 0.4)
        fill = FillPhase(s, 1.5, False)
        law = fill.overshoot_law(0.5)
        assert law.atom_at_lambda > 0.0
        assert law.total_mass() == pytest.approx(fill.exit_lt(0.5), abs=1e-6)

    def test_law_nonnegative(self):
        s = ScaleFunctionSet(compound_poisson_exp(2.0, 1.0, 1.0), 0.3)
        law = FillPhase(s, 2.0, True).overshoot_law(1.0)
        for z in np.linspace(2.01, 6.0, 17):
            assert law.density(z) >= -1e-10


def cycle_evaluator(model, policy):
    """The cycle functionals of a reflected fill."""
    costs = CostSpec(0.0, 0.0, 0.0, PiecewisePoly.zero(), PiecewisePoly.zero())
    return PolicyEvaluator(model, policy, costs, reflected=True)


class TestCycleEnd:
    def test_brownian_factorization(self):
        model = brownian(1.0, 2.0)
        policy = PolicyParams(lam=1.0, tau=0.2, M=2.0, V=3.0)
        alpha, x = 0.5, 0.4
        ev = cycle_evaluator(model, policy)
        s, s_M = ev.fill_set(alpha), ev.release_set(alpha)
        q = ev.cycle_end_lt(alpha, x)
        factor = (FillPhase(s, 1.0, True).exit_lt(x)
                  * ReleasePhase(s_M, 0.2, 3.0).exit_lt(1.0))
        assert q == pytest.approx(factor, abs=1e-8)

    def test_alpha_zero_is_one_for_reflected_input(self):
        model = compound_poisson_exp(2.0, 1.0, 1.0)
        policy = PolicyParams(lam=2.0, tau=0.5, M=2.0, V=4.0)
        q = cycle_evaluator(model, policy).cycle_end_lt(0.0, 0.5)
        assert q == pytest.approx(1.0, abs=1e-6)

    def test_above_threshold_falls_through_to_release(self):
        model = compound_poisson_exp(2.0, 1.0, 1.0)
        policy = PolicyParams(lam=2.0, tau=0.5, M=2.0, V=4.0)
        alpha = 0.5
        ev = cycle_evaluator(model, policy)
        s_M = ev.release_set(alpha)
        got = ev.cycle_end_lt(alpha, 3.0)
        assert got == pytest.approx(ReleasePhase(s_M, 0.5, 4.0).exit_lt(3.0),
                                    rel=1e-12)

    def test_monotone_in_alpha(self):
        model = compound_poisson_exp(2.0, 1.0, 1.0)
        policy = PolicyParams(lam=2.0, tau=0.5, M=2.0, V=4.0)
        ev = cycle_evaluator(model, policy)
        vals = [ev.cycle_end_lt(a, 0.5) for a in (0.897, 0.3, 0.1)]
        assert vals[0] < vals[1] < vals[2] <= 1.0

    def test_infinite_capacity_composition(self):
        model = compound_poisson_exp(2.0, 1.0, 1.0)
        policy = PolicyParams(lam=2.0, tau=0.5, M=2.0, V=math.inf)
        q = cycle_evaluator(model, policy).cycle_end_lt(0.4, 0.5)
        assert 0.0 < q < 1.0


class TestRangeGuards:
    """Exit quantities outside their range raise instead of being reported.

    Reflected Brownian input at large thresholds cancels catastrophically
    in Z(lam - x) - alpha W(lam - x) W(lam) / W'(lam): at lam = 20 the
    transform comes out as 8192, at lam = 30 as 2.8e14 with a zero mean.
    (At lam = 15 it comes out as 0.125, inside [0, 1], which no range
    check can catch.)
    """

    @staticmethod
    def evaluator(lam):
        from levydam import CostSpec, PiecewisePoly, PolicyEvaluator

        costs = CostSpec(1.0, 0.5, 0.3, PiecewisePoly.zero(),
                         PiecewisePoly.zero())
        return PolicyEvaluator(brownian(1.0, 1.0),
                               PolicyParams(lam, 0.5, 2.0, 2.0 * lam), costs)

    def test_transform_above_one_raises_at_lam_20(self):
        from levydam import ConvergenceError

        with pytest.raises(ConvergenceError, match="outside"):
            self.evaluator(20.0).fill_exit_lt(0.5)

    def test_transform_and_mean_raise_at_lam_30(self):
        from levydam import ConvergenceError

        ev = self.evaluator(30.0)
        with pytest.raises(ConvergenceError, match="outside"):
            ev.fill_exit_lt(0.5)
        with pytest.raises(ConvergenceError, match="finite positive mean"):
            ev.fill_exit_mean()

    def test_composed_transforms_raise_for_gamma_at_lam_10(self):
        # the reflected gamma fill transform is 0.28125 here (exact 2.12e-3),
        # inside [0, 1]; composed with the overshoot law and the release it
        # came out as a cycle transform of 82.3 and a cycle cost of 100.0
        costs = CostSpec(1.0, 0.5, 0.3, PiecewisePoly.zero(),
                         PiecewisePoly.zero())
        ev = PolicyEvaluator(GammaDrift(1.0, 3.0, 2.0),
                             PolicyParams(10.0, 0.5, 2.0, 20.0), costs,
                             reflected=True)
        with pytest.raises(ConvergenceError, match="cycle end transform"):
            ev.cycle_end_lt(0.5)
        with pytest.raises(ConvergenceError, match="cycle end transform"):
            ev.cycle_cost(0.5)

    def test_zero_derivative_at_threshold_raises(self):
        # reflected Brownian input drifting down at lam = 12.5: W'(lam) comes
        # out as 0.0, which the fill mean and transform divide by
        costs = CostSpec(1.0, 0.5, 0.3, PiecewisePoly.zero(),
                         PiecewisePoly.zero())
        ev = PolicyEvaluator(brownian(-1.6, 0.87),
                             PolicyParams(12.5, 0.5, 2.0, 30.0), costs,
                             reflected=True)
        with pytest.raises(ConvergenceError, match=r"W'\(lam\) = 0\.0"):
            ev.fill_exit_mean()

    def test_in_range_values_pass_unchanged(self):
        ev = self.evaluator(5.0)
        s = ev.fill_set(0.5)
        assert ev.fill_exit_lt(0.5) == FillPhase(s, 5.0, True).exit_lt(0.5)
        assert 0.0 < ev.fill_exit_lt(0.5) < 1.0
        assert 0.0 < ev.fill_exit_mean() < math.inf


class TestLargeThresholds:
    """The reflected fill transform from tau = 0.5 at large lam, V = 2 lam,
    against the mpmath root sums of ``tests/scale_reference.py``.

    Z(lam - x) and alpha W(lam - x) W(lam) / W'(lam) grow like
    exp(eta lam) and cancel to a transform that falls like exp(-eta lam), so
    float64 keeps fewer digits as lam grows.  Bounded exit formulas, which
    sum decaying exponentials only (ROADMAP item 2), are what mend the
    expected failures.
    """

    CP = ("compound_poisson_exp", {"zeta": 2.0, "rate": 1.0, "jump_mean": 1.0})
    BM = ("brownian", {"mu": 1.0, "sigma2": 1.0})

    @staticmethod
    def transform(family, params, lam):
        import levydam

        model = getattr(levydam, family)(**params)
        costs = CostSpec(1.0, 0.5, 0.3, PiecewisePoly.zero(),
                         PiecewisePoly.zero())
        return PolicyEvaluator(model, PolicyParams(lam, 0.5, 2.0, 2.0 * lam),
                               costs).fill_exit_lt(0.5)

    @pytest.mark.parametrize("case, lam", [
        ("CP", 10.0),
        ("CP", 20.0),
        pytest.param("CP", 30.0, marks=pytest.mark.xfail(
            strict=True, reason="cancellation, 1.5e-3 off: needs the bounded "
                                "exit formulas of ROADMAP item 2")),
        pytest.param("BM", 15.0, marks=pytest.mark.xfail(
            strict=True, reason="cancellation, 0.125 against 2.57e-3: needs "
                                "the bounded exit formulas of ROADMAP item 2")),
    ])
    def test_matches_root_sums(self, case, lam):
        pytest.importorskip("mpmath")
        import scale_reference

        family, params = getattr(self, case)
        want = scale_reference.reflected_fill_exit_lt(family, params, 0.5,
                                                      lam, 0.5)
        got = self.transform(family, params, lam)
        assert abs(got - want) <= 1e-6 * want, (got, want)

    def test_lost_transform_raises_at_lam_40(self):
        # the exact transform is 7.4e-12, below the rounding of the terms:
        # at lam = 40 it comes out negative, at 41 as exactly 0
        for lam in (40.0, 41.0):
            with pytest.raises(ConvergenceError):
                self.transform(*self.CP, lam)
