import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from levydam import (
    CostSpec,
    FillPhase,
    GammaDrift,
    InverseGaussianDrift,
    LevyMeasure,
    PiecewisePoly,
    PolicyParams,
    ReleasePhase,
    ScaleFunctionSet,
    brownian,
    compound_poisson_exp,
    estimate,
    run_policy_cycles,
)
from levydam import simulate
from levydam.cli import build_costs, build_model, build_policy
from levydam.models import (BrownianDrift, ExponentialJumps,
                            _BoundedVariationModel)
from levydam.simulate import (
    _GL_NODES,
    _GL_WEIGHTS,
    CycleRecords,
    PathConfig,
    SimulationEstimate,
    _integrate_segments,
    _SegmentSink,
    _subordinator_increments,
    path_rng,
    simulate_fill_phase,
    simulate_release_phase,
    simulate_total_discounted,
)

from test_costs import scalar_rate

ZERO = CostSpec(0.0, 0.0, 0.0, PiecewisePoly.zero(), PiecewisePoly.zero())
POLICY = PolicyParams(lam=2.0, tau=0.5, M=2.0, V=4.0)


@dataclasses.dataclass(frozen=True)
class _NoSampler(_BoundedVariationModel):
    """A bounded variation family the oracle has no sampler for."""

    zeta: float
    measure: LevyMeasure


class TestSubordinatorIncrements:
    """The grid kernel's exact increments, against their laws over dt."""

    def test_gamma_increments_distribution(self):
        model, dt = GammaDrift(1.0, 1.0, 2.0), 0.25
        incs = _subordinator_increments(model, path_rng(31, 0), dt, 4000)
        ks = stats.kstest(incs, "gamma", args=(model.a * dt, 0.0,
                                               1.0 / model.b))
        assert ks.pvalue > 0.01

    def test_inverse_gaussian_increments_distribution(self):
        # IG(mean dt / c, shape dt^2 / sigma^2): scipy's invgauss(m, scale=s)
        # has mean m s and shape s
        model, dt = InverseGaussianDrift(1.0, 1.0, 2.0), 0.25
        mean, shape = dt / model.c, dt * dt / model.sigma ** 2
        incs = _subordinator_increments(model, path_rng(32, 0), dt, 4000)
        ks = stats.kstest(incs, "invgauss", args=(mean / shape, 0.0, shape))
        assert ks.pvalue > 0.01

    def test_unknown_family_is_not_simulated(self):
        model = _NoSampler(1.0, GammaDrift(1.0, 3.0, 2.0).measure)
        with pytest.raises(TypeError, match="no grid sampler for _NoSampler"):
            run_policy_cycles(model, POLICY, ZERO,
                              PathConfig(time_step=1e-2, n_paths=10, seed=1))


class TestDeterminism:
    def test_cycles_bit_identical(self):
        model = compound_poisson_exp(2.0, 1.0, 1.0)
        cfg = PathConfig(n_paths=200, seed=42)
        a = run_policy_cycles(model, POLICY, ZERO, cfg, alphas=[0.5])
        b = run_policy_cycles(model, POLICY, ZERO, cfg, alphas=[0.5])
        assert np.array_equal(a.fill_time, b.fill_time)
        assert np.array_equal(a.crossing_state, b.crossing_state)
        assert np.array_equal(a.e_cycle[0.5], b.e_cycle[0.5])

    def test_grid_cycles_bit_identical(self):
        cfg = PathConfig(time_step=5e-3, n_paths=300, seed=9)
        a = run_policy_cycles(brownian(1.0, 2.0), POLICY, ZERO, cfg)
        b = run_policy_cycles(brownian(1.0, 2.0), POLICY, ZERO, cfg)
        assert np.array_equal(a.fill_time, b.fill_time)
        assert np.array_equal(a.release_time, b.release_time)

    def test_paths_keyed_by_index(self):
        # path i's outcome depends on (seed, i) only, not on n_paths; the
        # outcomes of finished paths come in path order
        model = compound_poisson_exp(2.0, 1.0, 1.0)

        def outcome(kind, seed, n):
            cfg = PathConfig(n_paths=n, seed=seed)
            if kind == "release":
                return simulate_release_phase(model, 10.0, 0.0, math.inf, 2.0,
                                              cfg)[0]
            cfg = PathConfig(n_paths=n, seed=seed, horizon=3.0)
            if kind == "fill":
                return simulate_fill_phase(model, 0.5, 2.0, cfg)[0]
            return run_policy_cycles(model, POLICY, ZERO, cfg).fill_time

        for kind in ("release", "fill", "cycles"):
            few, many = outcome(kind, 5, 20), outcome(kind, 5, 60)
            # the horizon leaves some fills open
            assert 1 < len(few) < 20 or kind == "release"
            assert np.array_equal(few, many[:len(few)]), kind
            # each path has a stream of its own
            assert len(np.unique(few)) > 1
            assert not np.array_equal(few, outcome(kind, 6, 20))


class TestReflectionInvariants:
    def test_crossing_states_at_or_above_threshold(self):
        model = compound_poisson_exp(2.0, 1.0, 1.0)
        rec = run_policy_cycles(model, POLICY, ZERO,
                                PathConfig(n_paths=500, seed=3))
        assert np.all(rec.crossing_state >= POLICY.lam)
        assert np.all(rec.fill_time > 0)
        assert np.all(rec.release_time > 0)

    def test_brownian_crossing_state_is_threshold(self):
        rec = run_policy_cycles(brownian(1.0, 2.0), POLICY, ZERO,
                                PathConfig(time_step=5e-3, n_paths=300, seed=4))
        assert np.all(rec.crossing_state == POLICY.lam)

    def test_discretization_halving_consistent(self):
        # halving the step must not move the estimate beyond sampling noise;
        # the runs are independent, so the gap carries both standard errors
        model = brownian(1.0, 1.0)
        res = {}
        for dt in (2e-3, 1e-3):
            t, _, _ = simulate_fill_phase(
                model, 0.0, 1.0, PathConfig(time_step=dt, n_paths=20000,
                                            seed=17), reflected=False)
            res[dt] = estimate("fill", t)
        gap = abs(res[2e-3].mean - res[1e-3].mean)
        noise = math.hypot(res[2e-3].std_error, res[1e-3].std_error)
        assert gap < 3.0 * noise


class TestEstimators:
    def test_constant_values(self):
        est = estimate("const", np.full(50, 2.5))
        assert est.mean == 2.5 and est.std_error == 0.0
        assert est.n_effective == 50

    def test_ratio_estimator_on_synthetic_cycles(self):
        est = estimate("ratio", np.full(64, 2.0), np.ones(64))
        assert est.mean == pytest.approx(2.0)
        assert est.std_error == pytest.approx(0.0, abs=1e-14)

    def test_insufficient_data(self):
        with pytest.raises(ValueError):
            estimate("x", np.array([1.0]))

    def test_agreement_helper(self):
        est = estimate("x", np.array([1.0, 1.1, 0.9, 1.05, 0.95]))
        assert est.agrees_with(1.0)
        assert not est.agrees_with(5.0)


class TestPhaseSimulators:
    def test_busy_period_mean(self):
        model = compound_poisson_exp(2.0, 1.0, 1.0)
        times, partial = simulate_release_phase(
            model, 1.0, 0.0, math.inf, 2.0, PathConfig(n_paths=20000, seed=21))
        assert partial == 0
        est = estimate("rel", times)
        closed = 1.0 / (2.0 - model.mean_input())
        assert est.agrees_with(closed)

    def test_fill_phase_matches_cycles(self):
        model = compound_poisson_exp(2.0, 1.0, 1.0)
        t, states, partial = simulate_fill_phase(
            model, 0.5, 2.0, PathConfig(n_paths=5000, seed=23), reflected=True)
        assert partial == 0
        assert np.all(states >= 2.0)
        from levydam import ScaleFunctionSet
        s0 = ScaleFunctionSet(model, 0.0)
        est = estimate("fill", t)
        assert est.agrees_with(FillPhase(s0, 2.0, True).exit_mean(0.5))

    @pytest.mark.parametrize("model", [compound_poisson_exp(2.0, 1.0, 1.0),
                                       brownian(1.0, 2.0),
                                       GammaDrift(1.0, 3.0, 2.0)],
                             ids=["cp", "brownian", "gamma"])
    @pytest.mark.parametrize("reflected", [True, False])
    def test_fill_from_threshold_has_length_zero(self, model, reflected):
        t, states, partial = simulate_fill_phase(
            model, 2.0, 2.0, PathConfig(time_step=1e-2, n_paths=50, seed=3),
            reflected=reflected)
        assert partial == 0
        assert np.array_equal(t, np.zeros(50))
        assert np.array_equal(states, np.full(50, 2.0))

    @pytest.mark.parametrize("model", [compound_poisson_exp(2.0, 1.0, 1.0),
                                       brownian(1.0, 2.0)],
                             ids=["cp", "brownian"])
    @pytest.mark.parametrize("start", [
        lambda m, cfg: simulate_release_phase(m, 0.3, 0.5, 4.0, 2.0, cfg),
        lambda m, cfg: simulate_release_phase(m, 1.0, 0.5, 0.5, 2.0, cfg),
        lambda m, cfg: simulate_release_phase(m, 1.0, 0.5, 4.0, 0.0, cfg),
        lambda m, cfg: simulate_fill_phase(m, 2.5, 2.0, cfg, reflected=False),
        lambda m, cfg: simulate_fill_phase(m, -0.1, 2.0, cfg, reflected=True),
    ], ids=["release_below_tau", "release_tau_at_V", "release_zero_rate",
            "fill_above_lam", "reflected_fill_below_zero"])
    def test_rejects_what_the_analytic_side_rejects(self, model, start):
        with pytest.raises(ValueError):
            start(model, PathConfig(n_paths=10, seed=1))

    @pytest.mark.parametrize("model, seed", [
        (brownian(1.0, 2.0), 21),
        (GammaDrift(1.0, 1.0, 2.0), 22),
        (InverseGaussianDrift(1.0, 1.0, 2.0), 23),
    ], ids=["brownian", "gamma", "inverse_gaussian"])
    def test_grid_release_wald_mean(self, model, seed):
        z, tau, M = 1.5, 0.5, 2.0
        times, partial = simulate_release_phase(
            model, z, tau, math.inf, M,
            PathConfig(time_step=1e-3, n_paths=20_000, seed=seed))
        assert partial == 0
        est = estimate("rel", times)
        assert est.agrees_with((z - tau) / (M - model.mean_input()))

    def test_grid_release_capped(self):
        model = brownian(1.0, 2.0)
        z, tau, V, M = 1.5, 0.5, 4.0, 2.0
        times, partial = simulate_release_phase(
            model, z, tau, V, M,
            PathConfig(time_step=1e-3, n_paths=20_000, seed=21))
        assert partial == 0
        s_M0 = ScaleFunctionSet(model.shifted(M), 0.0)
        est = estimate("rel", times)
        assert est.agrees_with(ReleasePhase(s_M0, tau, V).exit_mean(z))


class TestPathConfig:
    @pytest.mark.parametrize("kwargs", [
        {"time_step": math.nan}, {"time_step": math.inf}, {"time_step": 0.0},
        {"horizon": -1.0}, {"horizon": math.nan}, {"horizon": math.inf},
        {"n_paths": 0},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            PathConfig(**kwargs)

    def test_defaults_accepted(self):
        cfg = PathConfig()
        assert cfg.time_step > 0 and cfg.horizon > 0


def _segment_integrals_reference(g, y0, slope, t0, duration, alphas, out,
                                 stick_at_zero):
    """The former per-segment integral: one scalar g call per node."""
    if duration <= 0.0 or g.is_zero:
        return
    cuts = [0.0, duration]
    if stick_at_zero and slope > 0 and y0 - slope * duration < 0:
        cuts.append(y0 / slope)
    for b in g.breakpoints:
        if slope != 0.0:
            tb = (y0 - b) / slope
            if 0.0 < tb < duration:
                cuts.append(tb)
    cuts = sorted(set(cuts))
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        ts = mid + half * _GL_NODES
        ys = y0 - slope * ts
        if stick_at_zero:
            ys = np.maximum(ys, 0.0)
        gs = np.array([scalar_rate(g, y) for y in ys])
        for a in alphas:
            damp = np.exp(-a * (t0 + ts)) if a else 1.0
            out[a] += half * float(np.dot(_GL_WEIGHTS, gs * damp))


ALPHAS = [0.0, 0.5, 2.0]
# no breakpoint at 0, so only the sticking time cuts a path absorbed there
G_MULTI = PiecewisePoly((-0.5, 0.5, 1.0, 2.0, 3.5),
                        ((0.2, 0.1), (0.3, -0.05, 0.4), (0.1,), (0.5, 0.0, -0.1)))


def _random_segments(rng, n):
    """Segments with sticking, several crossings, zero lengths and t0 > 0."""
    y0 = rng.uniform(0.0, 4.0, n)
    slope = rng.choice([2.0, 4.0, 0.3, -1.0, 0.0], n)
    duration = rng.exponential(1.0, n)
    duration[rng.uniform(size=n) < 0.1] = 0.0
    t0 = rng.uniform(0.0, 5.0, n)
    stick = rng.uniform(size=n) < 0.5
    slot = np.sort(rng.integers(0, n // 4, n))
    return slot, y0, slope, t0, duration, stick


class TestBatchedSegmentIntegrals:
    @pytest.mark.parametrize("g", [G_MULTI, PiecewisePoly.zero()])
    def test_matches_per_segment_reference(self, g):
        rng = np.random.default_rng(12)
        n = 600
        slot, y0, slope, t0, duration, stick = _random_segments(rng, n)
        # the mix must really contain what it is meant to cover
        assert (stick & (slope > 0) & (y0 - slope * duration < 0)).sum() > 20
        assert (duration == 0.0).sum() > 20
        # a slot sums its segments piece by piece, as one cycle did
        ref = {a: np.zeros(n // 4) for a in ALPHAS}
        for i in range(n):
            acc = {a: ref[a][slot[i]] for a in ALPHAS}
            _segment_integrals_reference(g, y0[i], slope[i], t0[i],
                                         duration[i], ALPHAS, acc, stick[i])
            for a in ALPHAS:
                ref[a][slot[i]] = acc[a]
        got = {a: np.zeros(n // 4) for a in ALPHAS}
        _integrate_segments(g, slot, y0, slope, t0, duration, stick, ALPHAS,
                            got)
        for a in ALPHAS:
            if g.is_zero:
                assert not got[a].any()
            else:
                assert np.count_nonzero(got[a]) > n // 8
            np.testing.assert_allclose(got[a], ref[a], rtol=1e-13, atol=0.0)

    def test_many_crossings_in_one_segment(self):
        got = {a: np.zeros(1) for a in ALPHAS}
        args = (np.array([0]), np.array([3.9]), np.array([1.0]),
                np.array([0.7]), np.array([3.8]))
        _integrate_segments(G_MULTI, *args, False, ALPHAS, got)
        ref = {a: 0.0 for a in ALPHAS}
        _segment_integrals_reference(G_MULTI, 3.9, 1.0, 0.7, 3.8, ALPHAS, ref,
                                     False)
        for a in ALPHAS:
            assert got[a][0] == pytest.approx(ref[a], rel=1e-13, abs=0.0)

    def test_block_boundaries_do_not_matter(self):
        # pieces of 60 cycles, added a few cycles at a time as the event
        # loop adds them; each slot sums its pieces in order, bit for bit,
        # wherever the blocks end (a lone piece included)
        rng = np.random.default_rng(4)
        _, y0, _, t0, duration, _ = _random_segments(rng, 400)
        slot = rng.integers(0, 60, 400)
        cuts = np.sort(rng.choice(np.arange(1, 400), 90, replace=False))
        results = []
        for block in (1, 2, 7, 10 ** 9):
            sink = _SegmentSink(G_MULTI, ALPHAS, True, 2.0, block)
            for part in np.split(np.arange(400), cuts):
                sink.add(slot[part], y0[part], t0[part], duration[part])
            results.append(_raw(sink.result(64)))
        want = {a: np.zeros(64) for a in ALPHAS}
        _integrate_segments(G_MULTI, slot, y0, np.full(400, 2.0), t0,
                            duration, True, ALPHAS, want)
        assert np.count_nonzero(want[0.5]) > 50
        for got in results:
            assert got == _raw(want)


class TestCostsLeavePathsAlone:
    COSTS = CostSpec(1.0, 0.5, 0.3,
                     PiecewisePoly((0.0, 1.0, 2.0), ((0.2, 0.1), (0.3, -0.05))),
                     PiecewisePoly((0.5, 2.0, 4.0), ((0.1, 0.05), (0.175, -0.02))))

    # each horizon leaves some cycles partial; the grid families run the
    # step kernel, compound Poisson the event loop
    FAMILIES = {
        "cp": (compound_poisson_exp(2.0, 1.0, 1.0), 2.5),
        "brownian": (brownian(1.0, 2.0), 3.0),
        "gamma": (GammaDrift(1.0, 4.0, 2.0), 3.0),
    }

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("reflected", [True, False])
    def test_nonzero_costs_same_paths(self, reflected, family):
        model, horizon = self.FAMILIES[family]
        cfg = PathConfig(time_step=5e-3, n_paths=800, seed=19,
                         horizon=horizon)
        zero = run_policy_cycles(model, POLICY, ZERO, cfg, reflected=reflected,
                                 alphas=[0.5])
        paid = run_policy_cycles(model, POLICY, self.COSTS, cfg,
                                 reflected=reflected, alphas=[0.5])
        assert 50 < paid.n_partial < 750
        assert paid.n_partial == zero.n_partial
        for field in ("fill_time", "release_time", "crossing_state"):
            assert np.array_equal(getattr(paid, field), getattr(zero, field))
        assert np.all(paid.fill_g[0.5] > 0) and np.all(paid.release_g[0.0] > 0)
        assert not zero.fill_g[0.0].any() and not zero.release_g[0.5].any()
        assert len(paid.fill_g[0.5]) == paid.n_cycles


# ---------------------------------------------------------------------------
# Reference oracle: the grid kernel and step loops as they were with both
# phase branches evaluated through np.where and the trapezoid integrals added in
# the step loop, one step for all live paths at a time.  The blocked kernel at
# one step per block (``_GRID_BLOCK`` = 1) must reproduce them bit for bit.
# ---------------------------------------------------------------------------

class _ReferenceGridStep:
    """The grid step kernel before its phase constants: both phase branches
    through np.where, drawn from the (seed, 0) stream."""

    def __init__(self, model, config, reflected, lam, tau, V, M):
        self.model = model
        self.dt = config.time_step
        self.rng = path_rng(config.seed, 0)
        self.reflected = reflected
        self.lam, self.tau, self.V, self.M = lam, tau, V, M
        self.is_bm = isinstance(model, BrownianDrift)
        self.sig_dt = math.sqrt(model.sigma2 * self.dt)

    def __call__(self, y, filling):
        """(y_pre, hit, crossing_state) of one step from the contents y.

        ``y_pre`` is the content at the end of the step, after reflection or
        the cap; ``hit`` marks paths that reached lam (filling) or tau
        (releasing) within the step; ``crossing_state`` is where a fill
        crossing lands.
        """
        model, rng, dt, m = self.model, self.rng, self.dt, len(y)
        lam, tau, V = self.lam, self.tau, self.V
        if self.is_bm:
            w = rng.normal(model.mu * dt, self.sig_dt, size=m)
            u_ext = rng.uniform(size=m)
            u_cross = rng.uniform(size=m)
            if model.has_jumps:
                cnt = rng.poisson(model.jump_rate * dt, size=m)
                for k in np.nonzero(cnt)[0]:
                    w[k] += model.jumps.sample(rng, cnt[k]).sum()
        else:
            w = _subordinator_increments(model, rng, dt, m) - model.zeta * dt
        w = np.where(filling, w, w - self.M * dt)

        if not self.is_bm:
            y_pre = np.where(filling,
                             np.maximum(y + w, 0.0) if self.reflected else y + w,
                             np.minimum(y + w, V))
            return y_pre, np.where(filling, y_pre >= lam, y_pre <= tau), y_pre
        sig2 = model.sigma2
        root = np.sqrt(w * w - 2.0 * sig2 * dt * np.log(u_ext))
        ext = 0.5 * (w + np.where(filling, -root, root))
        y_pre = np.where(
            filling,
            y + w - (np.minimum(0.0, y + ext) if self.reflected else 0.0),
            y + w - np.maximum(0.0, y + ext - V))
        inert = np.where(filling, (y < lam) & (y_pre < lam),
                         (y > tau) & (y_pre > tau))
        gap = np.where(filling, (lam - y) * (lam - y_pre),
                       (y - tau) * (y_pre - tau))
        p = np.where(inert, np.exp(-2.0 * np.maximum(gap, 0.0) / (sig2 * dt)),
                     0.0)
        hit = np.where(filling, y_pre >= lam, y_pre <= tau) | (u_cross < p)
        state = (np.where(y_pre >= lam, y_pre, lam) if model.has_jumps
                 else np.full_like(y_pre, lam))
        return y_pre, hit, state

    def stopped(self, y_pre, filling):
        """Step-end contents held at the threshold that ends their phase."""
        return np.where(filling, np.minimum(y_pre, self.lam),
                        np.maximum(y_pre, self.tau))



def _reference_grid_cycles(step, config, start, filling, costs=None,
                           alphas=(), fill_only=False) -> CycleRecords:
    """The grid loop before the sink: every path from ``start`` in the
    given phase, on a common clock.

    A path stops at its fill crossing when ``fill_only``, otherwise at the
    end of its release phase.  Finished paths leave the live arrays each
    step, so late stragglers cost almost nothing; paths still live at the
    horizon are partial.  With ``costs`` the maintenance rates are
    integrated by the trapezoid rule on the grid.
    """
    n = config.n_paths
    dt = step.dt
    g = None if costs is None or costs.g.is_zero else costs.g.values
    gs = None if costs is None or costs.g_star.is_zero else costs.g_star.values

    # live paths: their indices, contents and phases
    orig = np.arange(n)
    y = np.full(n, float(start))
    filling = np.full(n, filling)

    # per-path records, indexed by path
    t_fill = np.zeros(n)
    release_time = np.zeros(n)
    cross = np.zeros(n)
    gf = {a: np.zeros(n) for a in alphas}
    gr = {a: np.zeros(n) for a in alphas}
    e_fill = {a: np.zeros(n) for a in alphas}
    e_cycle = {a: np.zeros(n) for a in alphas}
    done = np.zeros(n, dtype=bool)

    t = 0.0
    for _ in range(int(math.ceil(config.horizon / dt))):
        if len(y) == 0:
            break
        y_pre, hit, state = step(y, filling)
        d1 = t + dt
        if costs is not None:
            y_end = step.stopped(y_pre, filling)
            for rate, in_phase, acc in ((g, filling, gf), (gs, ~filling, gr)):
                if rate is not None and in_phase.any():
                    base, top = rate(y[in_phase]), rate(y_end[in_phase])
                    pid = orig[in_phase]
                    for a in alphas:
                        acc[a][pid] += 0.5 * dt * (math.exp(-a * t) * base
                                                   + math.exp(-a * d1) * top)
        t = d1

        crossed = filling & hit
        if crossed.any():
            t_fill[orig[crossed]] = t
            cross[orig[crossed]] = state[crossed]
        finished = crossed if fill_only else hit & ~filling
        y = np.where(hit, np.minimum(state, step.V), y_pre)
        filling = filling & ~hit
        if finished.any():
            pid = orig[finished]
            release_time[pid] = t - t_fill[pid]
            for a in alphas:
                e_fill[a][pid] = np.exp(-a * t_fill[pid])
                e_cycle[a][pid] = math.exp(-a * t)
            done[pid] = True
            live = ~finished
            orig, y, filling = orig[live], y[live], filling[live]

    sel = lambda d: {a: v[done] for a, v in d.items()}
    rel_disc = {}
    for a in alphas:
        if a:
            rel_disc[a] = (e_fill[a][done] - e_cycle[a][done]) / a
        else:
            rel_disc[a] = release_time[done]
    return CycleRecords(
        fill_time=t_fill[done], release_time=release_time[done],
        crossing_state=cross[done], e_fill=sel(e_fill), e_cycle=sel(e_cycle),
        fill_g=sel(gf), release_g=sel(gr), release_disc_time=rel_disc,
        n_partial=int(n - done.sum()), M=step.M)



def _reference_total_discounted(model, policy, costs, alpha, x, config,
                                reflected, floor):
    """The discounted loop before the phase constants: successive cycles
    on a shared clock, until the discount floor.

    Each path's total takes its charges, release reward and maintenance
    integrals as they fall due, so no path ever leaves the arrays.
    """
    lam, tau, V, M = policy.lam, policy.tau, policy.V, policy.M
    n = config.n_paths
    dt = config.time_step
    step = _ReferenceGridStep(model, config, reflected, lam, tau, V, M)
    g = None if costs.g.is_zero else costs.g.values
    gs = None if costs.g_star.is_zero else costs.g_star.values

    start = min(x, V)
    y = np.full(n, float(start))
    filling = np.full(n, start <= lam)
    totals = np.full(n, M * costs.K2 if start <= lam else M * costs.K1)

    t = 0.0
    t_max = -math.log(floor) / alpha
    for _ in range(int(math.ceil(t_max / dt))):
        d0 = math.exp(-alpha * t)
        d1 = math.exp(-alpha * (t + dt))
        y_pre, hit, state = step(y, filling)
        f = filling
        r = ~filling
        y_end = step.stopped(y_pre, f)
        for rate, in_phase in ((g, f), (gs, r)):
            if rate is not None and in_phase.any():
                totals[in_phase] += 0.5 * dt * (d0 * rate(y[in_phase])
                                                + d1 * rate(y_end[in_phase]))
        if r.any():
            totals[r] -= costs.R * M * (d0 - d1) / alpha
        # the valve opens: pay the opening charge
        totals[f & hit] += d1 * M * costs.K1
        # the cycle ends: pay the next closing charge
        totals[r & hit] += d1 * M * costs.K2
        # an opened valve releases from the capped state, a closed one
        # restarts the fill at tau
        y = np.where(hit, np.where(f, np.minimum(state, V), tau), y_pre)
        filling = filling ^ hit
        t += dt
    return totals


def _reference_cycles(model, policy, costs, config, reflected, alphas):
    step = _ReferenceGridStep(model, config, reflected, policy.lam, policy.tau,
                              policy.V, policy.M)
    return _reference_grid_cycles(step, config, policy.tau, True, costs,
                                  sorted({0.0, *alphas}))


def _reference_fill(model, x, lam, config, reflected):
    step = _ReferenceGridStep(model, config, reflected, lam, -math.inf,
                              math.inf, 0.0)
    rec = _reference_grid_cycles(step, config, x, True, fill_only=True)
    return rec.fill_time, rec.crossing_state, rec.n_partial


def _reference_release(model, z, tau, V, M, config):
    step = _ReferenceGridStep(model.shifted(M), config, False, math.inf, tau,
                              V, 0.0)
    rec = _reference_grid_cycles(step, config, min(z, V), False)
    return rec.release_time, rec.n_partial


def _reference_total(model, policy, costs, alpha, x, config, reflected,
                     floor):
    totals = _reference_total_discounted(model, policy, costs, alpha, x,
                                         config, reflected, floor)
    return estimate(f"total_discounted:{alpha:g}", totals)


def _raw(x):
    """Raw bytes of every array and float in x, for exact comparison."""
    if isinstance(x, CycleRecords):
        return _raw(vars(x))
    if isinstance(x, SimulationEstimate):
        return _raw([x.mean, x.std_error, x.n_effective, x.quantity_tag])
    if isinstance(x, dict):
        return {k: _raw(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_raw(v) for v in x]
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, float):
        return np.float64(x).tobytes()
    return x


GRID_FAMILIES = {
    "brownian": brownian(1.0, 2.0),
    "jump_diffusion": BrownianDrift(0.5, 1.0, 0.8, ExponentialJumps(0.5)),
    "gamma": GammaDrift(1.0, 4.0, 2.0),
    "inverse_gaussian": InverseGaussianDrift(1.0, 1.0, 2.0),
}
ORACLE_COSTS = {"zero": ZERO, "paid": TestCostsLeavePathsAlone.COSTS}


@pytest.mark.parametrize("family", GRID_FAMILIES)
class TestGridKernelMatchesReference:
    """Every output of the grid simulator at one step per block, byte for
    byte, against the reference kernel and step loops, on fixed seeds."""

    @pytest.fixture(autouse=True)
    def one_step_per_block(self, monkeypatch):
        monkeypatch.setattr(simulate, "_GRID_BLOCK", 1)

    def test_policy_cycles(self, family):
        model = GRID_FAMILIES[family]
        cases = [(refl, cost, horizon, V)
                 for refl in (True, False) for cost in ORACLE_COSTS
                 for horizon, V in ((3.0, 4.0), (40.0, 4.0))]
        cases += [(True, "paid", 40.0, math.inf), (False, "paid", 40.0, 2.3)]
        partial = 0
        for refl, cost, horizon, V in cases:
            policy = PolicyParams(lam=2.0, tau=0.5, M=2.0, V=V)
            cfg = PathConfig(time_step=2e-2, n_paths=120, seed=27,
                             horizon=horizon)
            args = (model, policy, ORACLE_COSTS[cost], cfg, refl, [0.5, 2.0])
            got = run_policy_cycles(*args[:4], reflected=refl,
                                    alphas=[0.5, 2.0])
            want = _reference_cycles(*args)
            assert _raw(got) == _raw(want), (refl, cost, horizon, V)
            partial += got.n_partial
            if cost == "paid":
                assert got.fill_g[2.0].any() and got.release_g[0.0].any()
        assert partial > 0  # horizon 3 leaves cycles unfinished

    def test_fill_phase(self, family):
        model = GRID_FAMILIES[family]
        for refl in (True, False):
            for x, horizon in ((0.0, 100.0), (1.0, 2.0)):
                cfg = PathConfig(time_step=2e-2, n_paths=150, seed=28,
                                 horizon=horizon)
                got = simulate_fill_phase(model, x, 2.0, cfg, reflected=refl)
                want = _reference_fill(model, x, 2.0, cfg, refl)
                assert _raw(list(got)) == _raw(list(want)), (refl, x)

    def test_release_phase(self, family):
        model = GRID_FAMILIES[family]
        for z, V in ((1.5, math.inf), (3.0, 2.3), (6.0, 4.0)):
            for horizon in (0.5, 40.0):
                cfg = PathConfig(time_step=2e-2, n_paths=150, seed=29,
                                 horizon=horizon)
                got = simulate_release_phase(model, z, 0.5, V, 2.0, cfg)
                want = _reference_release(model, z, 0.5, V, 2.0, cfg)
                assert _raw(list(got)) == _raw(list(want)), (z, V, horizon)

    def test_total_discounted(self, family):
        model = GRID_FAMILIES[family]
        for refl in (True, False):
            for cost in ORACLE_COSTS:
                for x, V in ((0.5, 4.0), (5.0, 4.0), (0.5, math.inf)):
                    policy = PolicyParams(lam=2.0, tau=0.5, M=2.0, V=V)
                    cfg = PathConfig(time_step=2e-2, n_paths=60, seed=30)
                    args = (model, policy, ORACLE_COSTS[cost], 2.0, x, cfg,
                            refl)
                    got = simulate_total_discounted(*args[:6], reflected=refl,
                                                    discount_floor=1e-3)
                    want = _reference_total(*args, 1e-3)
                    assert _raw(got) == _raw(want), (refl, cost, x, V)
        # NumPy scalars for the start and the thresholds, as an axis from
        # np.linspace gives them
        tau, lam = np.linspace(0.5, 2.0, 2)
        policy = PolicyParams(lam=lam, tau=tau, M=np.float64(2.0),
                              V=np.float64(4.0))
        cfg = PathConfig(time_step=2e-2, n_paths=60, seed=30)
        for x in (np.float64(0.5), np.float64(5.0)):
            args = (model, policy, ORACLE_COSTS["paid"], 2.0, x, cfg, True)
            got = simulate_total_discounted(*args[:6], reflected=True,
                                            discount_floor=1e-3)
            assert _raw(got) == _raw(_reference_total(*args, 1e-3)), x


# ---------------------------------------------------------------------------
# The blocked kernel against a plain step loop on the same draws
# ---------------------------------------------------------------------------

def _plain_step(model, reflected, policy, dt, y, w, u_ext, u_bridge, filling):
    """(y_end, hit) of one step of one path from content y, a float at a
    time, as a step loop takes it; u_ext and u_bridge are None for a
    subordinator."""
    lam, tau, V, M = policy.lam, policy.tau, policy.V, policy.M
    if not filling:
        w = w - M * dt
    if not isinstance(model, BrownianDrift):
        if filling:
            y_end = max(y + w, 0.0) if reflected else y + w
            return y_end, y_end >= lam
        y_end = min(y + w, V)
        return y_end, y_end <= tau
    s2dt = model.sigma2 * dt
    root = math.sqrt(w * w - 2.0 * s2dt * math.log(u_ext))
    if filling:
        cut = min(0.0, y + 0.5 * (w - root)) if reflected else 0.0
        y_end, bar = y + w - cut, lam
        reached, short = y_end >= lam, y < lam and y_end < lam
    else:
        cut = max(0.0, y + 0.5 * (w + root) - V)
        y_end, bar = y + w - cut, tau
        reached, short = y_end <= tau, y > tau and y_end > tau
    p = (math.exp(-2.0 * max((bar - y) * (bar - y_end), 0.0) / s2dt)
         if short else 0.0)
    return y_end, reached or u_bridge < p


def _plain_draws(u, K, j, c):
    """The extremum's and the bridge's uniform of step j of column c."""
    return (None, None) if u is None else (u[j, c], u[K + j, c])


def _landing(model, lam, y_end):
    if isinstance(model, BrownianDrift) and not model.has_jumps:
        return lam
    return max(y_end, lam) if isinstance(model, BrownianDrift) else y_end


JUMP_DIFFUSION = GRID_FAMILIES["jump_diffusion"]
# (model, reflected, filling, start range); a release at M = 0.5 drifts up,
# so the cap at V acts
BLOCK_CASES = {
    "bm-reflected-fill": (brownian(-0.5, 2.0), True, True, (0.0, 0.5)),
    "bm-plain-fill": (brownian(-0.5, 2.0), False, True, (0.0, 2.0)),
    "bm-capped-release": (brownian(1.0, 2.0), False, False, (0.5, 4.0)),
    "jump-diffusion-fill": (JUMP_DIFFUSION, True, True, (0.0, 1.0)),
    "gamma-clipped-fill": (GammaDrift(1.0, 4.0, 2.0), True, True, (0.0, 0.5)),
    "gamma-capped-release": (GammaDrift(1.0, 4.0, 2.0), False, False,
                             (0.5, 4.0)),
}


@pytest.mark.parametrize("shape", [(1, 50), (4, 50), (50, 4), (300, 3)])
def test_first_hit_search_matches_a_scan(shape):
    # each shape takes its own branch of _first_true; all must give the
    # columns that hold a True and the row of the first, as a plain scan
    rng = np.random.default_rng(3)
    hit = rng.random(shape) < 0.05
    hit[:, 0] = False
    hit[-1, 1] = True
    want = [(j, int(np.flatnonzero(hit[:, j])[0]))
            for j in range(shape[1]) if hit[:, j].any()]
    cols, rows = simulate._first_true(hit)
    assert [(int(c), int(r)) for c, r in zip(cols, rows)] == want


@pytest.mark.parametrize("shape", [(200, 40), (3, 64)],
                         ids=["tall", "wide"])
@pytest.mark.parametrize("case", BLOCK_CASES)
def test_block_recurrence_matches_step_loop(case, shape):
    # the running sum and running extremum of a block against a step loop
    # on the same draws: contents to 1e-12 and the same first hit
    model, reflected, filling, (lo, hi) = BLOCK_CASES[case]
    K, m = shape
    policy = PolicyParams(lam=2.0, tau=0.5, M=0.5, V=4.0)
    cfg = PathConfig(time_step=2e-2, n_paths=m, seed=33)
    kernel = simulate._GridKernel(model, cfg, reflected, policy.lam,
                                  policy.tau, policy.V, policy.M)
    y0 = np.random.default_rng(34).uniform(lo, hi, m)
    y0[:4] = lo, hi, lo, hi
    w, u = kernel.draws(K, m)
    want, want_hit = np.empty((K + 1, m)), np.zeros((K, m), bool)
    want[0] = y0
    clipped = 0
    for c in range(m):
        y = y0[c]
        for j in range(K):
            y_end, want_hit[j, c] = _plain_step(
                model, reflected, policy, cfg.time_step, y, w[j, c],
                *_plain_draws(u, K, j, c), filling)
            clipped += y_end != y + w[j, c] - (0.0 if filling
                                               else policy.M * cfg.time_step)
            y = want[j + 1, c] = y_end
    Y, hit = kernel.advance(y0, w.copy(), None if u is None else u.copy(),
                            filling)
    assert np.abs(Y - want).max() <= 1e-12
    first = lambda h: np.where(h.any(axis=0), h.argmax(axis=0), -1)
    assert np.array_equal(first(hit), first(want_hit))
    if K > 3:  # the bound acts, and paths hit, within the block
        assert (clipped == 0) if case == "bm-plain-fill" else clipped > 10
        assert (first(want_hit) > 0).sum() > 3


def test_bridge_cutoff_is_exact():
    # the uniforms are multiples of 2^-53 and e^lp < 2^-53 at or below the
    # cutoff, so there the bridge test passes only at a uniform of 0.0: the
    # kernel, which takes exp only above the cutoff or at 0.0, must hit
    # exactly where a step loop taking exp everywhere does
    assert math.exp(simulate._BRIDGE_CUTOFF) < 2.0 ** -53
    assert np.exp(simulate._BRIDGE_CUTOFF) < 2.0 ** -53
    model = brownian(-0.5, 2.0)
    cfg = PathConfig(time_step=2e-2, n_paths=1)
    kernel = simulate._GridKernel(model, cfg, False, POLICY.lam, POLICY.tau,
                                  POLICY.V, POLICY.M)
    s2dt = model.sigma2 * cfg.time_step
    # from lam - 1, step ends that put lp = -2 (lam - y0)(lam - y1) / s2dt
    # on a grid from -744 to -1e-3, each with a bridge uniform of 0.0, of
    # 2^-53 and of 0.5
    lp = np.repeat(-np.geomspace(1e-3, 744.0, 300), 3)
    m = len(lp)
    y0 = np.full(m, POLICY.lam - 1.0)
    w = (1.0 + 0.5 * lp * s2dt)[None, :]
    u = np.vstack((np.full(m, 0.5), np.tile([0.0, 2.0 ** -53, 0.5], m // 3)))
    Y, hit = kernel.advance(y0, w.copy(), u.copy(), True)
    want = [_plain_step(model, False, POLICY, cfg.time_step, y0[c], w[0, c],
                        u[0, c], u[1, c], True) for c in range(m)]
    assert np.array_equal(Y[1], [y for y, _ in want])
    assert np.array_equal(hit[0], [h for _, h in want])
    below = lp <= simulate._BRIDGE_CUTOFF
    assert np.array_equal(hit[0] & below, (u[1] == 0.0) & below)
    assert (hit[0] & below).sum() > 50 and (~hit[0] & ~below).any()


def _recorded_draws(monkeypatch):
    """The (w, u) of every kernel block, as drawn."""
    blocks = []
    draws = simulate._GridKernel.draws

    def spy(self, K, m):
        w, u = draws(self, K, m)
        blocks.append((w.copy(), None if u is None else u.copy()))
        return w, u

    monkeypatch.setattr(simulate._GridKernel, "draws", spy)
    return blocks


def _replay(blocks, model, reflected, policy, dt, n_max, paths):
    """Run each live path through its column of each recorded block, a step
    at a time, until its first hit or the step limit.  ``paths`` holds
    per-path lists ``y``, ``filling`` and ``k`` (steps taken); its
    ``on_step(i, y, y_end, filling, k, hit)`` books step k of path i and
    its ``live(i)`` says whether path i goes on after the block."""
    live = list(range(len(paths.y)))
    for w, u in blocks:
        K = len(w)
        assert w.shape[1] == len(live)
        for c, i in enumerate(live):
            for j in range(min(K, n_max - paths.k[i])):
                f, y = paths.filling[i], paths.y[i]
                y_end, hit = _plain_step(model, reflected, policy, dt, y,
                                         w[j, c], *_plain_draws(u, K, j, c), f)
                paths.k[i] += 1
                paths.y[i] = y_end
                paths.on_step(i, y, y_end, f, paths.k[i] - 1, hit)
                if hit:
                    break
        live = [i for i in live if paths.live(i) and paths.k[i] < n_max]
    assert not live


class _CyclePaths:
    """Per-path state of ``run_policy_cycles`` for ``_replay``."""

    def __init__(self, model, policy, costs, alphas, n, t):
        self.model, self.policy, self.costs, self.alphas = (model, policy,
                                                            costs, alphas)
        self.t = t
        self.y, self.filling, self.k = [policy.tau] * n, [True] * n, [0] * n
        self.t_fill, self.t_rel, self.state = ([math.nan] * n for _ in "abc")
        self.g = {f: {a: [0.0] * n for a in alphas} for f in (True, False)}

    def live(self, i):
        return math.isnan(self.t_rel[i])

    def on_step(self, i, y, y_end, f, k, hit):
        p, t = self.policy, self.t
        rate = self.costs.g if f else self.costs.g_star
        top = min(y_end, p.lam) if f else max(y_end, p.tau)
        dt = t[1]
        for a in self.alphas:
            self.g[f][a][i] += 0.5 * dt * (
                math.exp(-a * t[k]) * scalar_rate(rate, y)
                + math.exp(-a * t[k + 1]) * scalar_rate(rate, top))
        if hit and f:
            self.t_fill[i] = t[k + 1]
            self.state[i] = _landing(self.model, p.lam, y_end)
            self.y[i], self.filling[i] = min(self.state[i], p.V), False
        elif hit:
            self.t_rel[i] = t[k + 1] - self.t_fill[i]


def _clock(dt, n):
    t = [0.0]
    for _ in range(n):
        t.append(t[-1] + dt)
    return t


def test_clock_is_a_step_loop_however_it_grows():
    # grown in many small steps or in one, the clock holds the bytes of a
    # step loop's t_k and of math.exp(-a t_k); at a = 0 each factor is 1.0
    dt, n, alphas = 2e-2, 400, (0.0, 0.5, 2.0)
    steps, once = simulate._Clock(dt, alphas), simulate._Clock(dt, alphas)
    for top in range(0, n, 3):
        steps(np.array([top]))
    once(np.array([n - 1]))
    k = np.arange(n)
    t = np.array(_clock(dt, n - 1))
    for clock in (steps, once):
        assert clock(k).tobytes() == t.tobytes()
        for a in alphas:
            want = np.array([math.exp(-a * v) for v in t])
            assert clock(k, a).tobytes() == want.tobytes()
        assert (clock(k, 0.0) == 1.0).all()
    ts = np.concatenate((t, [np.nan, 1e300, 0.0]))
    for a in (0.0, 0.5, 2, 1e-300):
        want = np.array([math.exp(-a * v) for v in ts.tolist()])
        assert simulate._exp(a, ts).tobytes() == want.tobytes()


LOOP_CASES = {
    "brownian-reflected": (brownian(1.0, 2.0), True, 4.0),
    "jump-diffusion-plain": (JUMP_DIFFUSION, False, 2.3),
    "gamma-reflected": (GammaDrift(1.0, 4.0, 2.0), True, 4.0),
}


@pytest.mark.parametrize("block", [97, 70, None],
                         ids=["small", "one-step-first", "default"])
@pytest.mark.parametrize("case", LOOP_CASES)
def test_cycle_blocks_match_step_loop(case, block, monkeypatch):
    # mixed phases, blocks that straddle the horizon: every path books its
    # steps up to its hit and no further, on the clock of its own steps; at
    # a block of 70, the 40 paths take one step per block, in lock step,
    # until 35 or fewer are left
    model, reflected, V = LOOP_CASES[case]
    if block is not None:
        monkeypatch.setattr(simulate, "_GRID_BLOCK", block)
    blocks = _recorded_draws(monkeypatch)
    policy = PolicyParams(lam=2.0, tau=0.5, M=2.0, V=V)
    cfg = PathConfig(time_step=2e-2, n_paths=40, seed=35, horizon=3.0)
    costs, alphas = TestCostsLeavePathsAlone.COSTS, [0.0, 0.5]
    got = run_policy_cycles(model, policy, costs, cfg, reflected=reflected,
                            alphas=alphas)
    n_max = math.ceil(cfg.horizon / cfg.time_step)
    paths = _CyclePaths(model, policy, costs, alphas, cfg.n_paths,
                        _clock(cfg.time_step, n_max))
    _replay(blocks, model, reflected, policy, cfg.time_step, n_max, paths)
    done = ~np.isnan(paths.t_rel)
    assert 0 < got.n_partial == cfg.n_paths - done.sum()
    assert len(blocks) > (10 if block else 1)
    if block == 70:
        assert len(blocks[0][0]) == 1 < max(len(w) for w, _ in blocks)
    assert np.array_equal(got.fill_time, np.array(paths.t_fill)[done])
    assert np.array_equal(got.release_time, np.array(paths.t_rel)[done])
    assert np.abs(got.crossing_state
                  - np.array(paths.state)[done]).max() <= 1e-12
    for f, g in ((True, got.fill_g), (False, got.release_g)):
        for a in alphas:
            np.testing.assert_allclose(g[a], np.array(paths.g[f][a])[done],
                                       rtol=1e-12, atol=0.0)


class _TotalPaths:
    """Per-path state of ``simulate_total_discounted`` for ``_replay``."""

    def __init__(self, model, policy, costs, alpha, x, n, t):
        self.model, self.policy, self.costs, self.alpha = (model, policy,
                                                           costs, alpha)
        self.t = t
        p = policy
        start = min(x, p.V)
        self.y, self.filling, self.k = ([start] * n, [start < p.lam] * n,
                                        [0] * n)
        self.total = [(p.M * costs.K2 if start <= p.lam else 0.0)
                      + (p.M * costs.K1 if start >= p.lam else 0.0)] * n

    def live(self, i):
        return True

    def on_step(self, i, y, y_end, f, k, hit):
        p, c, a, t = self.policy, self.costs, self.alpha, self.t
        d0, d1 = math.exp(-a * t[k]), math.exp(-a * t[k + 1])
        rate = c.g if f else c.g_star
        top = min(y_end, p.lam) if f else max(y_end, p.tau)
        self.total[i] += 0.5 * t[1] * (d0 * scalar_rate(rate, y)
                                       + d1 * scalar_rate(rate, top))
        if not f:
            self.total[i] -= c.R * p.M * (d0 - d1) / a
        if hit and f:
            self.total[i] += d1 * p.M * c.K1
            self.y[i] = min(_landing(self.model, p.lam, y_end), p.V)
        elif hit:
            self.total[i] += d1 * p.M * c.K2
            self.y[i] = p.tau
        self.filling[i] = f != hit


# a start below lam, at lam (the valve opens at once and both charges fall
# due) and above V
@pytest.mark.parametrize("x", [0.5, 2.0, 5.0])
@pytest.mark.parametrize("block", [97, 70, None],
                         ids=["small", "one-step", "default"])
@pytest.mark.parametrize("case", LOOP_CASES)
def test_discounted_blocks_match_step_loop(case, block, x, monkeypatch):
    model, reflected, V = LOOP_CASES[case]
    if block is not None:
        monkeypatch.setattr(simulate, "_GRID_BLOCK", block)
    blocks = _recorded_draws(monkeypatch)
    policy = PolicyParams(lam=2.0, tau=0.5, M=2.0, V=V)
    cfg = PathConfig(time_step=2e-2, n_paths=40, seed=36)
    costs, alpha, floor = TestCostsLeavePathsAlone.COSTS, 2.0, 1e-3
    got = simulate._total_discounted_grid(model, policy, costs, alpha, x,
                                          cfg, reflected, floor)
    n_max = math.ceil(-math.log(floor) / alpha / cfg.time_step)
    paths = _TotalPaths(model, policy, costs, alpha, x, cfg.n_paths,
                        _clock(cfg.time_step, n_max))
    _replay(blocks, model, reflected, policy, cfg.time_step, n_max, paths)
    assert len(blocks) > (10 if block else 1)
    np.testing.assert_allclose(got, paths.total, rtol=1e-12, atol=0.0)


def test_verify_bm_takes_few_blocks(monkeypatch):
    # the cycles of a verify-bm report (perfbench/configs/verify_bm.json at
    # 2,000 paths): about 1,700 steps of a step loop, in a few dozen blocks
    cfg = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                      / "configs" / "verify_bm.json").read_text())
    calls = []
    block = simulate._GridKernel.block

    def spy(self, *args):
        calls.append(args[0].shape)
        return block(self, *args)

    monkeypatch.setattr(simulate._GridKernel, "block", spy)
    rec = run_policy_cycles(build_model(cfg["model"]),
                            build_policy(cfg["policy"]),
                            build_costs(cfg["costs"]),
                            PathConfig(time_step=0.01, n_paths=2000, seed=7),
                            reflected=cfg["reflected"], alphas=cfg["alphas"])
    assert rec.n_partial == 0 and rec.n_cycles == 2000
    assert len(calls) <= 100


# ---------------------------------------------------------------------------
# Reference oracle: the compound Poisson simulators as they were, one path
# at a time with scalar draws from its own generator, and their sink with
# one slot per kept cycle.  The lock-step event loop must reproduce them bit
# for bit.
# ---------------------------------------------------------------------------

class _ReferenceSegmentSink:
    """The former sink: pieces of the open cycle, kept by ``close`` under
    the next slot or discarded by ``drop``."""

    def __init__(self, g, alphas, stick: bool, block: int = 1024):
        self.g = g
        self.alphas = alphas
        self.stick = stick
        self.block = block
        self.n_slots = 0
        self._live = not g.is_zero
        self._rows = []
        self._open = 0  # index in _rows where the open cycle starts
        self._out = {a: np.zeros(0) for a in alphas}

    def add(self, y0, slope, t0, duration):
        if self._live:
            self._rows.append((self.n_slots, y0, slope, t0, duration))
            if len(self._rows) >= self.block:
                self._flush()

    def close(self):
        self.n_slots += 1
        self._open = len(self._rows)

    def drop(self):
        del self._rows[self._open:]
        for v in self._out.values():
            if self.n_slots < len(v):
                v[self.n_slots] = 0.0

    def _flush(self):
        need = self.n_slots + 1
        for a, v in self._out.items():
            if len(v) < need:
                grown = np.zeros(max(need, 2 * len(v)))
                grown[:len(v)] = v
                self._out[a] = grown
        if self._rows:
            slot, y0, slope, t0, dur = np.array(self._rows).T
            self._rows.clear()
            self._open = 0
            _integrate_segments(self.g, slot.astype(np.intp), y0, slope, t0,
                                dur, self.stick, self.alphas, self._out)

    def result(self) -> dict:
        self._flush()
        return {a: v[:self.n_slots].copy() for a, v in self._out.items()}


def _reference_cp_fill(model, rng, x, lam, horizon, reflected, sink=None):
    """Fill phase of one path; (T, state), or None when open at the
    horizon."""
    if x >= lam:
        return 0.0, x
    zeta, rate = model.zeta, model.rate
    y, t = x, 0.0
    while t < horizon:
        gap = rng.exponential(1.0 / rate)
        gap = min(gap, horizon - t)
        if sink is not None:
            sink.add(y, zeta, t, gap)
        y_end = y - zeta * gap
        if reflected:
            y_end = max(y_end, 0.0)
        t += gap
        if t >= horizon:
            break
        jump = float(model.jumps.sample(rng, 1)[0])
        y = y_end + jump
        if y >= lam:
            return t, y
    return None


def _reference_cp_release(model, rng, z, tau, V, M, horizon, t_start,
                          sink=None):
    """Release phase of one path from z; its duration or None."""
    zeta, rate = model.zeta, model.rate
    slope = zeta + M
    y = min(z, V)
    t = 0.0
    while t_start + t < horizon:
        gap = rng.exponential(1.0 / rate)
        t_abs = (y - tau) / slope
        if t_abs <= gap:
            if sink is not None:
                sink.add(y, slope, t_start + t, t_abs)
            return t + t_abs
        gap = min(gap, horizon - t_start - t)
        if sink is not None:
            sink.add(y, slope, t_start + t, gap)
        y -= slope * gap
        t += gap
        if t_start + t >= horizon:
            break
        y = min(y + float(model.jumps.sample(rng, 1)[0]), V)
    return None


def _reference_cp_cycles(model, policy, costs, config, reflected, alphas):
    lam, tau, V, M = policy.lam, policy.tau, policy.V, policy.M
    alphas = sorted({0.0, *alphas})
    t_fills, t_rels, states, n_partial = [], [], [], 0
    fill_g = _ReferenceSegmentSink(costs.g, alphas, reflected)
    release_g = _ReferenceSegmentSink(costs.g_star, alphas, False)
    for i in range(config.n_paths):
        rng = path_rng(config.seed, i)
        fill = _reference_cp_fill(model, rng, tau, lam, config.horizon,
                                  reflected, fill_g)
        t_rel = None
        if fill is not None:
            t_rel = _reference_cp_release(model, rng, fill[1], tau, V, M,
                                          config.horizon, fill[0], release_g)
        if t_rel is None:
            n_partial += 1
            fill_g.drop()
            release_g.drop()
            continue
        fill_g.close()
        release_g.close()
        t_fills.append(fill[0])
        t_rels.append(t_rel)
        states.append(fill[1])
    e_fill = {a: [math.exp(-a * tf) for tf in t_fills] for a in alphas}
    e_cycle = {a: [math.exp(-a * (tf + tr)) for tf, tr in zip(t_fills, t_rels)]
               for a in alphas}
    rel_disc = {a: [(ef - ec) / a if a else tr for ef, ec, tr
                    in zip(e_fill[a], e_cycle[a], t_rels)] for a in alphas}
    arr = lambda d: {a: np.asarray(v, dtype=float) for a, v in d.items()}
    return CycleRecords(
        fill_time=np.asarray(t_fills, dtype=float),
        release_time=np.asarray(t_rels, dtype=float),
        crossing_state=np.asarray(states, dtype=float),
        e_fill=arr(e_fill), e_cycle=arr(e_cycle), fill_g=fill_g.result(),
        release_g=release_g.result(), release_disc_time=arr(rel_disc),
        n_partial=n_partial, M=M)


def _reference_cp_paths(config, run):
    """The outcomes of run(rng) with path i on the (seed, i) stream that
    are not None, and the number of None (paths open at the horizon)."""
    got = [run(path_rng(config.seed, i)) for i in range(config.n_paths)]
    done = [g for g in got if g is not None]
    return done, len(got) - len(done)


def _reference_cp_total(model, policy, costs, alpha, x, config, reflected,
                        floor):
    """Per-path totals, each path's cycles run one after another."""
    lam, tau, V, M = policy.lam, policy.tau, policy.V, policy.M
    t_max = -math.log(floor) / alpha
    fill_g = _ReferenceSegmentSink(costs.g, [alpha], reflected)
    release_g = _ReferenceSegmentSink(costs.g_star, [alpha], False)
    path, disc, fixed_net = [], [], []
    for i in range(config.n_paths):
        rng = path_rng(config.seed, i)
        t, start = 0.0, x
        while t < t_max:
            left = t_max - t  # the floor, from the cycle start
            if start <= lam:
                fill = _reference_cp_fill(model, rng, start, lam, left,
                                          reflected, fill_g)
                fixed = M * costs.K2
            else:
                fill, fixed = (0.0, start), 0.0
            t_rel = None
            if fill is not None:
                t_fill, state = fill
                t_rel = _reference_cp_release(model, rng, state, tau, V, M,
                                              left, t_fill, release_g)
                ef = math.exp(-alpha * t_fill)
                ec = math.exp(-alpha * (left if t_rel is None
                                        else t_fill + t_rel))
                fixed += M * costs.K1 * ef
                fixed -= costs.R * M * (ef - ec) / alpha
            fill_g.close()
            release_g.close()
            path.append(i)
            disc.append(math.exp(-alpha * t))
            fixed_net.append(fixed)
            if t_rel is None:
                break
            t += t_fill + t_rel
            start = tau
    cost = (np.asarray(fixed_net) + fill_g.result()[alpha]
            + release_g.result()[alpha])
    totals = np.zeros(config.n_paths)
    np.add.at(totals, np.asarray(path), np.asarray(disc) * cost)
    return estimate(f"total_discounted:{alpha:g}", totals)


CP_MODEL = compound_poisson_exp(2.0, 1.0, 1.0)


class TestEventLoopMatchesReference:
    """Every output of the compound Poisson simulator, byte for byte,
    against the per-path scalar loops, on fixed seeds."""

    def test_policy_cycles(self):
        partial = {}
        for refl in (True, False):
            for cost in ORACLE_COSTS:
                for horizon in (2.5, 1e4):
                    for V in (4.0, math.inf):
                        policy = PolicyParams(lam=2.0, tau=0.5, M=2.0, V=V)
                        # a plain fill that never reaches lam runs to the
                        # horizon: few paths there
                        n = 12 if horizon > 100 and not refl else 120
                        cfg = PathConfig(n_paths=n, seed=33, horizon=horizon)
                        args = (CP_MODEL, policy, ORACLE_COSTS[cost], cfg)
                        got = run_policy_cycles(*args, reflected=refl,
                                                alphas=[0.5, 2.0])
                        want = _reference_cp_cycles(*args, refl, [0.5, 2.0])
                        assert _raw(got) == _raw(want), (refl, cost, horizon,
                                                         V)
                        partial[horizon] = (partial.get(horizon, 0)
                                            + got.n_partial)
                        if cost == "paid":
                            assert got.fill_g[2.0].any()
                            assert got.release_g[0.0].any()
        # both horizons leave cycles unfinished
        assert partial[2.5] > 0 and partial[1e4] > 0

    def test_fill_phase(self):
        for refl in (True, False):
            for x, horizon in ((0.0, 100.0), (1.0, 2.0), (1.9, 1e4)):
                n = 12 if horizon > 100 and not refl else 150
                cfg = PathConfig(n_paths=n, seed=34, horizon=horizon)
                got = simulate_fill_phase(CP_MODEL, x, 2.0, cfg,
                                          reflected=refl)
                fills, partial = _reference_cp_paths(
                    cfg, lambda rng: _reference_cp_fill(
                        CP_MODEL, rng, x, 2.0, horizon, refl))
                want = [np.asarray([f[0] for f in fills]),
                        np.asarray([f[1] for f in fills]), partial]
                assert _raw(list(got)) == _raw(want), (refl, x, horizon)

    def test_release_phase(self):
        for z, V in ((1.5, math.inf), (3.0, 2.3), (6.0, 4.0)):
            for horizon in (0.5, 40.0):
                cfg = PathConfig(n_paths=150, seed=35, horizon=horizon)
                got = simulate_release_phase(CP_MODEL, z, 0.5, V, 2.0, cfg)
                times, partial = _reference_cp_paths(
                    cfg, lambda rng: _reference_cp_release(
                        CP_MODEL, rng, z, 0.5, V, 2.0, horizon, 0.0))
                assert (_raw(list(got))
                        == _raw([np.asarray(times), partial])), (z, V)

    def test_total_discounted(self):
        # starts below lam, at lam and above V
        for refl in (True, False):
            for cost in ORACLE_COSTS:
                for x, V in ((0.5, 4.0), (2.0, 4.0), (5.0, 4.0),
                             (0.5, math.inf)):
                    for alpha in (0.5, 2.0):
                        policy = PolicyParams(lam=2.0, tau=0.5, M=2.0, V=V)
                        cfg = PathConfig(n_paths=60, seed=36)
                        args = (CP_MODEL, policy, ORACLE_COSTS[cost], alpha,
                                x, cfg)
                        got = simulate_total_discounted(
                            *args, reflected=refl, discount_floor=1e-3)
                        want = _reference_cp_total(*args, refl, 1e-3)
                        assert _raw(got) == _raw(want), (refl, cost, x, V)


class TestStreamBlocks:
    """Outputs do not depend on where a path's blocks of draws end."""

    @pytest.mark.parametrize("first, longest", [(1, 4096), (2, 4096),
                                                (1, 3)])
    def test_refills_do_not_matter(self, monkeypatch, first, longest):
        costs = ORACLE_COSTS["paid"]
        policy = PolicyParams(lam=2.0, tau=0.5, M=2.0, V=4.0)
        runs = {
            "cycles": lambda: run_policy_cycles(
                CP_MODEL, policy, costs, PathConfig(n_paths=80, seed=37),
                reflected=True, alphas=[0.5]),
            "plain cycles": lambda: run_policy_cycles(
                CP_MODEL, policy, costs,
                PathConfig(n_paths=20, seed=37, horizon=500.0),
                reflected=False),
            "fill": lambda: list(simulate_fill_phase(
                CP_MODEL, 0.0, 2.0, PathConfig(n_paths=80, seed=38))),
            "release": lambda: list(simulate_release_phase(
                CP_MODEL, 3.0, 0.5, math.inf, 2.0,
                PathConfig(n_paths=80, seed=39))),
            "total": lambda: simulate_total_discounted(
                CP_MODEL, policy, costs, 0.5, 5.0,
                PathConfig(n_paths=40, seed=40), discount_floor=1e-3),
        }
        default = {k: _raw(run()) for k, run in runs.items()}
        monkeypatch.setattr(simulate, "_FIRST_DRAWS", first)
        monkeypatch.setattr(simulate, "_MAX_DRAWS", longest)
        for k, run in runs.items():
            assert _raw(run()) == default[k], k
