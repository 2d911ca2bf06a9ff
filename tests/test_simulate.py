import json
import math

import numpy as np
import pytest
from scipy import stats

from levydam import (
    CostSpec,
    FillPhase,
    GammaDrift,
    InverseGaussianDrift,
    PiecewisePoly,
    PolicyParams,
    ReleasePhase,
    ScaleFunctionSet,
    brownian,
    compound_poisson_exp,
    estimate,
    run_policy_cycles,
    simulate_input_path,
)
from levydam.models import BrownianDrift, ExponentialJumps
from levydam.simulate import (
    _GL_NODES,
    _GL_WEIGHTS,
    CycleRecords,
    PathConfig,
    SimulationEstimate,
    _grid_cycles,
    _GridStep,
    _integrate_segments,
    _SegmentSink,
    _subordinator_increments,
    path_rng,
    simulate_fill_phase,
    simulate_release_phase,
    simulate_total_discounted,
)

ZERO = CostSpec(0.0, 0.0, 0.0, PiecewisePoly.zero(), PiecewisePoly.zero())
POLICY = PolicyParams(lam=2.0, tau=0.5, M=2.0, V=4.0)


class TestInputPaths:
    def test_brownian_mean_at_horizon(self):
        cfg = PathConfig(time_step=1e-2, n_paths=1, seed=101)
        t_end = 1.0
        vals = np.array([
            simulate_input_path(brownian(1.0, 2.0), cfg, t_end, i).values[-1]
            for i in range(4000)])
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - 1.0) < 3 * se

    def test_poisson_jump_counts(self):
        model = compound_poisson_exp(2.0, 1.0, 1.0)
        cfg = PathConfig(n_paths=1, seed=7)
        t_end = 5.0
        counts = np.array([
            len(simulate_input_path(model, cfg, t_end, i).jump_times)
            for i in range(3000)])
        # chi-square against Poisson(5), bins 0..12+
        edges = list(range(0, 13))
        observed = np.array([(counts == k).sum() for k in edges]
                            + [(counts >= 13).sum()])
        probs = np.array([stats.poisson.pmf(k, 5.0) for k in edges]
                         + [1.0 - stats.poisson.cdf(12, 5.0)])
        keep = probs * len(counts) >= 5
        chi2 = ((observed[keep] - len(counts) * probs[keep]) ** 2
                / (len(counts) * probs[keep])).sum()
        dof = keep.sum() - 1
        assert chi2 < stats.chi2.ppf(0.99, dof)

    def test_gamma_increments_distribution(self):
        model = GammaDrift(1.0, 1.0, 2.0)
        cfg = PathConfig(time_step=0.25, n_paths=1, seed=31)
        t_end = 0.25
        incs = np.array([
            simulate_input_path(model, cfg, t_end, i).values[-1]
            + model.zeta * t_end
            for i in range(4000)])
        ks = stats.kstest(incs, "gamma", args=(model.a * t_end, 0.0,
                                               1.0 / model.b))
        assert ks.pvalue > 0.01

    def test_path_starts_at_zero(self):
        path = simulate_input_path(brownian(1.0, 2.0),
                                   PathConfig(n_paths=1, seed=1), 1.0)
        assert path.values[0] == 0.0
        assert path.times[0] == 0.0

    def test_horizon_guard(self):
        with pytest.raises(ValueError):
            simulate_input_path(brownian(1.0, 2.0),
                                PathConfig(n_paths=1, horizon=1.0), 2.0)


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
        cfg = PathConfig(n_paths=1, seed=5)
        model = compound_poisson_exp(2.0, 1.0, 1.0)
        p0 = simulate_input_path(model, cfg, 3.0, path_index=0)
        p0_again = simulate_input_path(model, cfg, 3.0, path_index=0)
        p1 = simulate_input_path(model, cfg, 3.0, path_index=1)
        assert np.array_equal(p0.values, p0_again.values)
        assert not np.array_equal(p0.values, p1.values)


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


class TestDump:
    def test_jsonl_dump(self, tmp_path):
        model = compound_poisson_exp(2.0, 1.0, 1.0)
        out = tmp_path / "cycles.jsonl"
        rec = run_policy_cycles(model, POLICY, ZERO,
                                PathConfig(n_paths=50, seed=2),
                                alphas=[0.5], dump_path=str(out))
        lines = out.read_text().splitlines()
        assert len(lines) == rec.n_cycles
        row = json.loads(lines[0])
        assert row["fill_time"] == rec.fill_time[0]
        assert "e_cycle[0.5]" in row


class TestPathConfig:
    @pytest.mark.parametrize("kwargs", [
        {"time_step": math.nan}, {"time_step": math.inf}, {"time_step": 0.0},
        {"horizon": -1.0}, {"horizon": math.nan}, {"horizon": math.inf},
        {"small_jump_cutoff": -1.0}, {"small_jump_cutoff": 0.0},
        {"small_jump_cutoff": math.nan}, {"n_paths": 0},
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
        gs = np.array([g(y) for y in ys])
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
        rng = np.random.default_rng(4)
        _, y0, slope, t0, duration, stick = _random_segments(rng, 400)
        ends = rng.uniform(size=400) < 0.3
        keep = rng.uniform(size=400) < 0.8
        results = []
        for block in (1, 7, 10 ** 9):
            sink = _SegmentSink(G_MULTI, ALPHAS, True, block)
            for i in range(400):
                sink.add(y0[i], abs(slope[i]), t0[i], duration[i])
                if ends[i]:
                    sink.close() if keep[i] else sink.drop()
            sink.drop()
            results.append(sink.result())
        assert len(results[0][0.0]) == (ends & keep).sum()
        for other in results[1:]:
            for a in ALPHAS:
                np.testing.assert_allclose(other[a], results[0][a],
                                           rtol=1e-15, atol=0.0)


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
# the step loop.  The current kernel, the per-path phase constants and the
# sink must reproduce them bit for bit.
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
    """Every output of the grid simulator, byte for byte, against the
    reference kernel and step loops, on fixed seeds."""

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


def test_grid_sink_blocks_do_not_matter():
    model = BrownianDrift(0.5, 1.0, 0.8, ExponentialJumps(0.5))
    cfg = PathConfig(time_step=5e-2, n_paths=40, seed=31, horizon=6.0)
    costs = TestCostsLeavePathsAlone.COSTS
    results = []
    for block in (1, 7, 10 ** 9):
        step = _GridStep(model, cfg, True, POLICY.lam, POLICY.tau, POLICY.V,
                         POLICY.M)
        results.append(_grid_cycles(step, cfg, POLICY.tau, True, costs,
                                    ALPHAS, block=block))
    assert 0 < results[0].n_partial < cfg.n_paths
    assert results[0].fill_g[0.5].any()
    for other in results[1:]:
        assert _raw(other) == _raw(results[0])
