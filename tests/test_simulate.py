import json
import math

import numpy as np
import pytest
from scipy import stats

from levydam import (
    CostSpec,
    GammaDrift,
    InverseGaussianDrift,
    PiecewisePoly,
    PolicyParams,
    brownian,
    compound_poisson_exp,
    estimate,
    release_exit_mean,
    run_policy_cycles,
    shifted_scale_set,
    simulate_input_path,
)
from levydam.simulate import (
    _GL_NODES,
    _GL_WEIGHTS,
    PathConfig,
    _integrate_segments,
    _SegmentSink,
    simulate_fill_phase,
    simulate_release_phase,
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
        from levydam import ScaleFunctionSet, exit_mean_reflected
        s0 = ScaleFunctionSet(model, 0.0)
        est = estimate("fill", t)
        assert est.agrees_with(exit_mean_reflected(s0, 0.5, 2.0))

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
        s_M0 = shifted_scale_set(model, M, 0.0)
        est = estimate("rel", times)
        assert est.agrees_with(release_exit_mean(s_M0, z, tau, V))


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
