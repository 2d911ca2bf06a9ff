import math

import numpy as np
import pytest

from levydam import (
    CostSpec,
    GammaDrift,
    PiecewisePoly,
    PolicyEvaluator,
    PolicyParams,
    ScaleFunctionSet,
    brownian,
    compound_poisson_exp,
    cycle_cost,
    cycle_end_lt,
    exit_lt_reflected,
    exit_lt_up,
    exit_mean_reflected,
    exit_mean_up,
    fill_cost,
    fill_overshoot_law,
    long_run_average_cost,
    overshoot_expectation,
    release_cost,
    release_exit_lt,
    release_exit_mean,
    shifted_scale_set,
    total_discounted_cost,
)

CP = compound_poisson_exp(2.0, 1.0, 1.0)
BM = brownian(1.0, 2.0)
POLICY = PolicyParams(lam=2.0, tau=0.5, M=2.0, V=4.0)
G = PiecewisePoly((0.0, 2.0), ((0.2, 0.1),))
G_STAR = PiecewisePoly((0.5, 4.0), ((0.1, 0.05),))
COSTS = CostSpec(K1=1.0, K2=0.5, R=0.3, g=G, g_star=G_STAR)
ZERO = CostSpec(0.0, 0.0, 0.0, PiecewisePoly.zero(), PiecewisePoly.zero())


class TestPiecewisePoly:
    def test_piece_evaluation(self):
        p = PiecewisePoly((0.0, 1.0, 2.0), ((1.0, 2.0), (3.0,)))
        assert p(0.5) == pytest.approx(2.0)      # 1 + 2*(0.5)
        assert p(1.5) == pytest.approx(3.0)
        assert p(-0.1) == 0.0
        assert p(2.0) == 0.0                     # right-open support

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewisePoly((1.0, 0.0), ((1.0,),))
        with pytest.raises(ValueError):
            PiecewisePoly((0.0, 1.0), ((1.0,), (2.0,)))
        with pytest.raises(ValueError):
            PiecewisePoly((0.0, 1.0), ((math.inf,),))

    def test_array_values_equal_scalar_calls(self):
        p = PiecewisePoly((-0.5, 0.3, 1.0, 2.25, 4.0),
                          ((0.2, 0.1, -0.7), (0.3, -0.05), (1.1, 0.4, 0.3, -0.2),
                           (0.05,)))
        rng = np.random.default_rng(8)
        ys = np.concatenate((
            rng.uniform(-0.5, 4.0, 500),           # interior points
            p.breakpoints,                         # every breakpoint, the last too
            np.nextafter(p.breakpoints, -np.inf),  # just left of each
            [-3.0, -0.5000001, 4.0, 4.5, 1e9]))    # outside the support
        got = p.values(ys)
        want = np.array([p(float(y)) for y in ys])
        assert got.tobytes() == want.tobytes()
        # any shape, evaluated entrywise
        grid = ys[:480].reshape(80, 6)
        assert np.array_equal(p.values(grid), want[:480].reshape(80, 6))
        assert not PiecewisePoly.zero().values(ys).any()

    def test_declared_bound_enforced(self):
        g = PiecewisePoly.constant(2.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            CostSpec(0.0, 0.0, 0.0, g, PiecewisePoly.zero(), g_bound=1.0)
        CostSpec(0.0, 0.0, 0.0, g, PiecewisePoly.zero(), g_bound=2.5)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            PolicyParams(lam=1.0, tau=1.0, M=1.0, V=2.0)
        with pytest.raises(ValueError):
            PolicyParams(lam=2.0, tau=0.5, M=0.0, V=4.0)
        with pytest.raises(ValueError):
            PolicyParams(lam=2.0, tau=0.5, M=1.0, V=1.5)


class TestPhaseCosts:
    def test_zero_rate_gives_zero(self):
        s = ScaleFunctionSet(CP, 0.5)
        assert fill_cost(CP, s, 0.5, 2.0, PiecewisePoly.zero()) == 0.0
        s_M = shifted_scale_set(CP, 2.0, 0.5)
        assert release_cost(CP, s_M, 3.0, 0.5, 4.0, PiecewisePoly.zero()) == 0.0

    @pytest.mark.parametrize("model", [CP, BM])
    def test_unit_rate_matches_transform_identity(self, model):
        alpha = 0.5
        s = ScaleFunctionSet(model, alpha)
        one = PiecewisePoly.constant(1.0, 0.0, 2.0)
        got = fill_cost(model, s, 0.5, 2.0, one, reflected=True)
        want = (1.0 - exit_lt_reflected(s, 0.5, 2.0)) / alpha
        assert got == pytest.approx(want, abs=1e-7)

    @pytest.mark.parametrize("model", [CP, BM])
    def test_unit_rate_release_matches_transform_identity(self, model):
        alpha = 0.5
        s_M = shifted_scale_set(model, 2.0, alpha)
        one = PiecewisePoly.constant(1.0, 0.5, 4.0)
        got = release_cost(model, s_M, 4.0, 0.5, 4.0, one)
        want = (1.0 - release_exit_lt(s_M, 4.0, 0.5, 4.0)) / alpha
        assert got == pytest.approx(want, abs=1e-7)

    def test_fill_cost_includes_atom_for_bounded_variation(self):
        # constant rate on [0, lam): dropping the atom at zero must change it
        alpha = 0.5
        s = ScaleFunctionSet(CP, alpha)
        one = PiecewisePoly.constant(1.0, 0.0, 2.0)
        with_atom = fill_cost(CP, s, 0.5, 2.0, one, reflected=True)
        shifted = PiecewisePoly.constant(1.0, 1e-9, 2.0)  # misses y = 0
        without = fill_cost(CP, s, 0.5, 2.0, shifted, reflected=True)
        assert with_atom > without + 1e-4


class TestCycleCost:
    def test_all_zero(self):
        assert cycle_cost(CP, POLICY, ZERO, 0.5, 0.5) == pytest.approx(0.0)

    def test_rejects_zero_alpha(self):
        with pytest.raises(ValueError):
            cycle_cost(CP, POLICY, COSTS, 0.0, 0.5)

    def test_charges_only_configuration(self):
        # g = g* = 0, R = 0: cost is M (K2 + K1 q_fill) below the threshold
        spec = CostSpec(1.0, 0.5, 0.0, PiecewisePoly.zero(), PiecewisePoly.zero())
        alpha, x = 0.5, 0.5
        s = ScaleFunctionSet(CP, alpha)
        got = cycle_cost(CP, POLICY, spec, alpha, x, reflected=True, s=s)
        q = exit_lt_reflected(s, x, 2.0)
        assert got == pytest.approx(2.0 * (0.5 + 1.0 * q), abs=1e-7)

    def test_release_phase_start(self):
        # lam < x <= V only sees the opening charge, reward and g*
        alpha, x = 0.5, 3.0
        s_M = shifted_scale_set(CP, 2.0, alpha)
        got = cycle_cost(CP, POLICY, COSTS, alpha, x, s_M=s_M)
        rel_lt = release_exit_lt(s_M, x, 0.5, 4.0)
        want = (2.0 * (1.0 - 0.3 * (1.0 - rel_lt) / alpha)
                + release_cost(CP, s_M, x, 0.5, 4.0, G_STAR))
        assert got == pytest.approx(want, rel=1e-10)

    def test_brownian_composition_reduces_to_release_at_threshold(self):
        # continuous input: the overshoot composition is exactly the release
        # cost started at the threshold
        alpha, x = 0.5, 0.8
        s = ScaleFunctionSet(BM, alpha)
        s_M = shifted_scale_set(BM, 2.0, alpha)
        got = cycle_cost(BM, POLICY, COSTS, alpha, x, s=s, s_M=s_M)
        q = exit_lt_reflected(s, x, 2.0)
        from levydam import cycle_end_lt
        q_cycle = cycle_end_lt(BM, POLICY, alpha, x, s=s, s_M=s_M)
        want = (2.0 * (0.5 + 1.0 * q - (0.3 / alpha) * (q - q_cycle))
                + fill_cost(BM, s, x, 2.0, G, reflected=True)
                + q * release_cost(BM, s_M, 2.0, 0.5, 4.0, G_STAR))
        assert got == pytest.approx(want, rel=1e-9)


class TestTotalDiscounted:
    def test_all_zero(self):
        assert total_discounted_cost(CP, POLICY, ZERO, 0.5, 0.5) == 0.0

    def test_geometric_identity_at_tau(self):
        ev = PolicyEvaluator(CP, POLICY, COSTS)
        alpha = 0.5
        c_tau = ev.cycle_cost(alpha)
        q_tau = ev.cycle_end_lt(alpha)
        assert ev.total_discounted(alpha) == pytest.approx(
            c_tau / (1.0 - q_tau), rel=1e-12)

    def test_monotone_in_opening_charge(self):
        bumped = CostSpec(K1=1.5, K2=0.5, R=0.3, g=G, g_star=G_STAR)
        base = total_discounted_cost(CP, POLICY, COSTS, 0.5, 0.5)
        more = total_discounted_cost(CP, POLICY, bumped, 0.5, 0.5)
        assert more > base + 1e-6


class TestLongRunAverage:
    def test_all_zero(self):
        assert long_run_average_cost(CP, POLICY, ZERO) == pytest.approx(0.0)

    def test_independent_of_start_state(self):
        a = long_run_average_cost(CP, POLICY, COSTS, x=0.5)
        b = long_run_average_cost(CP, POLICY, COSTS, x=1.5)
        assert a == pytest.approx(b, abs=1e-9)

    def test_plain_input_with_downward_drift_rejected(self):
        with pytest.raises(ValueError):
            long_run_average_cost(CP, POLICY, COSTS, reflected=False)

    def test_infinite_capacity_slow_release_rejected(self):
        heavy = compound_poisson_exp(2.0, 1.0, 4.0)  # mean inflow +2
        policy = PolicyParams(lam=2.0, tau=0.5, M=1.0, V=math.inf)
        with pytest.raises(ValueError):
            long_run_average_cost(heavy, policy, COSTS)

    @pytest.mark.parametrize("model", [CP, BM])
    def test_abelian_limit(self, model):
        ev = PolicyEvaluator(model, POLICY, COSTS)
        lra = ev.long_run_average()
        vals = [a * ev.total_discounted(a) for a in (1e-2, 1e-3, 1e-4)]
        first = (10 * vals[1] - vals[0]) / 9
        second = (10 * vals[2] - vals[1]) / 9
        extrap = (100 * second - first) / 99
        assert extrap == pytest.approx(lra, rel=1e-3)


class TestEvaluatorSharing:
    """One evaluator shares its scale sets and overshoot laws across
    quantities, and each quantity equals the free function computed from
    freshly built sets, bit for bit."""

    CASES = {
        # reflected fill: compound Poisson, convolution series
        "reflected": (CP, True, COSTS),
        # plain fill that reaches the threshold: gamma input drifting up,
        # Laplace inversion; charges only, as each maintenance integral
        # costs thousands of inversions on fresh sets
        "plain": (GammaDrift(1.0, 3.0, 2.0), False,
                  CostSpec(1.0, 0.5, 0.3, PiecewisePoly.zero(),
                           PiecewisePoly.zero())),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_methods_equal_free_functions(self, case):
        model, reflected, costs = self.CASES[case]
        ev = PolicyEvaluator(model, POLICY, costs, reflected=reflected)
        lam, tau, M, V = POLICY.lam, POLICY.tau, POLICY.M, POLICY.V
        alpha = 0.5

        def fresh(a):
            return (ScaleFunctionSet(model, a, options=ev.options),
                    shifted_scale_set(model, M, a, options=ev.options))

        def mean_release(s0, s_M0):
            law = fill_overshoot_law(s0, tau, lam, reflected)
            return overshoot_expectation(
                law, lambda z: release_exit_mean(s_M0, min(z, V), tau, V), V)

        exit_lt = exit_lt_reflected if reflected else exit_lt_up
        exit_mean = exit_mean_reflected if reflected else exit_mean_up
        kw = dict(reflected=reflected)
        # evaluator calls in an order that reuses laws the earlier ones built
        got = {
            "fill_exit_lt": ev.fill_exit_lt(alpha),
            "fill_exit_mean": ev.fill_exit_mean(),
            "release_exit_lt": ev.release_exit_lt(alpha, 3.0),
            "release_exit_mean": ev.release_exit_mean(3.0),
            "mean_release_time": ev.mean_release_time(),
            "mean_cycle_length": ev.mean_cycle_length(),
            "long_run_average": ev.long_run_average(),
            "cycle_cost": ev.cycle_cost(alpha),
            "cycle_end_lt": ev.cycle_end_lt(alpha),
            "total_discounted": ev.total_discounted(alpha),
            "overshoot_mass": ev.overshoot_law(alpha).total_mass(),
        }
        want = {
            "fill_exit_lt": exit_lt(fresh(alpha)[0], tau, lam),
            "fill_exit_mean": exit_mean(fresh(0.0)[0], tau, lam),
            "release_exit_lt": release_exit_lt(fresh(alpha)[1], 3.0, tau, V),
            "release_exit_mean": release_exit_mean(fresh(0.0)[1], 3.0, tau, V),
            "mean_release_time": mean_release(*fresh(0.0)),
            "mean_cycle_length": (exit_mean(fresh(0.0)[0], tau, lam)
                                  + mean_release(*fresh(0.0))),
            "long_run_average": long_run_average_cost(
                model, POLICY, costs, options=ev.options, **kw),
            "cycle_cost": cycle_cost(model, POLICY, costs, alpha, tau,
                                     options=ev.options, **kw),
            "cycle_end_lt": cycle_end_lt(model, POLICY, alpha, tau,
                                         options=ev.options, **kw),
            "total_discounted": total_discounted_cost(
                model, POLICY, costs, alpha, tau, options=ev.options, **kw),
            "overshoot_mass": fill_overshoot_law(
                fresh(alpha)[0], tau, lam, reflected).total_mass(),
        }
        for name in want:
            assert got[name] == want[name], name
        assert set(ev._fill_sets) == set(ev._release_sets) == {0.0, alpha}

    def test_fill_overshoot_law_built_once_per_set(self):
        s = ScaleFunctionSet(CP, 0.5)
        law = fill_overshoot_law(s, 0.5, 2.0, True)
        assert fill_overshoot_law(s, 0.5, 2.0, True) is law
        assert fill_overshoot_law(s, 0.7, 2.0, True) is not law
        other = fill_overshoot_law(ScaleFunctionSet(CP, 0.5), 0.5, 2.0, True)
        assert other is not law
        assert other.total_mass() == law.total_mass()

    def test_dropped_evaluator_frees_its_sets_at_once(self):
        # laws refer to their set; the set must not refer back strongly, or
        # dead sets wait for the cyclic collector and inflate peak memory
        import gc
        import weakref

        ev = PolicyEvaluator(CP, POLICY, COSTS)
        ev.overshoot_law(0.0).density_mass()
        ref = weakref.ref(ev.fill_set(0.0))
        gc.disable()
        try:
            del ev
            assert ref() is None
        finally:
            gc.enable()

    def test_kernel_evaluated_once_per_point(self):
        import levydam.exits as exits

        s = ScaleFunctionSet(CP, 0.5)
        law = exits.overshoot_reflected(s, 0.5, 2.0)
        points = []
        real = law.density._fn

        def counting(zs):
            points.extend(zs.tolist())
            return real(zs)

        law.density._fn = counting
        first = law.density_mass()
        n_first = len(points)
        assert n_first > 0 and len(set(points)) == n_first
        # the same z nodes again: no density value is computed twice
        assert law.density_mass() == first
        assert len(points) == n_first

    @pytest.mark.parametrize("config, n_laws", [
        ("compound_poisson", 2),  # one per discount rate: 0 and 0.5
        ("gamma", 1),
    ])
    def test_one_evaluate_builds_one_law_per_rate(self, config, n_laws,
                                                  monkeypatch):
        import json
        from pathlib import Path

        from levydam import OvershootLaw
        from levydam.cli import cmd_evaluate

        if config == "gamma":
            cfg = json.loads(json.dumps(GAMMA_CONFIG))
        else:
            path = Path(__file__).resolve().parent.parent / "configs"
            cfg = json.loads((path / f"{config}.json").read_text())
        built = []
        real_init = OvershootLaw.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(OvershootLaw, "__init__", counting)
        report = cmd_evaluate(cfg)
        assert report["notes"] == []
        assert len(built) == n_laws


GAMMA_CONFIG = {
    "schema_version": 1,
    "model": {"kind": "gamma", "zeta": 1.0, "a": 3.0, "b": 2.0},
    "reflected": False,
    "policy": {"lambda": 2.0, "tau": 0.5, "M": 2.0, "V": 4.0},
    "costs": {
        "K1": 1.0, "K2": 0.5, "R": 0.3,
        "g": {"breakpoints": [0.0, 1.0], "coeffs": [[0.0]]},
        "g_star": {"breakpoints": [0.0, 1.0], "coeffs": [[0.0]]},
    },
    "alphas": [],
}
