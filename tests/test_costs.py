import json
import math
from pathlib import Path

import numpy as np
import pytest

from levydam import (
    ConvergenceError,
    CostSpec,
    FillPhase,
    GammaDrift,
    PiecewisePoly,
    PolicyEvaluator,
    PolicyParams,
    ReleasePhase,
    ScaleFunctionSet,
    brownian,
    compound_poisson_exp,
)

CP = compound_poisson_exp(2.0, 1.0, 1.0)
BM = brownian(1.0, 2.0)
POLICY = PolicyParams(lam=2.0, tau=0.5, M=2.0, V=4.0)
G = PiecewisePoly((0.0, 2.0), ((0.2, 0.1),))
G_STAR = PiecewisePoly((0.5, 4.0), ((0.1, 0.05),))
COSTS = CostSpec(K1=1.0, K2=0.5, R=0.3, g=G, g_star=G_STAR)
ZERO = CostSpec(0.0, 0.0, 0.0, PiecewisePoly.zero(), PiecewisePoly.zero())
ROOT = Path(__file__).resolve().parent.parent


def evaluator(model, costs=COSTS, policy=POLICY, reflected=True):
    return PolicyEvaluator(model, policy, costs, reflected=reflected)


def scalar_rate(p, y):
    """The rate p at one point y by the plain power loop: each c_k u^k in
    ascending k, u^k = u^(k-1) * u, added to a sum started at 0.0.  This is
    the reference ``PiecewisePoly.values`` must match bit for bit; it shares
    no code with it."""
    bps = p.breakpoints
    if y < bps[0] or y >= bps[-1]:
        return 0.0
    idx = int(np.searchsorted(bps, y, side="right")) - 1
    idx = min(idx, len(p.coeffs) - 1)
    u = y - bps[idx]
    val, power = 0.0, 1.0
    for c in p.coeffs[idx]:
        val += c * power
        power *= u
    return val


class TestPolicyParams:
    @pytest.mark.parametrize("lam, M", [(math.inf, 2.0), (math.nan, 2.0),
                                        (2.0, math.inf), (2.0, math.nan),
                                        (2.0, 0.0)])
    def test_non_finite_or_bad_values_rejected(self, lam, M):
        with pytest.raises(ValueError):
            PolicyParams(lam=lam, tau=0.5, M=M, V=math.inf)


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
        with pytest.raises(ValueError, match="strictly increasing"):
            PiecewisePoly((0.0, math.nan), ((1.0,),))
        for bps, cfs in (((0.0, math.inf), ((1.0, 0.5),)),
                         ((-math.inf, 0.0, 1.0), ((2.0, 1.0), (1.0,))),
                         ((-math.inf, math.inf), ((1.0, 0.0, 1e-3),))):
            with pytest.raises(ValueError, match="infinite end must be"):
                PiecewisePoly(bps, cfs)

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
        want = np.array([scalar_rate(p, float(y)) for y in ys])
        assert got.tobytes() == want.tobytes()
        assert np.array([p(float(y)) for y in ys]).tobytes() == want.tobytes()
        # any shape, evaluated entrywise
        grid = ys[:480].reshape(80, 6)
        assert np.array_equal(p.values(grid), want[:480].reshape(80, 6))
        assert not PiecewisePoly.zero().values(ys).any()

    @pytest.mark.parametrize("breakpoints, coeffs", [
        ((0.0, 1.0, 2.0), ((0.2, 0.1), (0.3, -0.05))),
        ((0.0, 1.0, 2.0), ((0.2, 0.1, -0.7), (0.3, -0.05, 0.4))),
        ((0.0, 1.0, 2.0), ((), ())),
        ((0.0, 1.0, 2.0), ((0.3,), ())),
        # the short piece's missing powers overflow; they must add nothing
        ((0.0, 1e300, 1.5e300), ((1.0,), (0.3, 2.0, 0.5, 1.0))),
    ])
    def test_array_values_equal_scalar_calls_any_lengths(self, breakpoints,
                                                         coeffs):
        p = PiecewisePoly(breakpoints, coeffs)
        lo, hi = p.support
        ys = np.concatenate((np.linspace(lo - 1.0, hi, 301), p.breakpoints,
                             np.nextafter(p.breakpoints, -np.inf),
                             [np.nan, np.inf, -np.inf]))
        with np.errstate(over="ignore", invalid="ignore"):
            got = p.values(ys)
            calls = np.array([p(float(y)) for y in ys])
            want = np.array([scalar_rate(p, float(y)) for y in ys])
        assert got.tobytes() == want.tobytes()
        assert calls.tobytes() == want.tobytes()

    @pytest.mark.parametrize("config", sorted(
        str(path.relative_to(ROOT)) for pattern in ("configs/*.json",
                                                    "perfbench/configs/*.json")
        for path in ROOT.glob(pattern)))
    def test_cost_spec_evaluates_each_rate_once(self, config, monkeypatch):
        # the sampled bounds take one array evaluation per rate and no
        # call on single points
        from levydam.cli import build_costs
        values, calls = [], []
        array_values = PiecewisePoly.values

        def spy(self, ys):
            values.append(self)
            return array_values(self, ys)

        monkeypatch.setattr(PiecewisePoly, "values", spy)
        monkeypatch.setattr(PiecewisePoly, "__call__",
                            lambda self, y: calls.append(self))
        costs = build_costs(json.loads((ROOT / config).read_text())["costs"])
        assert [id(p) for p in values] == [id(costs.g), id(costs.g_star)]
        assert calls == []

    def test_bound_takes_the_finite_pieces_beside_an_infinite_one(self):
        # 5.0 on [0, 1), 0.2 on [1, inf)
        g = PiecewisePoly((0.0, 1.0, math.inf), ((5.0,), (0.2,)))
        assert g.bound() == 5.0
        with pytest.raises(ValueError, match="declared bound"):
            CostSpec(0.0, 0.0, 0.0, g, PiecewisePoly.zero(), g_bound=1.0)

    def test_bounded_rate_with_an_infinite_left_end_accepted(self):
        # 2.0 on (-inf, 0), 1 + y on [0, 1): bounded by 2
        g = PiecewisePoly((-math.inf, 0.0, 1.0), ((2.0,), (1.0, 1.0)))
        assert g.bound() == 2.0
        CostSpec(0.0, 0.0, 0.0, g, PiecewisePoly.zero(), g_bound=2.0)

    def test_constant_piece_with_an_infinite_end_reads_its_constant(self):
        left = PiecewisePoly((-math.inf, 0.0, 1.0), ((2.0, 0.0), (1.0, 1.0)))
        assert left(-5.0) == 2.0
        assert left.values([-1e300, -5.0, -1e-300]).tolist() == [2.0] * 3
        # no power of the distance to a breakpoint overflows
        right = PiecewisePoly((0.0, 1.0, math.inf),
                              ((1.0, 1.0, 1.0), (3.0, 0.0, 0.0)))
        assert right.values([1.0, 7.0, 1e300]).tolist() == [3.0] * 3
        both = PiecewisePoly((-math.inf, math.inf), ((0.5, 0.0),))
        assert both.values([-1e300, 0.0, 1e300]).tolist() == [0.5] * 3
        assert both.bound() == 0.5

    def test_support_leaves_out_a_zero_infinite_piece(self):
        # 0 on (-inf, 0) adds nothing; 0.2 on [1, inf) may reach inf
        g = PiecewisePoly((-math.inf, 0.0, 1.0, math.inf),
                          ((0.0,), (5.0,), (0.2,)))
        assert g.support == (0.0, math.inf)
        g = PiecewisePoly((-math.inf, 0.0, 1.0, math.inf),
                          ((0.3,), (5.0,), (0.0,)))
        assert g.support == (-math.inf, 1.0)

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
        assert FillPhase(s, 2.0, True).cost(0.5, PiecewisePoly.zero()) == 0.0
        s_M = ScaleFunctionSet(CP.shifted(2.0), 0.5)
        assert ReleasePhase(s_M, 0.5, 4.0).cost(3.0, PiecewisePoly.zero()) == 0.0

    @pytest.mark.parametrize("model", [CP, BM])
    def test_unit_rate_matches_transform_identity(self, model):
        alpha = 0.5
        s = ScaleFunctionSet(model, alpha)
        one = PiecewisePoly.constant(1.0, 0.0, 2.0)
        got = FillPhase(s, 2.0, True).cost(0.5, one)
        want = (1.0 - FillPhase(s, 2.0, True).exit_lt(0.5)) / alpha
        assert got == pytest.approx(want, abs=1e-7)

    @pytest.mark.parametrize("model", [CP, BM])
    def test_unit_rate_release_matches_transform_identity(self, model):
        alpha = 0.5
        s_M = ScaleFunctionSet(model.shifted(2.0), alpha)
        one = PiecewisePoly.constant(1.0, 0.5, 4.0)
        got = ReleasePhase(s_M, 0.5, 4.0).cost(4.0, one)
        want = (1.0 - ReleasePhase(s_M, 0.5, 4.0).exit_lt(4.0)) / alpha
        assert got == pytest.approx(want, abs=1e-7)

    def test_fill_cost_includes_atom_for_bounded_variation(self):
        # constant rate on [0, lam): dropping the atom at zero must change it
        alpha = 0.5
        s = ScaleFunctionSet(CP, alpha)
        one = PiecewisePoly.constant(1.0, 0.0, 2.0)
        fill = FillPhase(s, 2.0, True)
        with_atom = fill.cost(0.5, one)
        shifted = PiecewisePoly.constant(1.0, 1e-9, 2.0)  # misses y = 0
        without = fill.cost(0.5, shifted)
        assert with_atom > without + 1e-4


class TestFillFromThreshold:
    """A fill started at the threshold has length zero: transform 1, mean 0,
    a unit atom at the threshold as its overshoot law and no cost; a cycle
    from there is a release from the threshold."""

    @pytest.mark.parametrize("model, reflected", [
        (CP, True), (CP, False), (BM, True), (GammaDrift(1.0, 3.0, 2.0), False)])
    def test_length_zero(self, model, reflected):
        s0, s = ScaleFunctionSet(model, 0.0), ScaleFunctionSet(model, 0.5)
        assert FillPhase(s0, 2.0, reflected).exit_mean(2.0) == 0.0
        fill = FillPhase(s, 2.0, reflected)
        assert fill.exit_lt(2.0) == 1.0
        law = fill.overshoot_law(2.0)
        assert law.atom_at_lambda == 1.0 and law.total_mass() == 1.0
        assert fill.cost(2.0, G) == 0.0
        ev = evaluator(model, reflected=reflected)
        assert ev.cycle_end_lt(0.5, 2.0) == ev.release_exit_lt(0.5, 2.0)


class TestCycleCost:
    def test_all_zero(self):
        assert evaluator(CP, ZERO).cycle_cost(0.5, 0.5) == pytest.approx(0.0)

    def test_rejects_zero_alpha(self):
        with pytest.raises(ValueError):
            evaluator(CP).cycle_cost(0.0, 0.5)

    def test_charges_only_configuration(self):
        # g = g* = 0, R = 0: cost is M (K2 + K1 q_fill) below the threshold
        spec = CostSpec(1.0, 0.5, 0.0, PiecewisePoly.zero(), PiecewisePoly.zero())
        alpha, x = 0.5, 0.5
        ev = evaluator(CP, spec)
        got = ev.cycle_cost(alpha, x)
        q = FillPhase(ev.fill_set(alpha), 2.0, True).exit_lt(x)
        assert got == pytest.approx(2.0 * (0.5 + 1.0 * q), abs=1e-7)

    def test_release_phase_start(self):
        # lam < x <= V only sees the opening charge, reward and g*
        alpha, x = 0.5, 3.0
        ev = evaluator(CP)
        got = ev.cycle_cost(alpha, x)
        s_M = ev.release_set(alpha)
        rel_lt = ReleasePhase(s_M, 0.5, 4.0).exit_lt(x)
        want = (2.0 * (1.0 - 0.3 * (1.0 - rel_lt) / alpha)
                + ReleasePhase(s_M, 0.5, 4.0).cost(x, G_STAR))
        assert got == pytest.approx(want, rel=1e-10)

    def test_brownian_composition_reduces_to_release_at_threshold(self):
        # continuous input: the overshoot composition is exactly the release
        # cost started at the threshold
        alpha, x = 0.5, 0.8
        ev = evaluator(BM)
        s, s_M = ev.fill_set(alpha), ev.release_set(alpha)
        got = ev.cycle_cost(alpha, x)
        q = FillPhase(s, 2.0, True).exit_lt(x)
        q_cycle = ev.cycle_end_lt(alpha, x)
        want = (2.0 * (0.5 + 1.0 * q - (0.3 / alpha) * (q - q_cycle))
                + FillPhase(s, 2.0, True).cost(x, G)
                + q * ReleasePhase(s_M, 0.5, 4.0).cost(2.0, G_STAR))
        assert got == pytest.approx(want, rel=1e-9)


class TestTotalDiscounted:
    def test_all_zero(self):
        assert evaluator(CP, ZERO).total_discounted(0.5, 0.5) == 0.0

    def test_geometric_identity_at_tau(self):
        ev = PolicyEvaluator(CP, POLICY, COSTS)
        alpha = 0.5
        c_tau = ev.cycle_cost(alpha)
        q_tau = ev.cycle_end_lt(alpha)
        assert ev.total_discounted(alpha) == pytest.approx(
            c_tau / (1.0 - q_tau), rel=1e-12)

    def test_monotone_in_opening_charge(self):
        bumped = CostSpec(K1=1.5, K2=0.5, R=0.3, g=G, g_star=G_STAR)
        base = evaluator(CP).total_discounted(0.5, 0.5)
        more = evaluator(CP, bumped).total_discounted(0.5, 0.5)
        assert more > base + 1e-6

    def test_cycle_transform_of_one_raises(self, monkeypatch):
        # in range, but the geometric series over cycles would diverge
        monkeypatch.setattr(PolicyEvaluator, "cycle_end_lt",
                            lambda self, alpha, x=None: 1.0 - 1e-13)
        with pytest.raises(ConvergenceError, match="numerically 1"):
            evaluator(CP).total_discounted(0.5)

    @pytest.mark.xfail(
        strict=True, raises=ConvergenceError,
        reason="the release potential's Z(V - x) W(y - tau) overflows, and "
               "exp itself where eta V > 709: needs the bounded interface of "
               "ROADMAP item 8 and the root sums of item 2")
    @pytest.mark.parametrize("V", [1000.0, 2500.0])
    @pytest.mark.parametrize("model", [brownian(1.0, 1.0), CP],
                             ids=["brownian", "compound_poisson"])
    def test_large_capacity_matches_moderate(self, model, V):
        # the discounted twin of the long-run test below: from lambda = 2
        # the release phase of drift -1 almost never climbs to V = 50, so a
        # larger capacity must give the same cost; dividing by Z(V - tau)
        # first is no remedy, it returns -1.09e153 for Brownian input here
        g = PiecewisePoly((0.0, 5000.0), ((1.0,),))
        costs = CostSpec(1.0, 0.5, 0.2, g, g)
        with np.errstate(all="ignore"):
            vals = [PolicyEvaluator(model, PolicyParams(2.0, 0.5, 2.0, cap),
                                    costs).total_discounted(0.5)
                    for cap in (50.0, V)]
        assert vals[1] == pytest.approx(vals[0], rel=1e-6)


class TestLongRunAverage:
    def test_all_zero(self):
        assert evaluator(CP, ZERO).long_run_average() == pytest.approx(0.0)

    def test_independent_of_start_state(self):
        # the long-run average takes no start state; the Abelian limit of
        # the discounted cost from inside the fill and from inside the
        # release phase must both reach it
        ev = PolicyEvaluator(CP, POLICY, COSTS)
        lra = ev.long_run_average()
        for x in (1.5, 3.0):
            assert _abelian_limit(ev, x) == pytest.approx(lra, rel=1e-3), x

    def test_plain_input_with_downward_drift_rejected(self):
        with pytest.raises(ValueError):
            evaluator(CP, reflected=False).long_run_average()

    def test_infinite_capacity_slow_release_rejected(self):
        heavy = compound_poisson_exp(2.0, 1.0, 4.0)  # mean inflow +2
        policy = PolicyParams(lam=2.0, tau=0.5, M=1.0, V=math.inf)
        with pytest.raises(ValueError):
            evaluator(heavy, policy=policy).long_run_average()

    @pytest.mark.parametrize("model", [CP, BM])
    def test_abelian_limit(self, model):
        ev = PolicyEvaluator(model, POLICY, COSTS)
        lra = ev.long_run_average()
        assert _abelian_limit(ev, POLICY.tau) == pytest.approx(lra, rel=1e-3)

    def test_large_capacity_matches_moderate(self):
        # from lambda = 2 the release phase of drift -1 almost never climbs
        # to V = 50, so a capacity of 1000 or 2500 must give the same
        # average; the maintenance rate, whose support reaches V, is what
        # brings the large scale functions into the integrand
        for model, V in ((brownian(1.0, 1.0), 1000.0), (CP, 2500.0)):
            g = PiecewisePoly((0.0, 2.0 * V), ((1.0,),))
            costs = CostSpec(1.0, 0.5, 0.2, g, g)
            lra = [PolicyEvaluator(model, PolicyParams(2.0, 0.5, 2.0, cap),
                                   costs).long_run_average()
                   for cap in (50.0, V)]
            assert lra[1] == pytest.approx(lra[0], rel=1e-9), model


def _abelian_limit(ev, x):
    """alpha * total_discounted(alpha, x) as alpha -> 0, by Richardson
    extrapolation over alpha = 1e-2, 1e-3, 1e-4."""
    vals = [a * ev.total_discounted(a, x) for a in (1e-2, 1e-3, 1e-4)]
    first = (10 * vals[1] - vals[0]) / 9
    second = (10 * vals[2] - vals[1]) / 9
    return (100 * second - first) / 99


class TestEvaluatorSharing:
    """One evaluator shares its phases, scale sets and overshoot laws across
    quantities, and each quantity equals the same method on an evaluator of
    its own, bit for bit."""

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
    def test_methods_equal_fresh_evaluators(self, case):
        model, reflected, costs = self.CASES[case]
        alpha = 0.5
        calls = {
            "fill_exit_lt": lambda ev: ev.fill_exit_lt(alpha),
            "fill_exit_mean": lambda ev: ev.fill_exit_mean(),
            "release_exit_lt": lambda ev: ev.release_exit_lt(alpha, 3.0),
            "release_exit_mean": lambda ev: ev.release_exit_mean(3.0),
            "mean_release_time": lambda ev: ev.mean_release_time(),
            "mean_cycle_length": lambda ev: ev.mean_cycle_length(),
            "long_run_average": lambda ev: ev.long_run_average(),
            "cycle_cost": lambda ev: ev.cycle_cost(alpha),
            "cycle_end_lt": lambda ev: ev.cycle_end_lt(alpha),
            "total_discounted": lambda ev: ev.total_discounted(alpha),
            "overshoot_mass": lambda ev: ev.overshoot_law(alpha).total_mass(),
        }
        ev = PolicyEvaluator(model, POLICY, costs, reflected=reflected)
        # one evaluator, in an order that reuses laws the earlier calls built
        got = {name: call(ev) for name, call in calls.items()}
        for name, call in calls.items():
            fresh = PolicyEvaluator(model, POLICY, costs, reflected=reflected)
            assert got[name] == call(fresh), name
        assert set(ev._fills) == set(ev._releases) == {0.0, alpha}

    def test_sets_span_what_every_method_evaluates(self):
        # infinite capacity: the release potential reaches W(y - tau) for y
        # up to the end of g_star's support, here beyond lam + 10
        g_star = PiecewisePoly((0.5, 15.0), ((0.1, 0.05),))
        costs = CostSpec(1.0, 0.5, 0.3, G, g_star)
        policy = PolicyParams(lam=2.0, tau=0.5, M=2.0)
        ev = PolicyEvaluator(CP, policy, costs)
        alpha = 0.5
        for x in (None, 0.0, 1.0, 2.0, 5.0, 20.0):
            assert math.isfinite(ev.cycle_cost(alpha, x))
            assert 0.0 < ev.cycle_end_lt(alpha, x) < 1.0
            assert math.isfinite(ev.total_discounted(alpha, x))
        for x in (None, 0.0, 1.0, 2.0):
            assert 0.0 < ev.fill_exit_lt(alpha, x) <= 1.0
            assert 0.0 <= ev.fill_exit_mean(x) < math.inf
            assert ev.overshoot_law(alpha, x).total_mass() > 0.0
        for z in (0.5, 3.0, 20.0):
            assert 0.0 < ev.release_exit_lt(alpha, z) <= 1.0
            assert 0.0 <= ev.release_exit_mean(z) < math.inf
        assert math.isfinite(ev.mean_release_time())
        assert math.isfinite(ev.mean_cycle_length())
        assert math.isfinite(ev.long_run_average())

    def test_thresholds_share_one_set_per_phase_and_rate(self):
        # a set depends on the model, M and alpha only, so evaluators of any
        # lam and V share it, and give a fresh evaluator's values
        sets = {}
        for lam, V in ((1.0, 4.0), (2.0, 4.0), (2.0, 9.0), (3.0, math.inf)):
            policy = PolicyParams(lam=lam, tau=0.5, M=2.0, V=V)
            ev = PolicyEvaluator(CP, policy, COSTS, scale_sets=sets)
            fresh = PolicyEvaluator(CP, policy, COSTS)
            assert ev.long_run_average() == fresh.long_run_average()
            assert ev.total_discounted(0.5) == fresh.total_discounted(0.5)
            for alpha in (0.0, 0.5):
                assert ev.fill_set(alpha) is sets["fill", alpha]
                assert ev.release_set(alpha) is sets["release", alpha]
        assert len(sets) == 4

    def test_negative_start_state_rejected(self):
        ev = evaluator(CP)
        for call in (lambda: ev.fill_exit_lt(0.5, -0.1),
                     lambda: ev.fill_exit_mean(-0.1),
                     lambda: ev.overshoot_law(0.5, -0.1),
                     lambda: ev.cycle_end_lt(0.5, -0.1),
                     lambda: ev.cycle_cost(0.5, -0.1),
                     lambda: ev.total_discounted(0.5, -0.1)):
            with pytest.raises(ValueError, match="nonnegative"):
                call()

    def test_fill_overshoot_law_built_once_per_set(self):
        s = ScaleFunctionSet(CP, 0.5)
        fill = FillPhase(s, 2.0, True)
        law = fill.overshoot_law(0.5)
        assert fill.overshoot_law(0.5) is law
        assert fill.overshoot_law(0.7) is not law
        other = FillPhase(ScaleFunctionSet(CP, 0.5), 2.0, True).overshoot_law(0.5)
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
        law = exits.FillPhase(s, 2.0, True).overshoot_law(0.5)
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

    def test_verify_integrates_the_mass_above_capacity_once_per_law(self):
        # the lump at V of each law's expectations is one integral per
        # (law, V); it was recomputed on every expectation, 7 integrals on
        # 2 pairs per report of this config
        from collections import Counter

        from levydam import OvershootLaw
        from levydam.cli import cmd_verify

        cfg = json.loads((ROOT / "perfbench/configs/verify_cp.json").read_text())
        above = Counter()
        real = OvershootLaw.density_mass

        def counting(self, lo=None, hi=None):
            if lo is not None:
                above[(id(self), lo)] += 1
            return real(self, lo, hi)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(OvershootLaw, "density_mass", counting)
            cmd_verify(cfg, paths=1200)
        assert above and set(above.values()) == {1}, above

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
