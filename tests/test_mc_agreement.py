"""Analytic quantities against the path oracle at module-test scale.

The acceptance suite runs the headline comparisons at full path counts;
these cover the remaining analytic surfaces (full cycle transform, the
subordinator families, reflected occupation measure, jump diffusion input)
at smaller n.
"""

import math

import numpy as np
import pytest

from levydam import (
    BrownianDrift,
    CostSpec,
    ExponentialJumps,
    FillPhase,
    GammaDrift,
    PiecewisePoly,
    PolicyEvaluator,
    PolicyParams,
    ScaleFunctionSet,
    brownian,
    compound_poisson_exp,
    estimate,
    potential_reflected,
    run_policy_cycles,
    simulate_input_path,
    simulate_total_discounted,
)
from levydam.simulate import PathConfig, path_rng, simulate_fill_phase

CP = compound_poisson_exp(2.0, 1.0, 1.0)
POLICY = PolicyParams(lam=2.0, tau=0.5, M=2.0, V=4.0)
COSTS = CostSpec(
    K1=1.0, K2=0.5, R=0.3,
    g=PiecewisePoly((0.0, 2.0), ((0.2, 0.1),)),
    g_star=PiecewisePoly((0.5, 4.0), ((0.1, 0.05),)),
)


@pytest.fixture(scope="module")
def records():
    return run_policy_cycles(CP, POLICY, COSTS,
                             PathConfig(n_paths=20_000, seed=11),
                             reflected=True, alphas=[0.5])


@pytest.fixture(scope="module")
def evaluator():
    return PolicyEvaluator(CP, POLICY, COSTS, reflected=True)


class TestFullCycleAgreement:
    def test_fill_transform(self, records, evaluator):
        est = estimate("e_fill", records.e_fill[0.5])
        assert est.agrees_with(evaluator.fill_exit_lt(0.5))

    def test_cycle_transform(self, records, evaluator):
        est = estimate("e_cycle", records.e_cycle[0.5])
        assert est.agrees_with(evaluator.cycle_end_lt(0.5))

    def test_cycle_cost(self, records, evaluator):
        est = estimate("cost", records.cycle_cost_samples(COSTS, 0.5))
        assert est.agrees_with(evaluator.cycle_cost(0.5))

    def test_mean_release_time(self, records, evaluator):
        est = estimate("release", records.release_time)
        assert est.agrees_with(evaluator.mean_release_time())

    def test_output_volume_accounting(self, records):
        assert np.allclose(records.output_volume,
                           POLICY.M * records.release_time)


class TestSubordinatorFamilies:
    def test_gamma_reflected_fill_mean(self):
        model = GammaDrift(1.0, 1.0, 2.0)
        s0 = ScaleFunctionSet(model, 0.0)
        analytic = FillPhase(s0, 1.0, True).exit_mean(0.2)
        times, _, partial = simulate_fill_phase(
            model, 0.2, 1.0, PathConfig(time_step=5e-4, n_paths=20_000,
                                        seed=29), reflected=True)
        assert partial == 0
        est = estimate("gamma_fill", times)
        # grid-resolution crossing detection biases upward by O(dt)
        assert abs(est.mean - analytic) < 3 * est.std_error + 5e-3

    def test_gamma_input_path_mean(self):
        model = GammaDrift(1.0, 1.0, 2.0)
        cfg = PathConfig(time_step=0.05, n_paths=1, seed=3)
        vals = np.array([simulate_input_path(model, cfg, 1.0, i).values[-1]
                         for i in range(3000)])
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - model.mean_input()) < 3 * se


class TestJumpDiffusion:
    def test_input_path_mean(self):
        model = BrownianDrift(0.5, 1.0, 0.8, ExponentialJumps(0.5))
        cfg = PathConfig(time_step=5e-3, n_paths=1, seed=19)
        vals = np.array([simulate_input_path(model, cfg, 1.0, i).values[-1]
                         for i in range(3000)])
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - model.mean_input()) < 3 * se

    def test_fill_transform_with_creeping_and_jumps(self):
        model = BrownianDrift(0.5, 1.0, 0.8, ExponentialJumps(0.5))
        s = ScaleFunctionSet(model, 0.4)
        analytic = FillPhase(s, 1.2, True).exit_lt(0.2)
        times, states, _ = simulate_fill_phase(
            model, 0.2, 1.2, PathConfig(time_step=5e-4, n_paths=20_000,
                                        seed=43), reflected=True)
        est = estimate("jd_fill", np.exp(-0.4 * times))
        assert abs(est.mean - analytic) < 3 * est.std_error + 2e-3
        # both creeping and jump crossings occur
        assert np.any(states == 1.2) and np.any(states > 1.2)


class TestReflectedOccupation:
    def test_potential_density_against_occupation(self):
        # reflected Brownian fill phase: expected discounted occupation of
        # a band against the integrated potential density
        model = brownian(1.0, 2.0)
        alpha, lam, x0 = 0.5, 1.5, 0.4
        s = ScaleFunctionSet(model, alpha)
        pot = potential_reflected(s, lam)
        band = (0.5, 0.9)
        analytic = pot.integrate(x0, lambda y: 1.0, lo=band[0], hi=band[1])
        rng = path_rng(7, 0)
        n, dt = 3000, 2e-4
        sig = math.sqrt(2.0 * dt)
        occ = np.zeros(n)
        for i in range(n):
            y, t, total = x0, 0.0, 0.0
            while y < lam:
                if band[0] <= y <= band[1]:
                    total += math.exp(-alpha * t) * dt
                y = max(y + rng.normal(dt, sig), 0.0)
                t += dt
            occ[i] = total
        se = occ.std(ddof=1) / math.sqrt(n)
        assert abs(occ.mean() - analytic) < 3 * se + 2e-3


class TestTotalDiscounted:
    """The discounted oracle books what falls due before its discount floor,
    a cycle still open there included, and ends a fill from the threshold
    at time 0."""

    # the costs of acceptance criterion 9
    COSTS = CostSpec(
        K1=1.0, K2=0.5, R=0.3,
        g=PiecewisePoly((0.0, 1.0, 2.0), ((0.2, 0.1), (0.3, -0.05))),
        g_star=PiecewisePoly((0.5, 2.0, 4.0), ((0.1, 0.05), (0.175, -0.02))))
    CHARGES = CostSpec(1.0, 0.5, 0.3, PiecewisePoly.zero(),
                       PiecewisePoly.zero())

    def test_plain_fill_open_at_the_floor(self):
        # compound Poisson input drifts down: many plain fills never reach
        # the threshold, and their closing charge and maintenance still count
        ev = PolicyEvaluator(CP, POLICY, self.COSTS, reflected=False)
        mc = simulate_total_discounted(CP, POLICY, self.COSTS, 0.5, 0.5,
                                       PathConfig(n_paths=4000, seed=3),
                                       reflected=False)
        assert mc.agrees_with(ev.total_discounted(0.5, 0.5))

    @pytest.mark.parametrize("model, reflected, alpha, costs, config", [
        (CP, True, 0.5, "COSTS", PathConfig(n_paths=4000, seed=3)),
        (brownian(1.0, 2.0), True, 2.0, "CHARGES",
         PathConfig(time_step=2e-3, n_paths=2000, seed=5)),
        (GammaDrift(1.0, 3.0, 2.0), False, 2.0, "CHARGES",
         PathConfig(time_step=1e-2, n_paths=2000, seed=5)),
    ], ids=["cp", "brownian", "gamma"])
    def test_start_at_the_threshold(self, model, reflected, alpha, costs,
                                    config):
        costs = getattr(self, costs)
        ev = PolicyEvaluator(model, POLICY, costs, reflected=reflected)
        mc = simulate_total_discounted(model, POLICY, costs, alpha, POLICY.lam,
                                       config, reflected=reflected)
        assert mc.agrees_with(ev.total_discounted(alpha, POLICY.lam))
