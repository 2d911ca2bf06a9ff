import math

import numpy as np
import pytest

from levydam import (
    BrownianDrift,
    ExponentialJumps,
    PolicyParams,
    ScaleFunctionSet,
    brownian,
    compound_poisson_exp,
    cycle_end_lt,
    exit_lt_reflected,
    exit_lt_up,
    exit_mean_reflected,
    exit_mean_up,
    fill_overshoot_law,
    overshoot_reflected,
    overshoot_up,
    potential_reflected,
    potential_release,
    potential_two_sided,
    potential_up_killed,
    release_exit_lt,
    release_exit_mean,
    shifted_scale_set,
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
        s_M = shifted_scale_set(compound_poisson_exp(2.0, 1.0, 1.0), 2.0, 0.4)
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
            total = alpha * pot.mass(x) + exit_lt_up(s_bm, x, lam)
            assert total == pytest.approx(1.0, abs=1e-6)

        for s in (s_bm, s_cp):
            pot = potential_reflected(s, lam)
            for x in np.linspace(0.0, 1.3, 5):
                total = alpha * pot.mass(x) + exit_lt_reflected(s, x, lam)
                assert total == pytest.approx(1.0, abs=1e-6)

        tau, V = 0.5, 4.0
        for model in (bm, cp):
            s_M = shifted_scale_set(model, 2.0, alpha)
            pot = potential_release(s_M, tau, V)
            for x in np.linspace(0.6, 4.0, 5):
                total = alpha * pot.mass(x) + release_exit_lt(s_M, x, tau, V)
                assert total == pytest.approx(1.0, abs=1e-6)

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


class TestExitTransforms:
    def test_wiener_transform_unit_variance_form(self):
        # sigma2 = 1: exp((delta - mu)(x - lam))
        s = ScaleFunctionSet(brownian(1.0, 1.0), 0.5)
        assert exit_lt_up(s, 0.0, 1.0) == pytest.approx(
            math.exp(1.0 - math.sqrt(2.0)), rel=1e-12)

    def test_wiener_transform_general_variance(self):
        mu, sig2, alpha, lam, x = 1.0, 2.0, 0.5, 1.5, 0.2
        delta = math.sqrt(2 * alpha * sig2 + mu * mu)
        s = ScaleFunctionSet(brownian(mu, sig2), alpha)
        assert exit_lt_up(s, x, lam) == pytest.approx(
            math.exp((delta - mu) * (x - lam) / sig2), rel=1e-12)

    def test_wiener_exit_mean(self):
        s0 = ScaleFunctionSet(brownian(1.0, 1.0), 0.0)
        assert exit_mean_up(s0, 0.0, 2.0) == pytest.approx(2.0, rel=1e-10)

    def test_exit_mean_infinite_for_downward_drift(self):
        s0 = ScaleFunctionSet(compound_poisson_exp(2.0, 1.0, 1.0), 0.0)
        assert exit_mean_up(s0, 0.0, 2.0) == math.inf

    def test_boundary_limit_unbounded_variation(self):
        s = ScaleFunctionSet(brownian(1.0, 2.0), 0.5)
        assert exit_lt_up(s, 1.0 - 1e-12, 1.0) == pytest.approx(1.0, abs=1e-9)

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
            assert exit_lt_reflected(s, x, lam) == pytest.approx(display,
                                                                 rel=1e-12)

    def test_reflected_alpha_zero_is_one(self):
        s = ScaleFunctionSet(compound_poisson_exp(2.0, 1.0, 1.0), 0.0)
        assert exit_lt_reflected(s, 0.5, 2.0) == 1.0

    def test_reflected_mean_driftless(self):
        s0 = ScaleFunctionSet(brownian(0.0, 1.0), 0.0)
        assert exit_mean_reflected(s0, 0.0, 1.0) == pytest.approx(1.0, rel=1e-10)
        assert exit_mean_reflected(s0, 0.5, 1.0) == pytest.approx(0.75, rel=1e-10)

    def test_reflected_mean_with_drift(self):
        mu, sig2, lam = 1.0, 2.0, 1.0
        s0 = ScaleFunctionSet(brownian(mu, sig2), 0.0)
        for x in (0.0, 0.25, 0.7):
            closed = ((lam - x) / mu + sig2 / (2 * mu * mu)
                      * (math.exp(-2 * mu * lam / sig2)
                         - math.exp(-2 * mu * x / sig2)))
            assert exit_mean_reflected(s0, x, lam) == pytest.approx(closed,
                                                                    rel=1e-10)

    def test_transforms_monotone_in_alpha_and_distance(self):
        model = compound_poisson_exp(2.0, 1.0, 1.0)
        sets = [ScaleFunctionSet(model, a) for a in (0.2, 0.5, 1.0)]
        vals = [exit_lt_reflected(s, 0.5, 2.0) for s in sets]
        assert vals[0] > vals[1] > vals[2] > 0
        s = sets[1]
        near, far = exit_lt_reflected(s, 1.5, 2.0), exit_lt_reflected(s, 0.2, 2.0)
        assert near > far

    def test_transforms_within_unit_interval(self):
        for model in (brownian(1.0, 2.0), compound_poisson_exp(2.0, 1.0, 1.0)):
            s = ScaleFunctionSet(model, 0.6)
            for x in (0.0, 0.5, 1.4):
                assert 0.0 < exit_lt_reflected(s, x, 1.5) <= 1.0
                assert 0.0 < exit_lt_up(s, x, 1.5) <= 1.0


class TestReleasePhase:
    def test_start_at_bottom(self):
        s_M = shifted_scale_set(brownian(1.0, 2.0), 2.0, 0.5)
        assert release_exit_lt(s_M, 0.5, 0.5, 4.0) == pytest.approx(1.0)

    def test_alpha_zero(self):
        s_M0 = shifted_scale_set(brownian(1.0, 2.0), 2.0, 0.0)
        assert release_exit_lt(s_M0, 2.0, 0.5, 4.0) == 1.0

    def test_mean_at_bottom_is_zero(self):
        s_M0 = shifted_scale_set(brownian(1.0, 2.0), 2.0, 0.0)
        assert release_exit_mean(s_M0, 0.5, 0.5, 4.0) == pytest.approx(0.0,
                                                                       abs=1e-12)

    def test_infinite_capacity_busy_period(self):
        model = compound_poisson_exp(2.0, 1.0, 1.0)
        s_M0 = shifted_scale_set(model, 2.0, 0.0)
        closed = (1.0 - 0.0) / (2.0 - model.mean_input())
        assert release_exit_mean(s_M0, 1.0, 0.0, math.inf) == pytest.approx(
            closed, rel=1e-12)
        # and the finite-capacity formula converges to it
        for V in (20.0, 40.0):
            val = release_exit_mean(s_M0, 1.0, 0.0, V)
            assert val == pytest.approx(closed, rel=1e-3)

    def test_infinite_capacity_slow_release_diverges(self):
        model = compound_poisson_exp(2.0, 1.0, 4.0)  # mean inflow +2
        s_M0 = shifted_scale_set(model, 1.0, 0.0)
        assert release_exit_mean(s_M0, 1.0, 0.0, math.inf) == math.inf

    def test_transform_slope_matches_mean(self):
        model = compound_poisson_exp(2.0, 1.0, 1.0)
        s_small = shifted_scale_set(model, 2.0, 1e-6)
        s_M0 = shifted_scale_set(model, 2.0, 0.0)
        lt = release_exit_lt(s_small, 2.5, 0.5, 4.0)
        mean = release_exit_mean(s_M0, 2.5, 0.5, 4.0)
        assert (1.0 - lt) / 1e-6 == pytest.approx(mean, rel=1e-4)

    def test_argument_validation(self):
        s_M = shifted_scale_set(brownian(1.0, 2.0), 2.0, 0.5)
        with pytest.raises(ValueError):
            release_exit_lt(s_M, 5.0, 0.5, 4.0)
        with pytest.raises(ValueError):
            release_exit_mean(s_M, 1.0, 0.5, 4.0)  # alpha != 0


class TestOvershootLaws:
    def test_memorylessness_of_exponential_jumps(self):
        s = ScaleFunctionSet(compound_poisson_exp(2.0, 1.0, 1.0), 0.0)
        law = overshoot_up(s, 0.5, 2.0)
        zs = np.array([2.1, 2.6, 3.4, 4.5])
        dens = np.array([law.density(z) for z in zs])
        ratios = dens / np.exp(-(zs - 2.0))
        assert np.max(np.abs(ratios / ratios[0] - 1.0)) < 1e-6

    def test_total_mass_matches_exit_transform_plain(self):
        s = ScaleFunctionSet(compound_poisson_exp(2.0, 1.0, 1.0), 0.3)
        law = overshoot_up(s, 0.5, 2.0)
        assert law.total_mass() == pytest.approx(exit_lt_up(s, 0.5, 2.0),
                                                 abs=1e-6)
        assert law.atom_at_lambda == 0.0  # no creeping without a diffusion part

    def test_total_mass_matches_exit_transform_reflected(self):
        s = ScaleFunctionSet(compound_poisson_exp(2.0, 1.0, 1.0), 0.3)
        law = overshoot_reflected(s, 0.5, 2.0)
        assert law.total_mass() == pytest.approx(
            exit_lt_reflected(s, 0.5, 2.0), abs=1e-6)

    def test_pure_brownian_up_is_rejected(self):
        s = ScaleFunctionSet(brownian(1.0, 2.0), 0.5)
        with pytest.raises(ValueError):
            overshoot_up(s, 0.5, 2.0)

    def test_pure_brownian_reflected_is_atom(self):
        s = ScaleFunctionSet(brownian(1.0, 2.0), 0.5)
        law = overshoot_reflected(s, 0.5, 2.0)
        assert law.atom_at_lambda == pytest.approx(
            exit_lt_reflected(s, 0.5, 2.0), rel=1e-12)
        assert law.density_mass() == 0.0

    def test_jump_diffusion_creeping_atom(self):
        model = BrownianDrift(0.5, 1.0, 0.8, ExponentialJumps(0.5))
        s = ScaleFunctionSet(model, 0.4)
        law = overshoot_up(s, 0.5, 1.5)
        assert law.atom_at_lambda > 0.0
        assert law.total_mass() == pytest.approx(exit_lt_up(s, 0.5, 1.5),
                                                 abs=1e-6)

    def test_law_nonnegative(self):
        s = ScaleFunctionSet(compound_poisson_exp(2.0, 1.0, 1.0), 0.3)
        law = overshoot_reflected(s, 1.0, 2.0)
        for z in np.linspace(2.01, 6.0, 17):
            assert law.density(z) >= -1e-10


class TestCycleEnd:
    def test_brownian_factorization(self):
        model = brownian(1.0, 2.0)
        policy = PolicyParams(lam=1.0, tau=0.2, M=2.0, V=3.0)
        alpha, x = 0.5, 0.4
        s = ScaleFunctionSet(model, alpha)
        s_M = shifted_scale_set(model, 2.0, alpha)
        q = cycle_end_lt(model, policy, alpha, x, reflected=True, s=s, s_M=s_M)
        factor = (exit_lt_reflected(s, x, 1.0)
                  * release_exit_lt(s_M, 1.0, 0.2, 3.0))
        assert q == pytest.approx(factor, abs=1e-8)

    def test_alpha_zero_is_one_for_reflected_input(self):
        model = compound_poisson_exp(2.0, 1.0, 1.0)
        policy = PolicyParams(lam=2.0, tau=0.5, M=2.0, V=4.0)
        q = cycle_end_lt(model, policy, 0.0, 0.5, reflected=True)
        assert q == pytest.approx(1.0, abs=1e-6)

    def test_above_threshold_falls_through_to_release(self):
        model = compound_poisson_exp(2.0, 1.0, 1.0)
        policy = PolicyParams(lam=2.0, tau=0.5, M=2.0, V=4.0)
        alpha = 0.5
        s_M = shifted_scale_set(model, 2.0, alpha)
        got = cycle_end_lt(model, policy, alpha, 3.0, reflected=True, s_M=s_M)
        assert got == pytest.approx(release_exit_lt(s_M, 3.0, 0.5, 4.0),
                                    rel=1e-12)

    def test_monotone_in_alpha(self):
        model = compound_poisson_exp(2.0, 1.0, 1.0)
        policy = PolicyParams(lam=2.0, tau=0.5, M=2.0, V=4.0)
        vals = [cycle_end_lt(model, policy, a, 0.5, reflected=True)
                for a in (0.897, 0.3, 0.1)]
        assert vals[0] < vals[1] < vals[2] <= 1.0

    def test_infinite_capacity_composition(self):
        model = compound_poisson_exp(2.0, 1.0, 1.0)
        policy = PolicyParams(lam=2.0, tau=0.5, M=2.0, V=math.inf)
        q = cycle_end_lt(model, policy, 0.4, 0.5, reflected=True)
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

    def test_in_range_values_pass_unchanged(self):
        ev = self.evaluator(5.0)
        s = ev.fill_set(0.5)
        assert ev.fill_exit_lt(0.5) == exit_lt_reflected(s, 0.5, 5.0)
        assert 0.0 < ev.fill_exit_lt(0.5) < 1.0
        assert 0.0 < ev.fill_exit_mean() < math.inf
