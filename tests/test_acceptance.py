"""Acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and prints
one pass/fail line on the real stdout (bypassing pytest capture, so the
lines also appear in redirected logs).  The Monte Carlo checks use the
stated path counts; total runtime is dominated by the diffusion simulations.
"""

import math
import sys
import time

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from levydam import (
    CLOSED_FORM,
    LAPLACE_INVERSION,
    CostSpec,
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
    estimate,
    potential_reflected,
    potential_release,
    potential_two_sided,
    potential_up_killed,
    run_policy_cycles,
    simulate_total_discounted,
)
from levydam.simulate import (
    PathConfig,
    simulate_fill_phase,
    simulate_release_phase,
)

CP_MODEL = compound_poisson_exp(2.0, 1.0, 1.0)
BM_MODEL = brownian(1.0, 2.0)
POLICY = PolicyParams(lam=2.0, tau=0.5, M=2.0, V=4.0)
COSTS = CostSpec(
    K1=1.0, K2=0.5, R=0.3,
    g=PiecewisePoly((0.0, 1.0, 2.0), ((0.2, 0.1), (0.3, -0.05))),
    g_star=PiecewisePoly((0.5, 2.0, 4.0), ((0.1, 0.05), (0.175, -0.02))),
)


def report(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_brownian_inversion_matches_closed_form():
    t0 = time.time()
    worst = 0.0
    xs = np.linspace(0.01, 10.0, 150)
    for mu, sig2 in ((1.0, 2.0), (0.5, 1.0)):
        model = brownian(mu, sig2)
        for alpha in (0.0, 0.5, 2.0):
            closed = ScaleFunctionSet(model, alpha,
                                      method=CLOSED_FORM)
            inverted = ScaleFunctionSet(model, alpha,
                                        method=LAPLACE_INVERSION)
            ref = closed.w(xs)
            got = inverted.w(xs)
            worst = max(worst, float(np.max(np.abs(got - ref) / ref)))
    elapsed = time.time() - t0
    report(1, worst < 1e-6 and elapsed < 10.0,
           f"max rel err {worst:.2e} over 6 cases, {elapsed:.1f}s")


def test_criterion_2_wiener_exit_mean():
    t0 = time.time()
    mu, sig2, lam = 1.0, 1.0, 1.0
    model = brownian(mu, sig2)
    s0 = ScaleFunctionSet(model, 0.0)
    analytic = FillPhase(s0, lam, False).exit_mean(0.0)
    formula_ok = abs(analytic - lam / mu) < 1e-10
    times, _, partial = simulate_fill_phase(
        model, 0.0, lam, PathConfig(time_step=1e-3, n_paths=100_000, seed=2),
        reflected=False)
    est = estimate("wiener_exit", times)
    mc_ok = est.agrees_with(lam / mu) and partial == 0
    elapsed = time.time() - t0
    report(2, formula_ok and mc_ok and elapsed < 60.0,
           f"formula err {abs(analytic - 1.0):.1e}, "
           f"mc {est.mean:.4f}+-{est.std_error:.4f}, {elapsed:.0f}s")


def test_criterion_3_reflected_driftless_exit_mean():
    sig2, lam = 1.0, 1.0
    model = brownian(0.0, sig2)
    s0 = ScaleFunctionSet(model, 0.0)
    analytic = FillPhase(s0, lam, True).exit_mean(0.0)
    formula_ok = abs(analytic - lam * lam / sig2) < 1e-8
    times, _, partial = simulate_fill_phase(
        model, 0.0, lam, PathConfig(time_step=1e-3, n_paths=100_000, seed=5),
        reflected=True)
    est = estimate("reflected_exit", times)
    mc_ok = est.agrees_with(lam * lam / sig2) and partial == 0
    report(3, formula_ok and mc_ok,
           f"formula err {abs(analytic - 1.0):.1e}, "
           f"mc {est.mean:.4f}+-{est.std_error:.4f}")


def test_criterion_4_busy_period_limit():
    model = CP_MODEL
    x, tau, M = 1.0, 0.0, 2.0
    closed = (x - tau) / (M - model.mean_input())
    s_M0 = ScaleFunctionSet(model.shifted(M), 0.0)
    exact = ReleasePhase(s_M0, tau, math.inf).exit_mean(x)
    conv_ok = abs(exact - closed) < 1e-12
    for V in (20.0, 40.0):
        val = ReleasePhase(s_M0, tau, V).exit_mean(x)
        conv_ok = conv_ok and abs(val - closed) / closed < 1e-3
    times, partial = simulate_release_phase(
        model, x, tau, math.inf, M, PathConfig(n_paths=100_000, seed=21))
    est = estimate("busy_period", times)
    mc_ok = est.agrees_with(closed) and partial == 0
    report(4, conv_ok and mc_ok,
           f"closed {closed:.6f}, V=40 err "
           f"{abs(ReleasePhase(s_M0, tau, 40.0).exit_mean(x) - closed):.1e}, "
           f"mc {est.mean:.4f}+-{est.std_error:.4f}")


def test_criterion_5_laplace_identity_all_families():
    alpha = 0.5
    families = [
        brownian(1.0, 2.0),
        compound_poisson_exp(2.0, 1.0, 1.0),
        GammaDrift(1.0, 1.0, 2.0),
        InverseGaussianDrift(1.0, 1.0, 2.0),
    ]
    worst = 0.0
    for model in families:
        s = ScaleFunctionSet(model, alpha)
        eta = s.eta_alpha
        for gap in (0.5, 1.0, 2.0):
            beta = eta + gap
            X = 45.0 / gap
            val = quad(lambda x: math.exp(-beta * x) * s.w(x), 0.0, X,
                       limit=400)[0]
            val += math.exp(-beta * X) * s.w(X) / gap
            target = 1.0 / (model.phi(beta) - alpha)
            worst = max(worst, abs(val - target) / abs(target))
    report(5, worst < 1e-5,
           f"max rel err {worst:.2e} over 4 families x 3 transforms")


def test_criterion_6_potential_mass_consistency():
    alpha = 0.4
    worst = 0.0
    s_bm = ScaleFunctionSet(BM_MODEL, alpha)
    s_cp = ScaleFunctionSet(CP_MODEL, alpha)
    a, lam = -1.0, 2.0

    pot = potential_two_sided(s_bm, a, lam)
    for x in np.linspace(-0.5, 1.6, 5):
        up = (s_bm.z(lam - x)
              - s_bm.z(lam - a) * s_bm.w(lam - x) / s_bm.w(lam - a))
        down = s_bm.w(lam - x) / s_bm.w(lam - a)
        worst = max(worst, abs(alpha * pot.mass(x) + up + down - 1.0))

    pot = potential_up_killed(s_bm, lam)
    for x in np.linspace(-0.5, 1.6, 5):
        worst = max(worst,
                    abs(alpha * pot.mass(x)
                        + FillPhase(s_bm, lam, False).exit_lt(x) - 1.0))

    pot = potential_reflected(s_cp, lam)
    for x in np.linspace(0.0, 1.8, 5):
        worst = max(worst, abs(alpha * pot.mass(x)
                               + FillPhase(s_cp, lam, True).exit_lt(x) - 1.0))

    s_M = ScaleFunctionSet(CP_MODEL.shifted(2.0), alpha)
    pot = potential_release(s_M, 0.5, 4.0)
    for x in np.linspace(0.6, 3.9, 5):
        worst = max(worst, abs(alpha * pot.mass(x)
                               + ReleasePhase(s_M, 0.5, 4.0).exit_lt(x) - 1.0))
    report(6, worst < 1e-6, f"max |alpha*mass + transform - 1| = {worst:.2e}")


def test_criterion_7_overshoot_memorylessness():
    model = CP_MODEL
    lam, x = 2.0, 0.5
    s0 = ScaleFunctionSet(model, 0.0)

    # analytic law: the normalised overshoot density must be Exp(1)
    law_up = FillPhase(s0, lam, False).overshoot_law(x)
    mass_up = law_up.total_mass()
    zs = np.linspace(2.05, 6.0, 9)
    dens = np.array([law_up.density(z) for z in zs]) / mass_up
    exp_err = float(np.max(np.abs(dens - np.exp(-(zs - lam)))))
    mass_up_err = abs(mass_up - FillPhase(s0, lam, False).exit_lt(x))

    law_refl = FillPhase(s0, lam, True).overshoot_law(x)
    mass_refl_err = abs(law_refl.total_mass()
                        - FillPhase(s0, lam, True).exit_lt(x))

    _, states, _ = simulate_fill_phase(
        model, x, lam, PathConfig(n_paths=100_000, seed=23), reflected=True)
    ks = stats.kstest(states - lam, "expon")
    report(7, exp_err < 1e-6 and mass_up_err < 1e-6 and mass_refl_err < 1e-6
           and ks.pvalue > 0.01,
           f"analytic exp err {exp_err:.1e}, mass errs {mass_up_err:.1e}/"
           f"{mass_refl_err:.1e}, KS p={ks.pvalue:.3f} (n={len(states)})")


def test_criterion_8_cycle_factorization_continuous_input():
    model = BM_MODEL
    alpha = 0.5
    worst = 0.0
    ev = PolicyEvaluator(model, POLICY, COSTS, reflected=True)
    s, s_M = ev.fill_set(alpha), ev.release_set(alpha)
    for x in (0.2, 0.8, 1.5):
        q = ev.cycle_end_lt(alpha, x)
        factor = (FillPhase(s, POLICY.lam, True).exit_lt(x)
                  * ReleasePhase(s_M, POLICY.tau, POLICY.V).exit_lt(
                      POLICY.lam))
        worst = max(worst, abs(q - factor))
    report(8, worst < 1e-8, f"max |composed - factorized| = {worst:.2e}")


@pytest.fixture(scope="module")
def cp_cycles():
    return run_policy_cycles(CP_MODEL, POLICY, COSTS,
                             PathConfig(n_paths=10_000, seed=31),
                             reflected=True, alphas=[0.5])


@pytest.fixture(scope="module")
def bm_cycles():
    return run_policy_cycles(BM_MODEL, POLICY, COSTS,
                             PathConfig(time_step=1e-3, n_paths=10_000,
                                        seed=37),
                             reflected=True, alphas=[0.5])


def test_criterion_9_cost_cross_validation(cp_cycles, bm_cycles):
    t0 = time.time()
    alpha = 0.5
    lines = []
    ok = True
    for name, model, cycles, dt, n_disc in (
            ("compound_poisson", CP_MODEL, cp_cycles, 1e-3, 10_000),
            ("reflected_brownian", BM_MODEL, bm_cycles, 5e-4, 8_000)):
        ev = PolicyEvaluator(model, POLICY, COSTS, reflected=True)
        lra = ev.long_run_average()
        cost_s, len_s = cycles.average_cost_samples(COSTS)
        lra_est = estimate("lra", cost_s, len_s)
        lra_ok = lra_est.agrees_with(lra)

        total = ev.total_discounted(alpha)
        mc = simulate_total_discounted(
            model, POLICY, COSTS, alpha, POLICY.tau,
            PathConfig(time_step=dt, n_paths=n_disc, seed=41), reflected=True)
        total_ok = mc.agrees_with(total)
        ok = ok and lra_ok and total_ok
        lines.append(f"{name}: lra z={(lra - lra_est.mean)/lra_est.std_error:+.2f}, "
                     f"total z={(total - mc.mean)/mc.std_error:+.2f}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 300.0
    report(9, ok, "; ".join(lines) + f", {elapsed:.0f}s")


def test_criterion_10_abelian_limit():
    worst = 0.0
    for model in (CP_MODEL, BM_MODEL):
        ev = PolicyEvaluator(model, POLICY, COSTS, reflected=True)
        lra = ev.long_run_average()
        vals = [a * ev.total_discounted(a) for a in (1e-2, 1e-3, 1e-4)]
        first = (10 * vals[1] - vals[0]) / 9
        second = (10 * vals[2] - vals[1]) / 9
        extrap = (100 * second - first) / 99
        worst = max(worst, abs(extrap - lra) / abs(lra))
    report(10, worst < 1e-3, f"max rel gap {worst:.2e} over 2 configurations")
