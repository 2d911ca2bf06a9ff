import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special, stats
from scipy.integrate import quad

from levydam import (
    BrownianDrift,
    CompoundPoissonDrift,
    ConvergenceError,
    ExponentialJumps,
    GammaDrift,
    InverseGaussianDrift,
    LevyModel,
    brownian,
    compound_poisson_exp,
    path_rng,
)

ALL_MODELS = [
    brownian(1.0, 2.0),
    brownian(-0.5, 1.0),
    compound_poisson_exp(2.0, 1.0, 1.0),
    compound_poisson_exp(1.5, 2.0, 0.5),
    GammaDrift(1.0, 1.0, 2.0),
    InverseGaussianDrift(1.0, 1.0, 2.0),
    BrownianDrift(0.5, 1.0, 0.8, ExponentialJumps(0.5)),
]


class TestExponent:
    def test_brownian_value(self):
        m = brownian(1.0, 2.0)
        assert m.phi(2.0) == pytest.approx(2.0, abs=1e-14)

    def test_compound_poisson_value(self):
        m = compound_poisson_exp(2.0, 1.0, 1.0)
        # zeta*theta - rate*theta/(theta + 1/mean)
        assert m.phi(1.0) == pytest.approx(1.5, abs=1e-14)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_phi_zero_is_zero(self, model):
        assert model.phi(0.0) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_strict_convexity_on_grid(self, model):
        thetas = np.linspace(0.0, 6.0, 25)
        for a, b in zip(thetas[:-2], thetas[2:]):
            mid = 0.5 * (a + b)
            chord = 0.5 * (model.phi(a) + model.phi(b))
            assert model.phi(mid) < chord - 1e-10 * max(1.0, abs(chord))

    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError):
            brownian(1.0, 2.0).phi(-0.5)

    def test_bounded_variation_form_matches_general(self):
        # same jump measure expressed as compound Poisson with drift vs a
        # Brownian-family model with sigma2 -> 0 is not allowed, so compare
        # the two analytic routes for the exponent of CP input directly
        m = compound_poisson_exp(2.0, 1.0, 1.0)
        for theta in (0.3, 1.0, 2.5):
            direct = m.zeta * theta - quad(
                lambda v: (1 - math.exp(-theta * v)) * math.exp(-v), 0, 60)[0]
            assert m.phi(theta) == pytest.approx(direct, rel=1e-10)

    def test_phi_prime_matches_finite_difference(self):
        for model in ALL_MODELS:
            h = 1e-6
            fd = (model.phi(1.0 + h) - model.phi(1.0 - h)) / (2 * h)
            assert model.phi_prime(1.0) == pytest.approx(fd, rel=1e-6)


class TestMeanInput:
    def test_brownian(self):
        assert brownian(1.0, 2.0).mean_input() == pytest.approx(1.0)

    def test_compound_poisson(self):
        assert compound_poisson_exp(2.0, 1.0, 1.0).mean_input() == pytest.approx(-1.0)

    def test_gamma_magnitude(self):
        # jump moment a/b minus drift zeta
        m = GammaDrift(1.0, 1.0, 2.0)
        assert m.mean_input() == pytest.approx(1.0 / 2.0 - 1.0)

    def test_inverse_gaussian_magnitude(self):
        m = InverseGaussianDrift(1.0, 1.0, 2.0)
        assert m.mean_input() == pytest.approx(1.0 / 2.0 - 1.0)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_one_sided_difference_limit(self, model):
        # -phi(h)/h -> mean as h -> 0, Richardson over h, h/2
        h = 1e-4
        d1 = -model.phi(h) / h
        d2 = -model.phi(h / 2) / (h / 2)
        extrap = 2 * d2 - d1
        assert extrap == pytest.approx(model.mean_input(), abs=1e-6)


# one model per family, the jump diffusion included
ETA_MODELS = [
    brownian(1.0, 2.0),
    BrownianDrift(0.5, 1.0, 0.8, ExponentialJumps(0.5)),
    compound_poisson_exp(2.0, 1.0, 1.0),
    compound_poisson_exp(0.5, 1.0, 1.0),
    GammaDrift(1.0, 1.0, 2.0),
    InverseGaussianDrift(1.0, 1.0, 2.0),
]
ETA_IDS = ["bm", "jump_diffusion", "cp_down", "cp_up", "gamma", "ig"]


def _mp_exponent(model):
    """The closed-form exponent of ``model`` in mpmath numbers."""
    f = mp.mpf
    if isinstance(model, BrownianDrift):
        mu, s2 = f(model.mu), f(model.sigma2)
        rate = f(model.jump_rate)
        b = 1 / f(model.jumps.mean) if model.jumps is not None else f(1)
        return lambda th: -mu * th + s2 * th * th / 2 - rate * th / (b + th)
    zeta = f(model.zeta)
    if isinstance(model, CompoundPoissonDrift):
        rate, b = f(model.rate), 1 / f(model.jumps.mean)
        return lambda th: zeta * th - rate * th / (b + th)
    if isinstance(model, GammaDrift):
        a, b = f(model.a), f(model.b)
        return lambda th: zeta * th - a * mp.log1p(th / b)
    sig2, c = f(model.sigma) ** 2, f(model.c)
    return lambda th: zeta * th - (mp.sqrt(c * c + 2 * sig2 * th) - c) / sig2


class TestEta:
    def test_brownian_closed_form(self):
        m = brownian(1.0, 2.0)
        assert m.eta(0.0) == pytest.approx(1.0, abs=1e-12)
        assert m.eta(4.0) == pytest.approx((math.sqrt(17) + 1) / 2, rel=1e-12)

    def test_zero_root_for_negative_mean(self):
        m = compound_poisson_exp(2.0, 1.0, 1.0)
        assert m.eta(0.0) == 0.0

    def test_positive_root_iff_positive_mean(self):
        up = compound_poisson_exp(0.5, 1.0, 1.0)   # mean +0.5
        assert up.mean_input() > 0
        assert up.eta(0.0) > 0
        assert up.phi(up.eta(0.0)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("model", ALL_MODELS)
    @pytest.mark.parametrize("alpha", [0.0, 0.01, 0.1, 1.0, 10.0])
    def test_root_property(self, model, alpha):
        root = model.eta(alpha)
        assert model.phi(root) == pytest.approx(alpha, rel=1e-10, abs=1e-10)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            brownian(1.0, 2.0).eta(-1.0)

    @pytest.mark.parametrize("shift", [None, 2.0], ids=["fill", "shifted"])
    @pytest.mark.parametrize("model", ETA_MODELS, ids=ETA_IDS)
    def test_matches_50_digit_root(self, model, shift):
        # Newton at 50 digits on the closed-form exponent, started from the
        # computed root; a positive slope there makes it the largest root.
        # The exponents are written without cancellation at small theta, so
        # every root is within 2 ulps (the worst is 2.6e-16)
        if shift is not None:
            model = model.shifted(shift)
        with mp.workdps(50):
            phi = _mp_exponent(model)
            slope = lambda th: mp.diff(phi, th)
            for alpha in (0.0, 1e-4, 0.01, 0.1, 1.0, 10.0, 1e3):
                root = model.eta(alpha)
                if alpha == 0.0 and slope(0) >= 0:
                    assert root == 0.0
                    continue
                want = mp.findroot(lambda th: phi(th) - alpha, mp.mpf(root))
                assert slope(want) > 0
                assert abs(root - want) <= 4e-16 * want, (alpha, root, want)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_unbracketed_root_raises(self, alpha):
        class Falling(LevyModel):
            # phi never exceeds alpha, so no bracket exists
            measure, sigma2 = None, 1.0

            def phi(self, theta):
                return -theta

            def phi_prime(self, theta):
                return -1.0

        with pytest.raises(ConvergenceError):
            Falling().eta(alpha)


class TestConstruction:
    def test_bounded_variation_needs_positive_zeta(self):
        with pytest.raises(ValueError):
            compound_poisson_exp(0.0, 1.0, 1.0)

    def test_brownian_needs_positive_variance(self):
        with pytest.raises(ValueError):
            BrownianDrift(1.0, 0.0)

    @pytest.mark.parametrize("jumps", [(0.5, 1.5), stats.expon(scale=0.5)],
                             ids=["sizes", "scipy_law"])
    def test_jumps_must_be_exponential(self, jumps):
        # ExponentialJumps is the one jump law: anything else is refused
        # when the model is built, not when it is first priced
        with pytest.raises(ValueError, match="ExponentialJumps"):
            CompoundPoissonDrift(2.0, 1.0, jumps)
        with pytest.raises(ValueError, match="ExponentialJumps"):
            BrownianDrift(0.5, 1.0, 0.8, jumps)

    def test_shifted_model_exponent(self):
        for model in ALL_MODELS:
            shifted = model.shifted(2.0)
            for theta in (0.5, 1.0, 2.0):
                assert shifted.phi(theta) == pytest.approx(
                    model.phi(theta) + 2.0 * theta, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("model, rebuilt", [
        (compound_poisson_exp(2.0, 1.0, 1.0),
         lambda zeta: compound_poisson_exp(zeta, 1.0, 1.0)),
        (GammaDrift(1.0, 1.0, 2.0), lambda zeta: GammaDrift(zeta, 1.0, 2.0)),
        (InverseGaussianDrift(1.0, 1.0, 2.0),
         lambda zeta: InverseGaussianDrift(zeta, 1.0, 2.0)),
    ], ids=["cp", "gamma", "inverse_gaussian"])
    def test_shifted_bounded_variation_is_rebuilt(self, model, rebuilt):
        # the drift moves by M; the measure is rebuilt from the same
        # parameters, so the exponent keeps its bits
        shifted, want = model.shifted(2.0), rebuilt(model.zeta + 2.0)
        assert type(shifted) is type(want)
        init = [f.name for f in dataclasses.fields(want) if f.init]
        assert ([getattr(shifted, name) for name in init]
                == [getattr(want, name) for name in init])
        for theta in (0.5, 1.0, 2.0):
            assert shifted.phi(theta) == want.phi(theta)
        with pytest.raises(ValueError, match="release rate"):
            model.shifted(0.0)


# every gamma (a, b) and inverse Gaussian (sigma, c) measure of the tests
# and the benchmark configs
GAMMA_MEASURES = [(1.0, 2.0), (3.0, 2.0), (4.0, 2.0)]
IG_MEASURES = [(1.0, 2.0), (1.0, 0.8)]


def _exact_tails():
    """(measure, exact tail nu([x, inf))) for every measure above, the
    tails by scipy.special: a E1(b x), and for inverse Gaussian jumps
    2 (exp(-q x) / sqrt(x) - sqrt(pi q) erfc(sqrt(q x))) / (sigma sqrt(2 pi))."""
    out = []
    for a, b in GAMMA_MEASURES:
        out.append((GammaDrift(1.0, a, b).measure,
                    lambda x, a=a, b=b: a * special.exp1(b * x)))
    for sigma, c in IG_MEASURES:
        q = c * c / (2.0 * sigma * sigma)
        out.append((InverseGaussianDrift(1.0, sigma, c).measure,
                    lambda x, q=q, sigma=sigma: 2.0 * (
                        np.exp(-q * x) / np.sqrt(x) - math.sqrt(math.pi * q)
                        * special.erfc(np.sqrt(q * x)))
                    / (sigma * math.sqrt(2.0 * math.pi))))
    return out


class TestTailBound:
    """The jump tail is cut where an elementary bound on it falls below
    1e-15; the bound must lie above the tail and cut where the tail does."""

    def test_bound_is_above_the_exact_tail(self):
        x = np.geomspace(1e-3, 200.0, 2001)
        for measure, exact in _exact_tails():
            bound, tail = measure.tail_bound(x), exact(x)
            assert np.all(bound >= tail), measure

    def test_cut_matches_the_exact_tail(self):
        for measure, exact in _exact_tails():
            x = 1.0
            while exact(x) >= 1e-15:
                x *= 2.0
            assert measure.tail_quantile(1e-15) == x, measure


class TestJumpsFromExponential:
    """One jump per standard exponential, as the compound Poisson simulator
    draws them."""

    def test_exponential_is_the_scalar_draw(self):
        jumps = ExponentialJumps(0.7)
        e = path_rng(3, 1).standard_exponential(200)
        rng = path_rng(3, 1)
        want = np.array([jumps.sample(rng, 1)[0] for _ in range(200)])
        assert np.array_equal(jumps.from_exponential(e), want)
