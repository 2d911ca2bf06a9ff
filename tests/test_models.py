import dataclasses
import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from levydam import (
    AtomJumps,
    BrownianDrift,
    CompoundPoissonDrift,
    ExponentialJumps,
    GammaDrift,
    GenericBoundedVariation,
    InverseGaussianDrift,
    brownian,
    compound_poisson_exp,
    gamma_measure,
    generic_measure,
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


class TestConstruction:
    def test_bounded_variation_needs_positive_zeta(self):
        with pytest.raises(ValueError):
            compound_poisson_exp(0.0, 1.0, 1.0)

    def test_brownian_needs_positive_variance(self):
        with pytest.raises(ValueError):
            BrownianDrift(1.0, 0.0)

    def test_atom_jumps_validate(self):
        with pytest.raises(ValueError):
            AtomJumps((1.0, 2.0), (0.6, 0.6))
        with pytest.raises(ValueError):
            AtomJumps((-1.0,), (1.0,))

    def test_atom_model_round_trip(self):
        m = CompoundPoissonDrift(2.0, 1.0, AtomJumps((1.0, 2.0), (0.5, 0.5)))
        assert m.mean_input() == pytest.approx(1.5 - 2.0)
        assert m.phi(1.0) == pytest.approx(
            2.0 - (1 - 0.5 * (math.exp(-1) + math.exp(-2))))

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

    def test_shifted_generic_keeps_its_measure(self):
        model = GenericBoundedVariation(1.0, gamma_measure(1.0, 2.0))
        shifted = model.shifted(2.0)
        assert shifted == GenericBoundedVariation(3.0, model.measure)
        with pytest.raises(ValueError, match="release rate"):
            model.shifted(-1.0)

    def test_generic_measure_matches_parametric(self):
        # exp(1) jumps at rate 1 under drift 2, via the generic constructor
        dens = lambda x: np.exp(-x)
        tail = lambda x: np.exp(-x)
        m = GenericBoundedVariation(2.0, generic_measure(dens, tail, 1.0))
        ref = compound_poisson_exp(2.0, 1.0, 1.0)
        for theta in (0.2, 1.0, 3.0):
            assert m.phi(theta) == pytest.approx(ref.phi(theta), rel=1e-9)
        assert m.mean_input() == pytest.approx(-1.0, abs=1e-9)

    def test_measure_moments(self):
        # tail functions integrate back to the stated first moment
        for model in (GammaDrift(1.0, 1.0, 2.0),
                      InverseGaussianDrift(1.0, 1.0, 2.0)):
            mu_num = quad(lambda x: float(model.measure.tail(x)), 0, np.inf,
                          limit=300)[0]
            assert mu_num == pytest.approx(model.measure.mu, rel=1e-8)


class TestJumpsFromExponential:
    """One jump per standard exponential, as the compound Poisson simulator
    draws them."""

    def test_exponential_is_the_scalar_draw(self):
        jumps = ExponentialJumps(0.7)
        e = path_rng(3, 1).standard_exponential(200)
        rng = path_rng(3, 1)
        want = np.array([jumps.sample(rng, 1)[0] for _ in range(200)])
        assert np.array_equal(jumps.from_exponential(e), want)

    def test_atom_frequencies(self):
        jumps = AtomJumps((0.5, 1.0, 2.5), (0.2, 0.5, 0.3))
        e = path_rng(5, 0).standard_exponential(20000)
        got = jumps.from_exponential(e)
        counts = [np.count_nonzero(got == x) for x in jumps.sizes]
        assert sum(counts) == len(got)
        expected = 20000 * np.asarray(jumps.probs)
        assert stats.chisquare(counts, expected).pvalue > 0.01

    def test_atom_quantile_ends(self):
        # u = 1 - exp(-e): 0 takes the first atom; u rounded up to 1 (e
        # past about 37) takes the last, not an index past the end
        jumps = AtomJumps((0.5, 1.0, 2.5), (0.2, 0.5, 0.3))
        e = np.array([0.0, -math.log1p(-0.2) * 0.999, 1.0, 60.0])
        assert jumps.from_exponential(e).tolist() == [0.5, 0.5, 1.0, 2.5]
