import logging
import math

import numpy as np
import pytest
from scipy.integrate import quad

import levydam.scale
from levydam import (
    CLOSED_FORM_BROWNIAN,
    CONVOLUTION_SERIES,
    LAPLACE_INVERSION,
    AtomJumps,
    BrownianDrift,
    CompoundPoissonDrift,
    ExponentialJumps,
    GammaDrift,
    GenericBoundedVariation,
    InverseGaussianDrift,
    ScaleFunctionSet,
    ScaleOptions,
    brownian,
    compound_poisson_exp,
    generic_measure,
    shifted_model,
    shifted_scale_set,
)


def cp_exp_scale_oracle(zeta, rate, jump_mean, alpha):
    """Two-exponential closed form for compound Poisson input with
    exponential jumps, from partial fractions of 1/(phi - alpha)."""
    b = 1.0 / jump_mean
    th1, th2 = np.sort(np.roots([zeta, zeta * b - rate - alpha, -alpha * b]).real)

    def w(x):
        return ((th1 + b) * np.exp(th1 * x) / (zeta * (th1 - th2))
                + (th2 + b) * np.exp(th2 * x) / (zeta * (th2 - th1)))

    return w


class TestBrownianClosedForms:
    def test_w_zero_alpha(self):
        s = ScaleFunctionSet(brownian(1.0, 2.0), 0.0)
        assert s.method == CLOSED_FORM_BROWNIAN
        assert s.w(math.log(2.0)) == pytest.approx(1.0, rel=1e-12)

    def test_w_negative_argument(self):
        for alpha in (0.0, 0.7):
            s = ScaleFunctionSet(brownian(1.0, 2.0), alpha)
            assert s.w(-3.0) == 0.0

    def test_wbar_zero_alpha(self):
        s = ScaleFunctionSet(brownian(1.0, 2.0), 0.0)
        assert s.wbar(1.0) == pytest.approx(math.e - 2.0, rel=1e-12)
        assert s.wbar(0.0) == 0.0
        assert s.wbar(2.0) >= s.wbar(1.0)

    def test_w_prime(self):
        s = ScaleFunctionSet(brownian(1.0, 2.0), 0.0)
        assert s.wp(1.0) == pytest.approx(math.e, rel=1e-12)

    def test_degenerate_driftless(self):
        s = ScaleFunctionSet(brownian(0.0, 1.0), 0.0)
        assert s.w(0.7) == pytest.approx(1.4, rel=1e-12)
        assert s.wbar(0.7) == pytest.approx(0.49, rel=1e-12)

    def test_z_trivialities(self):
        s0 = ScaleFunctionSet(brownian(1.0, 2.0), 0.0)
        assert s0.z(3.0) == 1.0
        s1 = ScaleFunctionSet(brownian(1.0, 2.0), 1.0)
        assert s1.z(0.0) == 1.0

    def test_z_quadrature_oracle(self):
        s = ScaleFunctionSet(brownian(1.0, 2.0), 1.0)
        integral = quad(lambda y: s.w(y), 0.0, 1.0, epsabs=1e-12)[0]
        assert s.z(1.0) == pytest.approx(1.0 + integral, abs=1e-10)


class TestCompoundPoissonMethods:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    def test_series_matches_partial_fraction_oracle(self, alpha):
        s = ScaleFunctionSet(compound_poisson_exp(2.0, 1.0, 1.0), alpha)
        assert s.method == CONVOLUTION_SERIES
        oracle = cp_exp_scale_oracle(2.0, 1.0, 1.0, alpha)
        xs = np.linspace(0.05, 8.0, 40)
        assert np.max(np.abs(s.w(xs) - oracle(xs)) / oracle(xs)) < 2e-6

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_series_matches_inversion(self, alpha):
        model = compound_poisson_exp(2.0, 1.0, 1.0)
        s1 = ScaleFunctionSet(model, alpha)
        s2 = ScaleFunctionSet(model, alpha, method=LAPLACE_INVERSION)
        xs = np.linspace(0.1, 5.0, 30)
        rel = np.abs(s1.w(xs) - s2.w(xs)) / s2.w(xs)
        assert np.max(rel) < 1e-5

    def test_generic_measure_series_matches_parametric(self):
        from levydam import GenericBoundedVariation, generic_measure
        dens = lambda x: np.exp(-x)
        tail = lambda x: np.exp(-x)
        gen = GenericBoundedVariation(2.0, generic_measure(dens, tail, 1.0))
        ref = ScaleFunctionSet(compound_poisson_exp(2.0, 1.0, 1.0), 0.5)
        s = ScaleFunctionSet(gen, 0.5)
        assert s.method == CONVOLUTION_SERIES
        xs = np.linspace(0.2, 5.0, 20)
        rel = np.abs(s.w(xs) - ref.w(xs)) / ref.w(xs)
        assert np.max(rel) < 1e-4

    def test_value_at_zero_bounded_variation(self):
        for alpha in (0.0, 0.5):
            s = ScaleFunctionSet(compound_poisson_exp(2.0, 1.0, 1.0), alpha)
            assert s.w(0.0) == pytest.approx(0.5, rel=1e-9)

    def test_value_at_zero_unbounded_variation(self):
        s = ScaleFunctionSet(brownian(1.0, 2.0), 0.5)
        assert s.w(0.0) == 0.0

    def test_series_rejects_heavy_load(self):
        model = compound_poisson_exp(0.5, 1.0, 1.0)  # rho = 2
        with pytest.raises(ValueError):
            ScaleFunctionSet(model, 0.5, method=CONVOLUTION_SERIES)

    def test_series_bound_from_load(self):
        # W(x) <= 1/(zeta - mu F(x)) when rho < 1
        model = compound_poisson_exp(2.0, 1.0, 1.0)
        s = ScaleFunctionSet(model, 0.0)
        for x in (0.2, 0.7, 1.5, 3.0, 6.0):
            f_cdf = 1.0 - math.exp(-x)
            assert s.w(x) <= 1.0 / (2.0 - 1.0 * f_cdf) + 1e-9

    def test_w_prime_finite_difference(self):
        s = ScaleFunctionSet(compound_poisson_exp(2.0, 1.0, 1.0), 0.5)
        h = 1e-5
        fd = (s.w(1.0 + h) - s.w(1.0 - h)) / (2 * h)
        assert s.wp(1.0) == pytest.approx(fd, rel=1e-4)


class TestLaplaceIdentity:
    MODELS = [
        (brownian(1.0, 2.0), None),
        (compound_poisson_exp(2.0, 1.0, 1.0), None),
        (GammaDrift(1.0, 1.0, 2.0), None),
        (InverseGaussianDrift(1.0, 1.0, 2.0), None),
    ]

    @pytest.mark.parametrize("model,_", MODELS)
    def test_forward_transform(self, model, _):
        alpha = 0.5
        s = ScaleFunctionSet(model, alpha)
        eta = s.eta_alpha
        for gap in (0.5, 1.0, 2.0):
            beta = eta + gap
            X = 45.0 / gap
            val = quad(lambda x: math.exp(-beta * x) * s.w(x), 0.0, X,
                       limit=400)[0]
            val += math.exp(-beta * X) * s.w(X) / gap  # geometric tail
            target = 1.0 / (model.phi(beta) - alpha)
            assert val == pytest.approx(target, rel=1e-5)


class TestShapeProperties:
    MODELS = [
        brownian(1.0, 2.0),
        compound_poisson_exp(2.0, 1.0, 1.0),
        GammaDrift(1.0, 1.0, 2.0),
    ]

    @pytest.mark.parametrize("model", MODELS)
    def test_monotone_nonnegative(self, model):
        s = ScaleFunctionSet(model, 0.7)
        xs = np.linspace(0.0, 6.0, 61)
        ws = s.w(xs)
        assert np.all(ws >= 0)
        assert np.all(np.diff(ws) >= -1e-9 * np.maximum(ws[1:], 1.0))

    @pytest.mark.parametrize("model", MODELS)
    def test_z_at_least_one_and_increasing(self, model):
        s = ScaleFunctionSet(model, 0.7)
        xs = np.linspace(0.0, 6.0, 31)
        zs = s.z(xs)
        assert np.all(zs >= 1.0 - 1e-12)
        assert np.all(np.diff(zs) >= -1e-10)

    def test_asymptotics(self):
        model = brownian(1.0, 2.0)
        alpha = 0.8
        s = ScaleFunctionSet(model, alpha)
        eta = s.eta_alpha
        slope = model.phi_prime(eta)
        x = 20.0
        assert s.w(x) * slope * math.exp(-eta * x) == pytest.approx(1.0, rel=0.05)
        assert s.z(x) / s.w(x) == pytest.approx(alpha / eta, rel=0.05)


class TestShiftedModel:
    def test_brownian_drift_shift(self):
        m = shifted_model(brownian(1.0, 2.0), 2.0)
        assert m.mu == -1.0 and m.sigma2 == 2.0

    def test_exponent_shift_pointwise(self):
        base = compound_poisson_exp(2.0, 1.0, 1.0)
        m = shifted_model(base, 2.0)
        for theta in (0.5, 1.0, 2.0):
            assert m.phi(theta) == pytest.approx(base.phi(theta) + 2.0 * theta,
                                                 rel=1e-12)

    def test_eta_consistency(self):
        base = compound_poisson_exp(2.0, 1.0, 1.0)
        M, alpha = 2.0, 0.7
        s_M = shifted_scale_set(base, M, alpha)
        # root of phi(theta) + theta M = alpha found on the base exponent
        from scipy.optimize import brentq
        root = brentq(lambda th: base.phi(th) + th * M - alpha, 0.0, 10.0)
        assert s_M.eta_alpha == pytest.approx(root, rel=1e-10)

    def test_shift_requires_positive_rate(self):
        with pytest.raises(ValueError):
            shifted_model(brownian(1.0, 2.0), 0.0)


class TestScalarPath:
    """A finite Python float takes the evaluator's scalar path, which must
    return exactly the float of the array path."""

    SETS = {
        "series": lambda: ScaleFunctionSet(compound_poisson_exp(2.0, 1.0, 1.0),
                                           0.0, options=ScaleOptions(x_max=4.5)),
        "series_discounted": lambda: ScaleFunctionSet(
            compound_poisson_exp(2.0, 1.0, 1.0), 0.5,
            options=ScaleOptions(x_max=4.5)),
        "inversion_gamma": lambda: ScaleFunctionSet(GammaDrift(1.0, 3.0, 2.0),
                                                    0.3),
        "inversion_jump_diffusion": lambda: ScaleFunctionSet(
            BrownianDrift(1.0, 1.0, 1.0, ExponentialJumps(0.5)), 0.2),
    }

    @pytest.mark.parametrize("name", sorted(SETS))
    def test_scalar_equals_array_bit_for_bit(self, name):
        s = self.SETS[name]()
        assert s.method in (CONVOLUTION_SERIES, LAPLACE_INVERSION)
        x_max = s.options.x_max
        rng = np.random.default_rng(5)
        points = ([-2.0, -1e-9, 0.0, 1e-12, 1e-4, 1.5e-4, 0.3, 1.0, x_max,
                   math.nextafter(x_max, 0.0)]
                  + rng.uniform(0.0, x_max, 40).tolist())
        for x in points:
            for kind in ("w", "wp", "z", "wbar"):
                if kind == "wp" and x < 0:
                    continue
                fn = getattr(s, kind)
                fast = fn(x)
                assert type(fast) is float
                assert fast == float(fn(np.asarray(x))), (kind, x)
                assert fast == fn(np.array([x, 0.5]))[0], (kind, x)

    @pytest.mark.parametrize("name", ["inversion_gamma",
                                      "inversion_jump_diffusion"])
    def test_inversion_derivative_matches_vectorised_reference(self, name):
        # the finite-difference W' of the inversion method written with
        # numpy over an array, as it stood before the scalar path
        s = self.SETS[name]()
        w = s.w
        x = np.array([0.0, 1e-5, 1e-4, 1.5e-4, 2e-3, 0.3, 1.0, 2.5, 7.0])
        h = 1e-3 * np.maximum(1.0, np.abs(x))
        near = x < 2.0 * h
        h = np.where(near, 1e-4, np.minimum(h, x * 0.5))
        d1 = np.where(near,
                      (-3.0 * w(x) + 4.0 * w(x + h) - w(x + 2 * h)) / (2.0 * h),
                      (w(x + h) - w(x - h)) / (2.0 * h))
        d2 = np.where(near,
                      (-3.0 * w(x) + 4.0 * w(x + 0.5 * h) - w(x + h)) / h,
                      (w(x + 0.5 * h) - w(x - 0.5 * h)) / h)
        want = (4.0 * d2 - d1) / 3.0
        assert [s.wp(v) for v in x.tolist()] == want.tolist()
        assert np.array_equal(s.wp(x), want)

    @pytest.mark.parametrize("name", ["inversion_gamma",
                                      "inversion_jump_diffusion"])
    def test_batched_inversion_equals_one_point_inversion(self, name):
        # one fresh set inverts the array in batches, another one point at
        # a time; 600 points span three batches
        xs = np.random.default_rng(7).uniform(0.0, 8.0, 600)
        batched, single = self.SETS[name](), self.SETS[name]()
        for kind in ("w", "wbar", "wp"):
            got = getattr(batched, kind)(xs)
            assert got.tolist() == [getattr(single, kind)(x)
                                    for x in xs.tolist()], kind

    def test_negative_derivative_rejected_on_both_paths(self):
        s = self.SETS["series"]()
        for x in (-0.5, np.asarray(-0.5)):
            with pytest.raises(ValueError, match="x >= 0"):
                s.wp(x)

    def test_point_beyond_grid_rebuilds_and_matches_array_path(self):
        a, b = self.SETS["series"](), self.SETS["series"]()
        derived = ScaleOptions()  # any object the caller holds
        a.memo()["derived"] = derived
        x = 2.0 * a.options.x_max
        assert a.w(x) == float(b.w(np.asarray(x)))
        assert a.generation == b.generation == 1
        assert np.array_equal(a.grid[0], b.grid[0])
        assert "derived" not in a.memo()


def _fftconvolve_head(b):
    """The series convolution as it stood, on scipy.signal.fftconvolve."""
    from scipy.signal import fftconvolve
    return lambda a: fftconvolve(a, b)[: len(b)]


class TestSeriesConvolution:
    """The series sums its terms by real FFT convolution, which must equal
    scipy.signal.fftconvolve bit for bit."""

    MODELS = {
        "cp_exponential": lambda: compound_poisson_exp(2.0, 1.0, 1.0),
        "cp_atoms": lambda: CompoundPoissonDrift(
            2.0, 1.0, AtomJumps((0.5, 1.5), (0.4, 0.6))),
        "generic": lambda: GenericBoundedVariation(
            2.0, generic_measure(lambda x: np.exp(-x), lambda x: np.exp(-x), 1.0)),
    }

    # 2m - 1 is padded to the next fast length, except for m = 313 and 1013
    # (625 = 5**4 and 2025 = 3**4 * 5**2)
    @pytest.mark.parametrize("m", [256, 257, 313, 1000, 1013, 2001, 4000, 8001])
    def test_random_vectors(self, m):
        rng = np.random.default_rng(m)
        a, b = rng.standard_normal(m), rng.standard_normal(m)
        got = levydam.scale._head_convolver(b)(a)
        assert np.array_equal(got, _fftconvolve_head(b)(a))

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_series_inputs(self, name, monkeypatch):
        real, calls = levydam.scale._head_convolver, []

        def checked(b):
            conv, ref = real(b), _fftconvolve_head(b)

            def both(a):
                got = conv(a)
                calls.append(np.array_equal(got, ref(a)))
                return got

            return both

        monkeypatch.setattr(levydam.scale, "_head_convolver", checked)
        ScaleFunctionSet(self.MODELS[name](), 0.5, method=CONVOLUTION_SERIES,
                         options=ScaleOptions(x_max=4.5))
        assert len(calls) > 100 and all(calls)

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_table_equals_fftconvolve_table(self, alpha, monkeypatch):
        model = compound_poisson_exp(2.0, 1.0, 1.0)
        got = ScaleFunctionSet(model, alpha).grid
        monkeypatch.setattr(levydam.scale, "_head_convolver", _fftconvolve_head)
        want = ScaleFunctionSet(model, alpha).grid
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_unconverged_refinement_warns_and_keeps_grid(self, caplog):
        model = compound_poisson_exp(2.0, 1.0, 1.0)
        with caplog.at_level(logging.WARNING, logger="levydam"):
            converged = ScaleFunctionSet(model, 0.5,
                                         options=ScaleOptions(x_max=4.5))
            assert caplog.records == []
            assert converged._ev.refine_diff < converged.options.refine_tol
            ref = ScaleFunctionSet(model, 0.5, options=ScaleOptions(
                x_max=4.5, max_refinements=1))
            caplog.clear()
            s = ScaleFunctionSet(model, 0.5, options=ScaleOptions(
                x_max=4.5, max_refinements=1, refine_tol=1e-300))
        assert [r.name for r in caplog.records] == ["levydam"]
        assert "not below refine_tol" in caplog.text
        assert s._ev.refine_diff == ref._ev.refine_diff
        assert np.array_equal(s.grid[0], ref.grid[0])
        assert np.array_equal(s.grid[1], ref.grid[1])
