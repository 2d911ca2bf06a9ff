import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import levydam
from levydam import (
    CLOSED_FORM,
    LAPLACE_INVERSION,
    BrownianDrift,
    ExponentialJumps,
    GammaDrift,
    InverseGaussianDrift,
    ScaleFunctionSet,
    brownian,
    compound_poisson_exp,
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
        assert s.method == CLOSED_FORM
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
    def test_closed_form_matches_partial_fraction_oracle(self, alpha):
        s = ScaleFunctionSet(compound_poisson_exp(2.0, 1.0, 1.0), alpha)
        assert s.method == CLOSED_FORM
        oracle = cp_exp_scale_oracle(2.0, 1.0, 1.0, alpha)
        xs = np.linspace(0.05, 8.0, 40)
        assert np.max(np.abs(s.w(xs) - oracle(xs)) / oracle(xs)) < 3e-15

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_closed_form_matches_inversion(self, alpha):
        model = compound_poisson_exp(2.0, 1.0, 1.0)
        s1 = ScaleFunctionSet(model, alpha)
        s2 = ScaleFunctionSet(model, alpha, method=LAPLACE_INVERSION)
        xs = np.linspace(0.1, 5.0, 30)
        rel = np.abs(s1.w(xs) - s2.w(xs)) / s2.w(xs)
        assert np.max(rel) < 2e-12

    def test_value_at_zero_bounded_variation(self):
        for alpha in (0.0, 0.5):
            s = ScaleFunctionSet(compound_poisson_exp(2.0, 1.0, 1.0), alpha)
            assert s.w(0.0) == pytest.approx(0.5, rel=1e-9)

    def test_value_at_zero_unbounded_variation(self):
        s = ScaleFunctionSet(brownian(1.0, 2.0), 0.5)
        assert s.w(0.0) == 0.0

    @pytest.mark.parametrize("model", [
        GammaDrift(1.0, 1.0, 2.0),
        InverseGaussianDrift(1.0, 1.0, 2.0),
        BrownianDrift(0.5, 1.0, 0.8, ExponentialJumps(0.5)),
    ], ids=["gamma", "inverse_gaussian", "jump_diffusion"])
    def test_closed_form_needs_two_root_input(self, model):
        with pytest.raises(ValueError, match="pure Brownian and compound "
                                             "Poisson input only"):
            ScaleFunctionSet(model, 0.5, method=CLOSED_FORM)

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

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_closed_form_serves_heavy_load(self, alpha):
        # rho = 2: the closed form against inversion, largest error 1.0e-12
        model = compound_poisson_exp(1.0, 2.0, 1.0)
        s1 = ScaleFunctionSet(model, alpha)
        s2 = ScaleFunctionSet(model, alpha, method=LAPLACE_INVERSION)
        assert s1.method == CLOSED_FORM and s1.eta_alpha > 0.0
        xs = np.linspace(0.1, 5.0, 30)
        for kind in ("w", "wp", "z", "wbar"):
            want = getattr(s2, kind)(xs)
            rel = np.abs(getattr(s1, kind)(xs) - want) / want
            assert np.max(rel) < 3e-12, kind

    def test_critical_load_is_linear(self):
        # rho = 1 and alpha = 0: both roots are 0, W = (1 + c x) / zeta
        s = ScaleFunctionSet(compound_poisson_exp(1.0, 2.0, 0.5), 0.0)
        xs = np.linspace(0.1, 5.0, 7)
        assert s.w(xs) == pytest.approx(1.0 + 2.0 * xs, rel=1e-15, abs=0.0)
        assert s.wp(xs) == pytest.approx(np.full(7, 2.0), rel=1e-15, abs=0.0)
        assert s.wbar(xs) == pytest.approx(xs * (xs + 1.0), rel=1e-15, abs=0.0)
        assert s.z(xs).tolist() == [1.0] * 7

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_wbar_integrates_w(self, alpha):
        # largest error measured 2.4e-16
        s = ScaleFunctionSet(compound_poisson_exp(2.0, 1.0, 1.0), alpha)
        for x in (0.3, 2.0, 9.0):
            want = quad(s.w, 0.0, x, epsabs=0.0, epsrel=1e-13)[0]
            assert s.wbar(x) == pytest.approx(want, rel=1e-15, abs=0.0)


class TestRenewalEquation:
    """Inverting (phi - alpha) What = 1 for compound Poisson input with
    jump rate nu and exponential jumps of rate c gives

        zeta W(x) = 1 + int_0^x (alpha + nu exp(-c (x - y))) W(y) dy,
        zeta W'(x) = (alpha + nu) W(x) - nu c int_0^x exp(-c (x - y)) W(y) dy,

    checked by quadrature of the closed form out to x = 60.5, past the
    30-digit table.  The largest errors measured are 1.6e-15 (W) and 1.7e-15
    (W', relative to max(zeta W', W))."""

    ZETA, NU, C = 2.0, 1.0, 1.0

    @pytest.mark.parametrize("alpha,x", [
        *((alpha, 4.5) for alpha in (0.0, 0.5, 2.0)),
        *((alpha, x) for alpha in (0.5, 2.0) for x in (30.0, 60.5))])
    def test_closed_form_solves_the_equation(self, alpha, x):
        zeta, nu, c = self.ZETA, self.NU, self.C
        s = ScaleFunctionSet(compound_poisson_exp(zeta, nu, 1.0 / c), alpha)
        assert s.method == CLOSED_FORM

        def integral(fn):
            return quad(fn, 0.0, x, epsabs=0.0, epsrel=1e-13, limit=400)[0]

        kernel = integral(lambda y: math.exp(-c * (x - y)) * s.w(y))
        w, wp = s.w(x), s.wp(x)
        rhs = 1.0 + integral(lambda y: (alpha + nu * math.exp(-c * (x - y)))
                             * s.w(y))
        assert abs(zeta * w - rhs) / (zeta * w) < 5e-15
        rhs_p = (alpha + nu) * w - nu * c * kernel
        assert abs(zeta * wp - rhs_p) / max(zeta * wp, w) < 5e-15


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


REFERENCE = Path(__file__).resolve().parent / "data" / "scale_reference.json"


class TestReferenceValues:
    """Every method against W, W' and Z at 30 digits from mpmath (written by
    tests/scale_reference.py), for alpha in {0, 0.5, 2} and 1e-5 <= x <= 50.

    W and Z are compared relative to their values; W' relative to
    max(W', W), since W' falls to 1e-30 where W flattens.  The tolerances
    are two to three times the largest errors measured: 1.8e-15 for the
    closed forms (1.1e-15 on ``cp``); for inversion 7.1e-13 (W), 5.6e-12
    (W') and 5.5e-13 (Z).  The closed forms serve ``bm`` and ``cp``; every
    family is checked by inversion.
    """

    METHODS = {
        "bm": {CLOSED_FORM: (5e-15, 5e-15, 5e-15),
               LAPLACE_INVERSION: (2e-12, 1.5e-11, 2e-12)},
        "cp": {CLOSED_FORM: (5e-15, 5e-15, 5e-15),
               LAPLACE_INVERSION: (2e-12, 1.5e-11, 2e-12)},
        "gamma": {LAPLACE_INVERSION: (2e-12, 1.5e-11, 2e-12)},
        "ig": {LAPLACE_INVERSION: (2e-12, 1.5e-11, 2e-12)},
    }

    @pytest.fixture(scope="class")
    def table(self):
        return json.loads(REFERENCE.read_text())

    @pytest.mark.parametrize("name", sorted(METHODS))
    def test_every_method_matches_the_table(self, name, table):
        spec = table["models"][name]
        model = getattr(levydam, spec["family"])(**spec["params"])
        for method, tols in self.METHODS[name].items():
            for alpha in (0.0, 0.5, 2.0):
                rows = [e for e in table["entries"]
                        if e["model"] == name and e["alpha"] == alpha]
                assert len(rows) == 10
                s = ScaleFunctionSet(model, alpha, method=method)
                xs = np.array([e["x"] for e in rows])
                w = np.array([float(e["w"]) for e in rows])
                for kind, tol in zip(("w", "wp", "z"), tols):
                    want = np.array([float(e[kind]) for e in rows])
                    scale = np.maximum(want, w) if kind == "wp" else want
                    err = np.abs(getattr(s, kind)(xs) - want) / scale
                    assert err.max() < tol, (method, alpha, kind,
                                             xs[err.argmax()], err.max())

    def test_table_regenerates(self, table):
        pytest.importorskip("mpmath")
        import scale_reference

        for name, alpha, x in (("gamma", 0.5, 1e-5), ("ig", 2.0, 1.0),
                               ("cp", 2.0, 50.0)):
            row = next(e for e in table["entries"] if e["model"] == name
                       and e["alpha"] == alpha and e["x"] == x)
            got = scale_reference.entry(name, alpha, x)
            assert got == {k: row[k] for k in ("w", "wp", "z")}


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
        m = brownian(1.0, 2.0).shifted(2.0)
        assert m.mu == -1.0 and m.sigma2 == 2.0

    def test_exponent_shift_pointwise(self):
        base = compound_poisson_exp(2.0, 1.0, 1.0)
        m = base.shifted(2.0)
        for theta in (0.5, 1.0, 2.0):
            assert m.phi(theta) == pytest.approx(base.phi(theta) + 2.0 * theta,
                                                 rel=1e-12)

    def test_eta_consistency(self):
        base = compound_poisson_exp(2.0, 1.0, 1.0)
        M, alpha = 2.0, 0.7
        s_M = ScaleFunctionSet(base.shifted(M), alpha)
        # root of phi(theta) + theta M = alpha found on the base exponent
        from scipy.optimize import brentq
        root = brentq(lambda th: base.phi(th) + th * M - alpha, 0.0, 10.0)
        assert s_M.eta_alpha == pytest.approx(root, rel=1e-10)

    def test_shift_requires_positive_rate(self):
        with pytest.raises(ValueError):
            brownian(1.0, 2.0).shifted(0.0)


class TestScalarPath:
    """A float is evaluated as a 0-d array and returned as a float, which
    must equal the value of that point in any array, bit for bit."""

    SETS = {
        "closed_form": lambda: ScaleFunctionSet(
            compound_poisson_exp(2.0, 1.0, 1.0), 0.0),
        "closed_form_discounted": lambda: ScaleFunctionSet(
            compound_poisson_exp(2.0, 1.0, 1.0), 0.5),
        "inversion_gamma": lambda: ScaleFunctionSet(GammaDrift(1.0, 3.0, 2.0),
                                                    0.3),
        "inversion_jump_diffusion": lambda: ScaleFunctionSet(
            BrownianDrift(1.0, 1.0, 1.0, ExponentialJumps(0.5)), 0.2),
    }
    TOP = 4.5  # the points below span [0, TOP]

    @pytest.mark.parametrize("name", sorted(SETS))
    def test_scalar_equals_array_bit_for_bit(self, name):
        s = self.SETS[name]()
        assert s.method in (CLOSED_FORM, LAPLACE_INVERSION)
        top = self.TOP
        rng = np.random.default_rng(5)
        points = ([-2.0, -1e-9, 0.0, 1e-12, 1e-4, 1.5e-4, 0.3, 1.0, top,
                   math.nextafter(top, 0.0)]
                  + rng.uniform(0.0, top, 40).tolist())
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
        s = self.SETS["closed_form"]()
        for x in (-0.5, np.asarray(-0.5)):
            with pytest.raises(ValueError, match="x >= 0"):
                s.wp(x)

    @pytest.mark.parametrize("name", sorted(SETS))
    def test_values_do_not_depend_on_other_calls(self, name):
        # a set is fixed when built: a value is the same float before and
        # after any other call on the set, far ones included
        s = self.SETS[name]()
        xs = [0.0, 1e-5, 0.3, 1.0, self.TOP]
        first = {k: [getattr(s, k)(x) for x in xs]
                 for k in ("w", "wp", "z", "wbar")}
        for kind in ("w", "wp", "z", "wbar"):
            getattr(s, kind)(np.linspace(0.0, self.TOP, 97))
            getattr(s, kind)(3.0 * self.TOP)
        assert {k: [getattr(s, k)(x) for x in xs] for k in first} == first
