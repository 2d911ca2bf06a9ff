import gc
import json
import logging
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import fft as sp_fft
from scipy.integrate import quad

import levydam.scale
from levydam import (
    CLOSED_FORM_BROWNIAN,
    CONVOLUTION_SERIES,
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

    @pytest.mark.parametrize("model", [
        GammaDrift(1.0, 1.0, 2.0),
        InverseGaussianDrift(1.0, 1.0, 2.0),
        BrownianDrift(0.5, 1.0, 0.8, ExponentialJumps(0.5)),
    ], ids=["gamma", "inverse_gaussian", "jump_diffusion"])
    def test_series_needs_compound_poisson(self, model):
        with pytest.raises(ValueError, match="needs compound Poisson input"):
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
        s = ScaleFunctionSet(model, alpha, x_max=90.0)  # X below reaches 90
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
    closed forms; for inversion 7.1e-13 (W), 5.6e-12 (W') and 5.5e-13 (Z);
    7.4e-6 for the series, at alpha = 2 and x = 50, where the grid of its
    range is coarsest.  The series serves compound Poisson input only, so
    it is checked on ``cp`` alone; every family is checked by inversion.
    """

    METHODS = {
        "bm": {CLOSED_FORM_BROWNIAN: (5e-15, 5e-15, 5e-15),
               LAPLACE_INVERSION: (2e-12, 1.5e-11, 2e-12)},
        "cp": {CONVOLUTION_SERIES: (1.5e-5, 1.5e-5, 1.5e-5),
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
                s = ScaleFunctionSet(model, alpha, method=method, x_max=50.0)
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
        "series": lambda: ScaleFunctionSet(compound_poisson_exp(2.0, 1.0, 1.0),
                                           0.0, x_max=4.5),
        "series_discounted": lambda: ScaleFunctionSet(
            compound_poisson_exp(2.0, 1.0, 1.0), 0.5, x_max=4.5),
        "inversion_gamma": lambda: ScaleFunctionSet(GammaDrift(1.0, 3.0, 2.0),
                                                    0.3),
        "inversion_jump_diffusion": lambda: ScaleFunctionSet(
            BrownianDrift(1.0, 1.0, 1.0, ExponentialJumps(0.5)), 0.2),
    }

    @pytest.mark.parametrize("name", sorted(SETS))
    def test_scalar_equals_array_bit_for_bit(self, name):
        s = self.SETS[name]()
        assert s.method in (CONVOLUTION_SERIES, LAPLACE_INVERSION)
        x_max = s.x_max
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

    def test_point_beyond_grid_raises_on_both_paths(self):
        s = self.SETS["series_discounted"]()
        x = math.nextafter(s.x_max, math.inf)
        for kind in ("w", "wp", "z", "wbar"):
            for arg in (x, np.asarray(x), np.array([0.5, x])):
                with pytest.raises(ValueError, match=r"built on \[0, 4.5\]"):
                    getattr(s, kind)(arg)

    @pytest.mark.parametrize("name", sorted(SETS))
    def test_values_do_not_depend_on_other_calls(self, name):
        # a set is fixed when built: a value is the same float before and
        # after any other call on the set, out-of-range calls included
        s = self.SETS[name]()
        xs = [0.0, 1e-5, 0.3, 1.0, s.x_max]
        first = {k: [getattr(s, k)(x) for x in xs]
                 for k in ("w", "wp", "z", "wbar")}
        for kind in ("w", "wp", "z", "wbar"):
            getattr(s, kind)(np.linspace(0.0, s.x_max, 97))
            try:
                getattr(s, kind)(3.0 * s.x_max)
            except ValueError:
                assert s.method == CONVOLUTION_SERIES
        assert {k: [getattr(s, k)(x) for x in xs] for k in first} == first


class _TermSeries(levydam.scale._SeriesEvaluator):
    """The reference series: the trapezoid terms summed one FFT
    convolution at a time until their geometric majorant drops below
    1e-12, then the discount by a Python forward substitution.  The grid,
    its halvings and refine_diff are inherited."""

    def _series_on_grid(self, xs):
        n = len(xs)
        F = self._ladder_cdf(xs)
        b = np.diff(F)
        size = sp_fft.next_fast_len(2 * (n - 1) - 1, True)
        b_hat = sp_fft.rfftn(b, [size], axes=[0])
        Fk = np.ones(n)
        acc = Fk.copy()
        k = 0
        while self.rho ** (k + 1) / (1.0 - self.rho) >= 1e-12 and k < 400:
            k += 1
            avg = 0.5 * (Fk[1:] + Fk[:-1])
            a_hat = sp_fft.rfftn(avg, [size], axes=[0])
            conv = sp_fft.irfftn(a_hat * b_hat, [size], axes=[0])[:n - 1]
            Fk = np.concatenate(([0.0], np.maximum(conv, 0.0)))
            acc += (self.rho ** k) * Fk
        w0 = acc / self.zeta
        if self.alpha == 0.0:
            return w0
        h, alpha = xs[1] - xs[0], self.alpha
        out = np.empty_like(w0)
        out[0] = w0[0]
        rev = w0[::-1].copy()  # contiguous: the same products, faster
        denom = 1.0 - 0.5 * alpha * h * w0[0]
        for j in range(1, n):
            inner = np.dot(out[1:j], rev[n - j:n - 1]) if j > 1 else 0.0
            conv = 0.5 * out[0] * w0[j] + inner
            out[j] = (w0[j] + alpha * h * conv) / denom
        return out


def _forward_substitution(d, c, r):
    y = np.empty(len(r))
    for m in range(len(r)):
        y[m] = (r[m] + np.dot(c[m:0:-1], y[:m])) / d
    return y


class TestSeriesConvolution:
    """The series solves two lower triangular Toeplitz systems, which must
    give the term-by-term series and its forward-substituted discount."""

    MODELS = {
        "cp_exponential": lambda: compound_poisson_exp(2.0, 1.0, 1.0),
    }
    LEAF = levydam.scale._LEAF

    # 1000 merges directly only, 4097 by real FFT too
    @pytest.mark.parametrize("n", [1, 2, LEAF - 1, LEAF, LEAF + 1, 1000, 4097])
    def test_solve_equals_forward_substitution(self, n):
        rng = np.random.default_rng(n)
        for c in (rng.random(n) * (2.0 / n),
                  rng.random(n) * np.exp(-np.arange(n) / 50.0) / 50.0):
            d, r = 1.0 + rng.random(), rng.random(n)
            got = levydam.scale._toeplitz_solve(d, c, r)
            want = _forward_substitution(d, c, r)
            assert np.max(np.abs(got - want) / want) < 1e-13

    def test_solve_leaves_no_reference_cycles(self):
        rng = np.random.default_rng(0)
        c, r = rng.random(4097) / 4097, rng.random(4097)
        gc.collect()
        gc.disable()
        try:
            levydam.scale._toeplitz_solve(1.0, c, r)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("name,alpha,x_max", [
        *((name, alpha, 4.5) for name in sorted(MODELS)
          for alpha in (0.0, 0.5, 2.0)),
        *(("cp_exponential", alpha, x_max) for alpha in (0.5, 2.0)
          for x_max in (30.0, 60.5))])
    def test_table_equals_term_series(self, name, alpha, x_max):
        model = self.MODELS[name]()
        got = ScaleFunctionSet(model, alpha, method=CONVOLUTION_SERIES,
                               x_max=x_max)._ev
        want = _TermSeries(model, alpha, x_max)
        assert np.array_equal(got.grid_x, want.grid_x)
        assert abs(got.refine_diff - want.refine_diff) <= 1e-12
        assert np.max(np.abs(got.grid_w - want.grid_w)
                      / np.abs(want.grid_w)) <= 1e-12

    def test_unconverged_refinement_warns_and_keeps_grid(self, caplog,
                                                         monkeypatch):
        model = compound_poisson_exp(2.0, 1.0, 1.0)
        with caplog.at_level(logging.WARNING, logger="levydam"):
            converged = ScaleFunctionSet(model, 0.5, x_max=4.5)
            assert caplog.records == []
            assert converged._ev.refine_diff < levydam.scale._REFINE_TOL
            monkeypatch.setattr(levydam.scale, "_MAX_REFINEMENTS", 1)
            ref = ScaleFunctionSet(model, 0.5, x_max=4.5)
            caplog.clear()
            monkeypatch.setattr(levydam.scale, "_REFINE_TOL", 1e-300)
            s = ScaleFunctionSet(model, 0.5, x_max=4.5)
        assert [r.name for r in caplog.records] == ["levydam"]
        assert "not below refine_tol" in caplog.text
        assert s._ev.refine_diff == ref._ev.refine_diff
        assert np.array_equal(s.grid[0], ref.grid[0])
        assert np.array_equal(s.grid[1], ref.grid[1])
