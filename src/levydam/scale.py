"""Scale function machinery for spectrally positive Levy input.

For a model with exponent ``phi`` and a discount rate ``alpha >= 0`` the
scale function ``W`` is the increasing right continuous function on
[0, inf) with Laplace transform ``1 / (phi(beta) - alpha)`` for
``beta > eta(alpha)``; it vanishes on the negatives.  The adjoint function
is ``Z(x) = 1 + alpha * int_0^x W``, and ``Wbar(x) = int_0^x W``.

Three evaluation methods are provided:

* closed forms for pure Brownian input,
* a convolution series for compound Poisson input, whose jumps are
  exponential, with jump load ``rho = mu / zeta < 1`` on a uniform grid
  over [0, x_max]: the ladder series to all orders and its discount
  ``W_a = W + a W * W_a`` (Kuznetsov, Kyprianou and Rivero 2012, section 2)
  are one triangular Toeplitz solve each,
* numerical Laplace inversion (fixed Talbot contour applied to the
  exponentially tilted transforms), available for every family, since every
  exponent accepts complex arguments.  W' is inverted from its own transform,
  ``s / (phi(s) - alpha) - W(0+)`` (Kuznetsov, Kyprianou and Rivero 2012,
  sections 2-3), not differenced from W.  An array of points is inverted
  in batches, each point's contour summed on its own, and every value is
  kept per point.

A ``ScaleFunctionSet`` is a fixed function of the model, the discount rate,
the method and ``x_max``: it is built once and never changes, so sets can be
shared freely.  The series answers on [0, x_max] only and raises
``ValueError`` beyond it; closed forms and inversion answer anywhere.  The
set itself gives every function its value at and below 0; the evaluators
see positive points only.  A float is evaluated as a 0-d array and returned
as a float.
"""

from __future__ import annotations

import logging
import math
from typing import Callable

import numpy as np
from scipy import fft as sp_fft
from scipy.interpolate import PchipInterpolator

from .models import BrownianDrift, CompoundPoissonDrift, LevyModel

CLOSED_FORM_BROWNIAN = "closed_form_brownian"
CONVOLUTION_SERIES = "convolution_series"
LAPLACE_INVERSION = "laplace_inversion"

_log = logging.getLogger("levydam")


# the series grid: the starting step as a fraction of the range, the
# sup-norm target between successive grid halvings relative to the function
# scale, and the most halvings
_GRID_FACTOR = 1e-3
_REFINE_TOL = 1e-7
_MAX_REFINEMENTS = 3
# triangular Toeplitz solves: unknowns per leaf, and the most unknowns of a
# block whose merge convolves directly rather than by real FFT
_LEAF = 128
_DIRECT_MAX = 1024
# contour nodes of the inversion method
_TALBOT_NODES = 24


def _toeplitz_solve(d: float, c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The y with ``y[m] d - sum_{l<m} c[m-l] y[l] = r[m]`` for every m.

    Divide and conquer: a leaf of ``_LEAF`` unknowns is a product with its
    inverse matrix, whose first column is a forward substitution; a merge
    adds the solved left half to the right half by one convolution.  For
    d > 0 and c, r >= 0 every term summed is nonnegative.
    """
    k = min(len(r), _LEAF)
    col = np.empty(k)
    col[0] = 1.0 / d
    for m in range(1, k):
        col[m] = np.dot(c[m:0:-1], col[:m]) / d
    idx = np.arange(k)
    inv = np.tril(col[idx[:, None] - idx])  # tril zeroes the wrapped lags
    y = np.array(r, dtype=float)
    _solve_block(y, c, inv, 0, len(y))
    return y


def _solve_block(y: np.ndarray, c: np.ndarray, inv: np.ndarray,
                 lo: int, hi: int):
    """Solve in place for y[lo:hi], which holds its right-hand side plus
    the terms of every unknown before lo."""
    n = hi - lo
    if n <= len(inv):
        y[lo:hi] = inv[:n, :n] @ y[lo:hi]
        return
    mid = lo + _LEAF * ((-(-n // _LEAF) + 1) // 2)
    _solve_block(y, c, inv, lo, mid)
    # entries mid-lo-1 .. n-2 of the convolution of y[lo:mid] with c[1:n];
    # a circular one of length >= n - 1 wraps nothing onto them
    left, kernel = y[lo:mid], c[1:n]
    if n <= _DIRECT_MAX:
        y[mid:hi] += np.convolve(left, kernel, "valid")
    else:
        size = sp_fft.next_fast_len(n - 1, True)
        spec = sp_fft.rfft(left, size) * sp_fft.rfft(kernel, size)
        y[mid:hi] += sp_fft.irfft(spec, size)[mid - lo - 1:n - 1]
    _solve_block(y, c, inv, mid, hi)


def _talbot(fhat: Callable, ts: np.ndarray, n_nodes: int) -> np.ndarray:
    """Fixed Talbot inversion of a Laplace transform at each time of the
    array ts > 0.  fhat maps an array of contour points to transform
    values entry by entry, and each time's contour is summed on its own, so
    a time's value is the same float whatever the other times are."""
    m = n_nodes
    theta = np.arange(m) * (math.pi / m)
    r = 0.4 * m
    cot = np.empty(m)
    cot[0] = 0.0
    cot[1:] = 1.0 / np.tan(theta[1:])
    r_t = r / ts
    p = r_t[:, None] * theta * (cot + 1j)
    p[:, 0] = r_t
    gamma = np.empty(p.shape, dtype=np.complex128)
    gamma[:, 0] = 0.5 * math.exp(r)
    gamma[:, 1:] = np.exp(ts[:, None] * p[:, 1:]) * (
        1.0 + 1j * theta[1:] * (1.0 + cot[1:] ** 2) - 1j * cot[1:])
    vals = fhat(p)
    return np.array([2.0 / (5.0 * t) * float(np.real(np.dot(g, v)))
                     for t, g, v in zip(ts.tolist(), gamma, vals)])


# ---------------------------------------------------------------------------
# Evaluators: each maps a 1-d array of points x > 0 to values
# ---------------------------------------------------------------------------

class _Evaluator:
    """Z = 1 + alpha Wbar, which the closed forms override; the set asks
    for Z at alpha > 0 only."""

    alpha: float

    def z(self, x):
        return 1.0 + self.alpha * self.wbar(x)


class _BrownianClosedForm(_Evaluator):
    """Exact formulas for Brownian input with drift mu and variance sigma2."""

    def __init__(self, mu: float, sigma2: float, alpha: float):
        self.mu = mu
        self.sigma2 = sigma2
        self.alpha = alpha
        self.delta = math.sqrt(2.0 * alpha * sigma2 + mu * mu)

    def w(self, x):
        p = self.mu / self.sigma2
        if self.delta == 0.0:
            return 2.0 * x / self.sigma2
        q = self.delta / self.sigma2
        return (2.0 / self.delta) * np.exp(p * x) * np.sinh(q * x)

    def wp(self, x):
        p = self.mu / self.sigma2
        if self.delta == 0.0:
            return np.full_like(x, 2.0 / self.sigma2)
        q = self.delta / self.sigma2
        return p * self.w(x) + (2.0 / self.sigma2) * np.exp(p * x) * np.cosh(q * x)

    def z(self, x):
        p = self.mu / self.sigma2
        q = self.delta / self.sigma2
        return np.exp(p * x) * (np.cosh(q * x)
                                - (self.mu / self.delta) * np.sinh(q * x))

    def wbar(self, x):
        if self.alpha > 0.0:
            return (self.z(x) - 1.0) / self.alpha
        if self.mu == 0.0:
            return x * x / self.sigma2
        m, s2 = self.mu, self.sigma2
        return (s2 / (2.0 * m * m)) * np.expm1(2.0 * m * x / s2) - x / m


class _SeriesEvaluator(_Evaluator):
    """Convolution series on a uniform grid over [0, x_max] for compound
    Poisson input, by two Toeplitz solves per grid.

    ``refine_diff`` is the sup-norm difference, relative to the function
    scale, between the kept grid and the one of twice its step; it is
    infinite when no halving was made.  A grid that does not reach
    ``_REFINE_TOL`` is kept, with a warning on the ``levydam`` logger.
    """

    def __init__(self, model: LevyModel, alpha: float, x_max: float):
        self.model = model
        self.alpha = alpha
        self.zeta = model.zeta
        self.rho = model.rho
        if self.rho >= 1.0:
            raise ValueError("convolution series requires rho = mu/zeta < 1, "
                             f"got rho = {self.rho:.4f}")
        self._build(x_max)

    # F is the ladder height law: the integrated jump tail over its mean,
    # for exponential jumps the jump law itself
    def _ladder_cdf(self, xs: np.ndarray) -> np.ndarray:
        return -np.expm1(-xs / self.model.jumps.mean)

    def _series_on_grid(self, xs: np.ndarray) -> np.ndarray:
        # the trapezoid series acc = sum_k rho^k F^{*k} to all orders solves
        # acc = 1 + rho [0, dF conv avg(acc)], where acc[0] = 1
        half = 0.5 * self.rho * np.diff(self._ladder_cdf(xs))
        c = np.concatenate(([0.0], half[:-1] + half[1:]))
        acc = _toeplitz_solve(1.0 - half[0], c, 1.0 + half)
        w0 = np.append(1.0, acc) / self.zeta
        if self.alpha == 0.0:
            return w0
        # W_a = W + a W conv W_a by the trapezoid rule, W_a(0) = W(0); its
        # power series summed term by term would lose digits on wide grids
        ah = self.alpha * (xs[1] - xs[0])
        wa = _toeplitz_solve(1.0 - 0.5 * ah * w0[0], ah * w0[:-1],
                             w0[1:] * (1.0 + 0.5 * ah * w0[0]))
        return np.append(w0[0], wa)

    def _build(self, x_max: float):
        base = 1.0 / _GRID_FACTOR
        # keep the step roughly proportional to the policy scale, with a cap
        # so that wide ranges stay affordable
        n0 = int(min(max(base, x_max / 10.0 * base), 4.0 * base))
        n = max(n0, 256)
        xs = np.linspace(0.0, x_max, n + 1)
        vals = self._series_on_grid(xs)
        diff = math.inf
        for _ in range(_MAX_REFINEMENTS):
            n2 = 2 * n
            xs2 = np.linspace(0.0, x_max, n2 + 1)
            vals2 = self._series_on_grid(xs2)
            diff = float(np.max(np.abs(vals2[::2] - vals)
                                / np.maximum(np.abs(vals2[::2]), 1.0)))
            xs, vals, n = xs2, vals2, n2
            if diff < _REFINE_TOL:
                break
        if diff >= _REFINE_TOL:
            _log.warning("convolution series grid of %d steps on [0, %g] kept "
                         "with halving difference %.3g, not below refine_tol "
                         "%.3g", n, x_max, diff, _REFINE_TOL)
        self.refine_diff = diff
        self.x_max = x_max
        self.grid_x = xs
        self.grid_w = vals
        self._interp = PchipInterpolator(xs, vals, extrapolate=False)
        self._interp_d = self._interp.derivative()
        self._interp_int = self._interp.antiderivative()

    def _inside(self, x):
        top = float(np.max(x))
        if top > self.x_max:
            raise ValueError(f"the convolution series is built on [0, "
                             f"{self.x_max:g}] and is asked for x = {top:g}; "
                             "build the scale set with a larger x_max")
        return x

    def w(self, x):
        return self._interp(self._inside(x))

    def wp(self, x):
        return self._interp_d(self._inside(x))

    def wbar(self, x):
        return self._interp_int(self._inside(x))


# times per batched inversion: 24 contour nodes x 16 bytes x 256 times is
# 98 kB per temporary
_TALBOT_BATCH = 256


class _InversionEvaluator(_Evaluator):
    """Fixed Talbot inversion of the tilted transforms: 1/(phi(s) - alpha)
    for W_eta(x) = exp(-eta x) W(x), s = p + eta, and for its derivative
    p/(phi(s) - alpha) - W(0+), from which W' = exp(eta x) (eta W_eta +
    W_eta').

    The tilt removes the exponential growth of W, so the inverted targets
    are O(1) and the contour sees only left-plane singularities.  Each
    inverted value is kept per point.
    """

    def __init__(self, model: LevyModel, alpha: float, eta_alpha: float):
        self.model = model
        self.alpha = alpha
        self.eta = eta_alpha
        self._w_cache: dict[float, float] = {}
        self._wp_cache: dict[float, float] = {}
        self._wbar_cache: dict[float, float] = {}

    def _w_hat(self, p):
        return 1.0 / (self.model.phi(p + self.eta) - self.alpha)

    def _wp_hat(self, p):
        """Transform of W_eta'.  For bounded variation input, where
        W(0+) = 1/zeta and phi(s) = zeta s - Psi(s), it is written as
        (Psi(s) + alpha - zeta eta) / (zeta (phi(s) - alpha)): the
        difference p/(phi(s) - alpha) - 1/zeta cancels at the large p that
        small x puts on the contour."""
        model, s = self.model, p + self.eta
        denom = model.phi(s) - self.alpha
        if not model.is_bounded_variation:
            return p / denom
        psi = model.measure.one_minus_exp(s)
        return ((psi + self.alpha - model.zeta * self.eta)
                / (model.zeta * denom))

    def _wbar_hat(self, p):
        return 1.0 / ((p + self.eta) * (self.model.phi(p + self.eta) - self.alpha))

    def _values(self, x, cache: dict, fhat: Callable):
        """exp(eta x) times the tilted inversion at every point of x; the
        points not kept in cache yet are inverted in batches of
        _TALBOT_BATCH times and kept."""
        xs = x.tolist()
        new = [v for v in dict.fromkeys(xs) if v not in cache]
        for i in range(0, len(new), _TALBOT_BATCH):
            ts = new[i:i + _TALBOT_BATCH]
            vals = _talbot(fhat, np.array(ts), _TALBOT_NODES).tolist()
            cache.update((t, math.exp(self.eta * t) * v)
                         for t, v in zip(ts, vals))
        return np.array([cache[v] for v in xs])

    def w(self, x):
        return self._values(x, self._w_cache, self._w_hat)

    def wp(self, x):
        return self.eta * self.w(x) + self._values(x, self._wp_cache,
                                                   self._wp_hat)

    def wbar(self, x):
        return self._values(x, self._wbar_cache, self._wbar_hat)


# ---------------------------------------------------------------------------
# Facade
# ---------------------------------------------------------------------------

class ScaleFunctionSet:
    """W, W', Z and Wbar of one model at one discount rate.

    The construction picks a method automatically unless one is forced:
    closed forms for pure Brownian input, the convolution series for compound
    Poisson input with rho < 1, Laplace inversion otherwise.  ``x_max``
    is the range [0, x_max] of the series grid; the other methods answer
    anywhere.
    """

    def __init__(self, model: LevyModel, alpha: float,
                 method: str | None = None, x_max: float = 10.0):
        if alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if not x_max > 0:
            raise ValueError("x_max must be positive")
        self.model = model
        self.alpha = float(alpha)
        self.x_max = float(x_max)
        self.eta_alpha = model.eta(alpha)
        if method is None:
            method = _default_method(model)
        self.method = method
        if method == CLOSED_FORM_BROWNIAN:
            if model.has_jumps or model.is_bounded_variation:
                raise ValueError("closed forms apply to pure Brownian input only")
            self._ev = _BrownianClosedForm(model.mu, model.sigma2, self.alpha)
        elif method == CONVOLUTION_SERIES:
            if not isinstance(model, CompoundPoissonDrift):
                raise ValueError("the convolution series needs compound "
                                 "Poisson input")
            self._ev = _SeriesEvaluator(model, self.alpha, self.x_max)
        elif method == LAPLACE_INVERSION:
            self._ev = _InversionEvaluator(model, self.alpha, self.eta_alpha)
        else:
            raise ValueError(f"unknown scale method {method!r}")

    # -- evaluation: a float (or a 0-d array) gives a float, an array an
    # array of its shape

    @staticmethod
    def _at(fn, x, at_zero: float, below: float):
        """fn at the positive entries of x, at_zero at 0 and below on the
        negatives."""
        arr = np.asarray(x, dtype=float)
        out = np.where(arr < 0, below, np.where(arr == 0, at_zero, np.nan))
        pos = arr > 0
        if pos.any():
            out[pos] = fn(arr[pos])
        return float(out) if np.ndim(x) == 0 else out

    def w(self, x):
        """W(x); zero for negative x."""
        return self._at(self._ev.w, x, self.w_at_zero(), 0.0)

    def wp(self, x):
        """Right derivative of W; defined on [0, inf).  At 0 it is the limit
        W'(0+): 2/sigma2 with a Brownian part, else (alpha + nu(0, inf)) /
        zeta^2, infinite for jumps of infinite activity."""
        if np.any(np.asarray(x) < 0):
            raise ValueError("the derivative is defined for x >= 0")
        model = self.model
        if model.sigma2 > 0.0:
            at_zero = 2.0 / model.sigma2
        else:
            at_zero = (self.alpha + model.measure.total) / model.zeta ** 2
        return self._at(self._ev.wp, x, at_zero, 0.0)

    def z(self, x):
        """Z(x) = 1 + alpha * int_0^x W; equals 1 for x <= 0."""
        z = self._ev.z if self.alpha > 0.0 else np.ones_like
        return self._at(z, x, 1.0, 1.0)

    def wbar(self, x):
        """int_0^x W(y) dy; zero for x <= 0."""
        return self._at(self._ev.wbar, x, 0.0, 0.0)

    def w_at_zero(self) -> float:
        """W(0+): 1/zeta for bounded variation input, 0 otherwise."""
        model = self.model
        return 1.0 / model.zeta if model.is_bounded_variation else 0.0

    @property
    def grid(self):
        """(x, W(x)) arrays of the evaluation cache, if the method has one."""
        xs = getattr(self._ev, "grid_x", None)
        if xs is None:
            return None
        return xs, self._ev.grid_w


def _default_method(model: LevyModel) -> str:
    """Pick the most accurate applicable method for the family.

    Gamma and inverse Gaussian input take inversion: their ladder height
    distributions have unbounded densities at zero, which would drag a
    uniform-grid series to roughly 1e-5 accuracy, while their exponents
    have closed complex forms that invert to near machine precision.
    """
    if isinstance(model, BrownianDrift) and not model.has_jumps:
        return CLOSED_FORM_BROWNIAN
    if isinstance(model, CompoundPoissonDrift) and model.rho < 1.0:
        return CONVOLUTION_SERIES
    return LAPLACE_INVERSION
