"""Scale function machinery for spectrally positive Levy input.

For a model with exponent ``phi`` and a discount rate ``alpha >= 0`` the
scale function ``W`` is the increasing right continuous function on
[0, inf) with Laplace transform ``1 / (phi(beta) - alpha)`` for
``beta > eta(alpha)``; it vanishes on the negatives.  The adjoint function
is ``Z(x) = 1 + alpha * int_0^x W``, and ``Wbar(x) = int_0^x W``.

Three evaluation methods are provided:

* closed forms for pure Brownian input,
* a convolution series for bounded variation input with jump load
  ``rho = mu / zeta < 1``, built on a uniform grid and summed with a
  certified geometric majorant; each term is one real FFT convolution at a
  fixed padded length, and the spectrum of the ladder height increments is
  taken once per grid and shared by all terms,
* numerical Laplace inversion (fixed Talbot contour applied to the
  exponentially tilted transform), available whenever the exponent can be
  evaluated at complex arguments; an array of points is inverted in
  batches, each point's contour summed on its own, and every value is
  kept per point.

A ``ScaleFunctionSet`` bundles the model, the discount rate, the cached root
``eta(alpha)`` and the evaluators.  Evaluation is pure, so sets can be shared
freely; the one exception to immutability is the series grid, which is
rebuilt in place when asked for a point beyond its range (``generation``
counts these rebuilds, and ``memo`` drops what was derived from the old
grid).  A Python float is evaluated on a scalar path of the series and
inversion methods that returns exactly the float of the array path without
its numpy overhead.
"""

from __future__ import annotations

import logging
import math
import weakref
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import fft as sp_fft
from scipy.interpolate import PchipInterpolator

from .models import LevyModel

CLOSED_FORM_BROWNIAN = "closed_form_brownian"
CONVOLUTION_SERIES = "convolution_series"
LAPLACE_INVERSION = "laplace_inversion"

_log = logging.getLogger("levydam")


@dataclass(frozen=True)
class ScaleOptions:
    """Numerical controls for scale function construction.

    ``x_max`` is the initial grid range (extended on demand),
    ``grid_factor`` sets the starting step as a fraction of the range,
    ``refine_tol`` is the sup-norm target between successive grid halvings
    relative to the function scale, ``series_tol`` truncates the convolution
    series via its geometric majorant, and ``talbot_nodes`` is the number of
    contour nodes used by the inversion method.
    """

    x_max: float = 10.0
    grid_factor: float = 1e-3
    refine_tol: float = 1e-7
    series_tol: float = 1e-12
    max_refinements: int = 3
    max_terms: int = 400
    talbot_nodes: int = 24


def _volterra_discount(w0: np.ndarray, h: float, alpha: float) -> np.ndarray:
    """Discounted scale function from the zero-discount one.

    Solves the renewal identity W_a = W + a * (W conv W_a), the resummed
    form of the discount power series, by trapezoid forward substitution.
    Summing the series term by term is numerically unstable on wide grids
    (roundoff is re-amplified by roughly exp(a * int W) per term), while the
    Volterra forward solve is stable.
    """
    n = len(w0)
    out = np.empty_like(w0)
    out[0] = w0[0]
    rev = w0[::-1]
    denom = 1.0 - 0.5 * alpha * h * w0[0]
    for j in range(1, n):
        inner = np.dot(out[1:j], rev[n - j:n - 1]) if j > 1 else 0.0
        conv = 0.5 * out[0] * w0[j] + inner
        out[j] = (w0[j] + alpha * h * conv) / denom
    return out


def _head_convolver(b: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Map ``a`` of the length m of ``b`` to ``(a * b)[:m]``, the head of
    their linear convolution.

    Pads to the length ``scipy.signal.fftconvolve`` picks and repeats its
    real FFT steps, so the result equals ``fftconvolve(a, b)[:m]`` bit for
    bit.  The spectrum of ``b`` is taken once, so each call costs two real
    FFTs.
    """
    m = len(b)
    size = sp_fft.next_fast_len(2 * m - 1, True)
    b_hat = sp_fft.rfftn(b, [size], axes=[0])

    def conv(a: np.ndarray) -> np.ndarray:
        a_hat = sp_fft.rfftn(a, [size], axes=[0])
        return sp_fft.irfftn(a_hat * b_hat, [size], axes=[0])[:m]

    return conv


def _ppoly_at(breaks: list, coeffs: np.ndarray, x: float) -> float:
    """One value of a scipy ``PPoly`` at breaks[0] <= x <= breaks[-1].

    Picks the interval and sums the local power series in the order of
    scipy's compiled evaluation, so the result equals the array evaluation
    bit for bit.
    """
    i = min(bisect_right(breaks, x), len(breaks) - 1) - 1
    s = x - breaks[i]
    res, power = 0.0, 1.0
    for c in reversed(coeffs[:, i].tolist()):
        res += c * power
        power *= s
    return res


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


def _difference_points(x: float):
    """Step and points of the finite difference for W'(x): one-sided close
    to the origin, where W may jump, central elsewhere."""
    h = 1e-3 * max(1.0, abs(x))
    if x < 2.0 * h:
        h = 1e-4
        return h, True, (x, x + h, x + 2 * h, x + 0.5 * h)
    h = min(h, x * 0.5)
    return h, False, (x + h, x - h, x + 0.5 * h, x - 0.5 * h)


# ---------------------------------------------------------------------------
# Evaluators
# ---------------------------------------------------------------------------

class _BrownianClosedForm:
    """Exact formulas for Brownian input with drift mu and variance sigma2.

    No scalar path: libm and numpy ``exp`` may differ in the last bit.
    """

    scalar = False
    generation = 0

    def __init__(self, mu: float, sigma2: float, alpha: float):
        self.mu = mu
        self.sigma2 = sigma2
        self.alpha = alpha
        self.delta = math.sqrt(2.0 * alpha * sigma2 + mu * mu)

    def w(self, x):
        x = np.asarray(x, dtype=float)
        p = self.mu / self.sigma2
        if self.delta == 0.0:
            val = 2.0 * x / self.sigma2
        else:
            q = self.delta / self.sigma2
            val = (2.0 / self.delta) * np.exp(p * x) * np.sinh(q * x)
        return np.where(x < 0, 0.0, val)

    def wp(self, x):
        x = np.asarray(x, dtype=float)
        p = self.mu / self.sigma2
        if self.delta == 0.0:
            return np.full_like(x, 2.0 / self.sigma2)
        q = self.delta / self.sigma2
        return p * self.w(x) + (2.0 / self.sigma2) * np.exp(p * x) * np.cosh(q * x)

    def z(self, x):
        x = np.asarray(x, dtype=float)
        if self.alpha == 0.0:
            return np.ones_like(x)
        p = self.mu / self.sigma2
        q = self.delta / self.sigma2
        val = np.exp(p * x) * (np.cosh(q * x) - (self.mu / self.delta) * np.sinh(q * x))
        return np.where(x < 0, 1.0, val)

    def wbar(self, x):
        x = np.asarray(x, dtype=float)
        if self.alpha > 0.0:
            return (self.z(x) - 1.0) / self.alpha
        if self.mu == 0.0:
            return x * x / self.sigma2
        m, s2 = self.mu, self.sigma2
        return (s2 / (2.0 * m * m)) * np.expm1(2.0 * m * x / s2) - x / m

    def w_at_zero(self) -> float:
        return 0.0


class _SeriesEvaluator:
    """Convolution series on a uniform grid for bounded variation input.

    ``refine_diff`` is the sup-norm difference, relative to the function
    scale, between the kept grid and the one of twice its step; it is
    infinite when no halving was made.  A grid that does not reach
    ``refine_tol`` is kept, with a warning on the ``levydam`` logger.
    """

    scalar = True

    def __init__(self, model: LevyModel, alpha: float, opts: ScaleOptions):
        self.model = model
        self.alpha = alpha
        self.opts = opts
        self.zeta = model.zeta
        self.rho = model.rho
        if self.rho >= 1.0:
            raise ValueError("convolution series requires rho = mu/zeta < 1, "
                             f"got rho = {self.rho:.4f}")
        self.generation = 0
        self._build(opts.x_max)

    # F is the distribution function with density tail(x)/mu
    def _ladder_cdf(self, xs: np.ndarray) -> np.ndarray:
        model = self.model
        measure = model.measure
        from .models import AtomJumps, ExponentialJumps

        jump = measure.jump_dist
        if isinstance(jump, ExponentialJumps):
            return -np.expm1(-xs / jump.mean)
        if isinstance(jump, AtomJumps):
            # integrated tail of a discrete law is piecewise linear
            vals = np.zeros_like(xs)
            for s, p in zip(jump.sizes, jump.probs):
                vals += p * np.minimum(xs, s)
            return vals / jump.mean
        from .models import GammaDrift, InverseGaussianDrift
        if isinstance(model, GammaDrift):
            from scipy.special import exp1
            b = model.b
            out = -np.expm1(-b * xs) + xs * b * np.where(xs > 0, exp1(np.maximum(b * xs, 1e-300)), 0.0)
            out[xs <= 0] = 0.0
            return np.minimum(out, 1.0)
        if isinstance(model, InverseGaussianDrift):
            from scipy.special import erf
            c, sig = model.c, model.sigma
            with np.errstate(divide="ignore", invalid="ignore"):
                tail = np.where(xs > 0, measure.tail(np.maximum(xs, 1e-300)), 0.0)
            out = erf(c * np.sqrt(np.maximum(xs, 0.0) / (2.0 * sig * sig))) + xs * c * tail
            out[xs <= 0] = 0.0
            return np.minimum(out, 1.0)
        # generic: integrate the tail cumulatively (trapezoid)
        tail_vals = np.asarray(measure.tail(np.maximum(xs, 1e-300)), dtype=float)
        tail_vals[xs <= 0] = float(measure.tail(1e-300))
        steps = np.diff(xs)
        cum = np.concatenate(([0.0], np.cumsum(0.5 * (tail_vals[1:] + tail_vals[:-1]) * steps)))
        return np.minimum(cum / measure.mu, 1.0)

    def _series_on_grid(self, xs: np.ndarray) -> np.ndarray:
        n = len(xs)
        F = self._ladder_cdf(xs)
        conv_dF = _head_convolver(np.diff(F))
        Fk = np.ones(n)
        acc = Fk.copy()
        k = 0
        tol = self.opts.series_tol
        while self.rho ** (k + 1) / (1.0 - self.rho) >= tol and k < self.opts.max_terms:
            k += 1
            avg = 0.5 * (Fk[1:] + Fk[:-1])
            Fk = np.concatenate(([0.0], np.maximum(conv_dF(avg), 0.0)))
            acc += (self.rho ** k) * Fk
        w0 = acc / self.zeta
        if self.alpha == 0.0:
            return w0
        return _volterra_discount(w0, xs[1] - xs[0], self.alpha)

    def _build(self, x_max: float):
        opts = self.opts
        base = 1.0 / opts.grid_factor
        # keep the step roughly proportional to the policy scale, with a cap
        # so that wide tail extensions stay affordable
        n0 = int(min(max(base, x_max / 10.0 * base), 4.0 * base))
        n = max(n0, 256)
        xs = np.linspace(0.0, x_max, n + 1)
        vals = self._series_on_grid(xs)
        diff = math.inf
        for _ in range(opts.max_refinements):
            n2 = 2 * n
            xs2 = np.linspace(0.0, x_max, n2 + 1)
            vals2 = self._series_on_grid(xs2)
            diff = float(np.max(np.abs(vals2[::2] - vals)
                                / np.maximum(np.abs(vals2[::2]), 1.0)))
            xs, vals, n = xs2, vals2, n2
            if diff < opts.refine_tol:
                break
        if diff >= opts.refine_tol:
            _log.warning("convolution series grid of %d steps on [0, %g] kept "
                         "with halving difference %.3g, not below refine_tol "
                         "%.3g", n, x_max, diff, opts.refine_tol)
        self.refine_diff = diff
        self.x_max = x_max
        self.grid_x = xs
        self.grid_w = vals
        self._breaks = xs.tolist()
        self._interp = PchipInterpolator(xs, vals, extrapolate=False)
        self._interp_d = self._interp.derivative()
        anti = self._interp.antiderivative()
        self._interp_int = anti

    def _ensure(self, x):
        top = float(np.max(x)) if np.size(x) else 0.0
        if top > self.x_max:
            self._build(max(1.5 * top, 2.0 * self.x_max))
            self.generation += 1

    def w(self, x):
        x = np.asarray(x, dtype=float)
        self._ensure(x)
        return np.where(x < 0, 0.0, self._interp(np.clip(x, 0.0, self.x_max)))

    def wp(self, x):
        x = np.asarray(x, dtype=float)
        self._ensure(x)
        return self._interp_d(np.clip(x, 0.0, self.x_max))

    def wbar(self, x):
        x = np.asarray(x, dtype=float)
        self._ensure(x)
        return np.where(x <= 0, 0.0, self._interp_int(np.clip(x, 0.0, self.x_max)))

    def z(self, x):
        if self.alpha == 0.0:
            return np.ones_like(np.asarray(x, dtype=float))
        return 1.0 + self.alpha * self.wbar(x)

    # scalar path for finite floats; beyond the grid the array path rebuilds

    def w_scalar(self, x: float) -> float:
        if x < 0.0:
            return 0.0
        if x > self.x_max:
            return float(self.w(np.asarray(x)))
        return _ppoly_at(self._breaks, self._interp.c, x)

    def wp_scalar(self, x: float) -> float:
        if not 0.0 <= x <= self.x_max:
            return float(self.wp(np.asarray(x)))
        return _ppoly_at(self._breaks, self._interp_d.c, x)

    def wbar_scalar(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        if x > self.x_max:
            return float(self.wbar(np.asarray(x)))
        return _ppoly_at(self._breaks, self._interp_int.c, x)

    def z_scalar(self, x: float) -> float:
        if self.alpha == 0.0:
            return 1.0
        return 1.0 + self.alpha * self.wbar_scalar(x)

    def w_at_zero(self) -> float:
        return 1.0 / self.zeta


# times per batched inversion: 24 contour nodes x 16 bytes x 256 times is
# 98 kB per temporary
_TALBOT_BATCH = 256


class _InversionEvaluator:
    """Fixed Talbot inversion of the tilted transform 1/(phi(s+eta) - alpha).

    The tilt removes the exponential growth of W, so the inverted target is
    O(1) and the contour sees only left-plane singularities.
    """

    scalar = True
    generation = 0

    def __init__(self, model: LevyModel, alpha: float, eta_alpha: float,
                 opts: ScaleOptions):
        if not model.supports_complex_exponent:
            raise ValueError("Laplace inversion needs an exponent defined for "
                             "complex arguments; use the convolution series")
        self.model = model
        self.alpha = alpha
        self.eta = eta_alpha
        self.nodes = opts.talbot_nodes
        self._w_cache: dict[float, float] = {}
        self._wbar_cache: dict[float, float] = {}

    def _w_hat(self, p):
        return 1.0 / (self.model.phi(p + self.eta) - self.alpha)

    def _wbar_hat(self, p):
        return 1.0 / ((p + self.eta) * (self.model.phi(p + self.eta) - self.alpha))

    def _invert(self, xs, cache: dict, fhat: Callable) -> None:
        """Keep in cache the tilted inversion at every x > 0 (or NaN) of
        the list xs not kept yet, in batches of _TALBOT_BATCH times."""
        new = [v for v in dict.fromkeys(xs) if not v <= 0.0 and v not in cache]
        for i in range(0, len(new), _TALBOT_BATCH):
            ts = new[i:i + _TALBOT_BATCH]
            vals = _talbot(fhat, np.array(ts), self.nodes).tolist()
            cache.update((t, math.exp(self.eta * t) * v)
                         for t, v in zip(ts, vals))

    def w_scalar(self, x: float) -> float:
        if x < 0:
            return 0.0
        if x == 0.0:
            return self.w_at_zero()
        got = self._w_cache.get(x)
        if got is None:
            self._invert([x], self._w_cache, self._w_hat)
            got = self._w_cache[x]
        return got

    def wbar_scalar(self, x: float) -> float:
        if x <= 0:
            return 0.0
        got = self._wbar_cache.get(x)
        if got is None:
            self._invert([x], self._wbar_cache, self._wbar_hat)
            got = self._wbar_cache[x]
        return got

    def w(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            return np.float64(self.w_scalar(float(x)))
        xs = x.ravel().tolist()
        self._invert(xs, self._w_cache, self._w_hat)
        return np.array([self.w_scalar(v) for v in xs]).reshape(x.shape)

    def wbar(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            return np.float64(self.wbar_scalar(float(x)))
        xs = x.ravel().tolist()
        self._invert(xs, self._wbar_cache, self._wbar_hat)
        return np.array([self.wbar_scalar(v) for v in xs]).reshape(x.shape)

    def z(self, x):
        if self.alpha == 0.0:
            return np.ones_like(np.asarray(x, dtype=float))
        return 1.0 + self.alpha * self.wbar(x)

    def wp(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            return np.float64(self.wp_scalar(float(x)))
        xs = x.ravel().tolist()
        self._invert([p for v in xs for p in _difference_points(v)[2]],
                     self._w_cache, self._w_hat)
        return np.array([self.wp_scalar(v) for v in xs]).reshape(x.shape)

    def z_scalar(self, x: float) -> float:
        if self.alpha == 0.0:
            return 1.0
        return 1.0 + self.alpha * self.wbar_scalar(x)

    def wp_scalar(self, x: float) -> float:
        # finite differences with one Richardson level
        w = self.w_scalar
        h, one_sided, (p0, p1, p2, p3) = _difference_points(x)
        if one_sided:
            d1 = (-3.0 * w(p0) + 4.0 * w(p1) - w(p2)) / (2.0 * h)
            d2 = (-3.0 * w(p0) + 4.0 * w(p3) - w(p1)) / h
        else:
            d1 = (w(p0) - w(p1)) / (2.0 * h)
            d2 = (w(p2) - w(p3)) / h
        return (4.0 * d2 - d1) / 3.0

    def w_at_zero(self) -> float:
        if self.model.is_bounded_variation:
            return 1.0 / self.model.zeta
        return 0.0


# ---------------------------------------------------------------------------
# Facade
# ---------------------------------------------------------------------------

class ScaleFunctionSet:
    """Evaluators for W, W', Z and Wbar of one model at one discount rate.

    The construction picks a method automatically unless one is forced:
    closed forms for pure Brownian input, the convolution series for bounded
    variation input with rho < 1, Laplace inversion otherwise.
    """

    def __init__(self, model: LevyModel, alpha: float,
                 method: str | None = None, options: ScaleOptions | None = None):
        if alpha < 0:
            raise ValueError("alpha must be nonnegative")
        self.model = model
        self.alpha = float(alpha)
        self.options = options or ScaleOptions()
        self.eta_alpha = model.eta(alpha)
        if method is None:
            method = _default_method(model)
        self.method = method
        if method == CLOSED_FORM_BROWNIAN:
            if model.has_jumps or model.is_bounded_variation:
                raise ValueError("closed forms apply to pure Brownian input only")
            self._ev = _BrownianClosedForm(model.mu, model.sigma2, self.alpha)
        elif method == CONVOLUTION_SERIES:
            if not model.is_bounded_variation:
                raise ValueError("the convolution series needs bounded variation input")
            self._ev = _SeriesEvaluator(model, self.alpha, self.options)
        elif method == LAPLACE_INVERSION:
            self._ev = _InversionEvaluator(model, self.alpha, self.eta_alpha,
                                           self.options)
        else:
            raise ValueError(f"unknown scale method {method!r}")
        self._scalar = self._ev.scalar
        self._memo = weakref.WeakValueDictionary()
        self._memo_generation = self._ev.generation

    @property
    def generation(self) -> int:
        """Number of in-place grid rebuilds so far (series method only)."""
        return self._ev.generation

    def memo(self) -> weakref.WeakValueDictionary:
        """Store for objects derived from this set, such as overshoot laws.

        Entries are held weakly: they refer back to the set, so a strong
        store would keep dead sets alive until the cyclic collector runs.
        An entry lives while a caller holds it.  The store is emptied
        whenever an in-place grid rebuild changes W, so nothing derived from
        an old grid is handed out again.
        """
        if self._memo_generation != self._ev.generation:
            self._memo = weakref.WeakValueDictionary()
            self._memo_generation = self._ev.generation
        return self._memo

    # -- evaluation ---------------------------------------------------------

    # A finite Python float takes the evaluator's scalar path, which returns
    # exactly the float of the array path.

    def w(self, x):
        """W(x); zero for negative x."""
        if self._scalar and isinstance(x, float) and math.isfinite(x):
            return self._ev.w_scalar(float(x))
        val = self._ev.w(np.asarray(x, dtype=float))
        return float(val) if np.ndim(x) == 0 else val

    def wp(self, x):
        """Right derivative of W; defined on [0, inf)."""
        fast = self._scalar and isinstance(x, float) and math.isfinite(x)
        if (fast or np.ndim(x) == 0) and x < 0:
            raise ValueError("the derivative is defined for x >= 0")
        if fast:
            return self._ev.wp_scalar(float(x))
        val = self._ev.wp(np.asarray(x, dtype=float))
        return float(val) if np.ndim(x) == 0 else val

    def z(self, x):
        """Z(x) = 1 + alpha * int_0^x W; equals 1 for x <= 0."""
        if self._scalar and isinstance(x, float) and math.isfinite(x):
            return 1.0 if x <= 0.0 else self._ev.z_scalar(float(x))
        x_arr = np.asarray(x, dtype=float)
        val = np.where(x_arr <= 0, 1.0, self._ev.z(np.maximum(x_arr, 0.0)))
        return float(val) if np.ndim(x) == 0 else val

    def wbar(self, x):
        """int_0^x W(y) dy for x >= 0."""
        if self._scalar and isinstance(x, float) and math.isfinite(x):
            return 0.0 if x <= 0.0 else self._ev.wbar_scalar(float(x))
        x_arr = np.asarray(x, dtype=float)
        val = np.where(x_arr <= 0, 0.0, self._ev.wbar(np.maximum(x_arr, 0.0)))
        return float(val) if np.ndim(x) == 0 else val

    def w_at_zero(self) -> float:
        """W(0+): 1/zeta for bounded variation input, 0 otherwise."""
        return self._ev.w_at_zero()

    def phi_prime_at_eta(self) -> float:
        return float(self.model.phi_prime(self.eta_alpha))

    @property
    def grid(self):
        """(x, W(x)) arrays of the evaluation cache, if the method has one."""
        xs = getattr(self._ev, "grid_x", None)
        if xs is None:
            return None
        return xs, self._ev.grid_w


def _default_method(model: LevyModel) -> str:
    """Pick the most accurate applicable method for the family.

    Gamma and inverse Gaussian input default to inversion: their ladder
    height distributions have unbounded densities at zero, which drags the
    uniform-grid series to roughly 1e-5 accuracy, while their exponents have
    closed complex forms that invert to near machine precision.
    """
    from .models import BrownianDrift, GammaDrift, InverseGaussianDrift

    if isinstance(model, BrownianDrift) and not model.has_jumps:
        return CLOSED_FORM_BROWNIAN
    if isinstance(model, (GammaDrift, InverseGaussianDrift)):
        return LAPLACE_INVERSION
    if model.is_bounded_variation and model.rho is not None and model.rho < 1.0:
        return CONVOLUTION_SERIES
    if model.supports_complex_exponent:
        return LAPLACE_INVERSION
    raise ValueError("no applicable scale function method: the jump load is "
                     "not below one and the exponent is real-only")


def shifted_model(model: LevyModel, M: float) -> LevyModel:
    """Model of the net inflow minus release at rate M > 0."""
    return model.shifted(M)


def shifted_scale_set(model: LevyModel, M: float, alpha: float,
                      method: str | None = None,
                      options: ScaleOptions | None = None) -> ScaleFunctionSet:
    """Scale function set of the release phase process."""
    return ScaleFunctionSet(shifted_model(model, M), alpha, method=method,
                            options=options)
