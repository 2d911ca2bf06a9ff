"""Scale function machinery for spectrally positive Levy input.

For a model with exponent ``phi`` and a discount rate ``alpha >= 0`` the
scale function ``W`` is the increasing right continuous function on
[0, inf) with Laplace transform ``1 / (phi(beta) - alpha)`` for
``beta > eta(alpha)``; it vanishes on the negatives.  The adjoint function
is ``Z(x) = 1 + alpha * int_0^x W``, and ``Wbar(x) = int_0^x W``.

Two evaluation methods are provided:

* closed forms for pure Brownian input and for compound Poisson input,
  whose jumps are exponential.  For both, ``phi(beta) = alpha`` clears to a
  quadratic with real roots ``p +- q``, so W is a sum of two exponentials,
  written in ``exp(p x)``, ``cosh(q x)`` and ``sinh(q x)`` (Asmussen, Avram
  and Pistorius 2004; Kuznetsov, Kyprianou and Rivero 2012, sections 2-3);
* numerical Laplace inversion (fixed Talbot contour applied to the
  exponentially tilted transforms), available for every family, since every
  exponent accepts complex arguments.  W' is inverted from its own transform,
  ``s / (phi(s) - alpha) - W(0+)`` (Kuznetsov, Kyprianou and Rivero 2012,
  sections 2-3), not differenced from W.  An array of points is inverted
  in batches, each point's contour summed on its own, and every value is
  kept per point.

A ``ScaleFunctionSet`` is a fixed function of the model, the discount rate
and the method: it is built once and never changes, so sets can be shared
freely.  Both methods answer at any point.  The set itself gives every
function its value at and below 0; the evaluators see positive points only.
A float is evaluated as a 0-d array and returned as a float.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .models import BrownianDrift, CompoundPoissonDrift, LevyModel

CLOSED_FORM = "closed_form"
LAPLACE_INVERSION = "laplace_inversion"

# contour nodes of the inversion method
_TALBOT_NODES = 24
_COSH_MAX = 710.4758600739439  # the largest x with cosh(x), sinh(x) finite


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


class _ClosedForm(_Evaluator):
    """Exact formulas for the two-root families.

    With ``(a0 + a1 s)(phi(s) - alpha) = k s^2 + b1 s - alpha a0``, the
    transform of W is ``(a0 + a1 s) / (k (s - p - q)(s - p + q))``, where
    ``d = sqrt(b1^2 + 4 k alpha a0)``, ``p = -b1 / 2k`` and ``q = d / 2k``:

        W = exp(p x) (2 (a0 + a1 p) sinh(q x) / d + (a1 / k) cosh(q x)),
        Z = exp(p x) (cosh(q x) + (2 alpha a1 + b1) sinh(q x) / d).

    Brownian input has ``k = sigma2 / 2``, ``a0 = 1``, ``a1 = 0`` and
    ``b1 = -mu``.  Compound Poisson input with jump rate ``nu`` and jump
    mean ``1 / c`` has ``k = zeta``, ``a0 = c``, ``a1 = 1`` and
    ``b1 = zeta c - nu - alpha``.  ``q = 0`` needs ``alpha = b1 = 0``, and
    there ``sinh(q x) / q`` is x.  The coefficients are written so that
    Brownian input takes the operations of its textbook formulas.
    """

    def __init__(self, k: float, a0: float, a1: float, b1: float,
                 alpha: float):
        self.alpha = alpha
        self.a0, self.a1, self.b1 = a0, a1, b1
        self.k2 = k2 = 2.0 * k
        self.d = d = math.sqrt(b1 * b1 + 4.0 * k * alpha * a0)
        self.p = p = -b1 / k2
        self.q = d / k2
        # W = e^{px} (w_sinh sinh + w_cosh cosh), Z = e^{px} (cosh + z_sinh
        # sinh) and W' = p W + e^{px} (wp_cosh cosh + wp_sinh sinh)
        self._w_cosh = 2.0 * a1 / k2
        self._wp_cosh = 2.0 * (a0 + a1 * p) / k2
        self._wp_sinh = self._w_cosh * self.q
        if d > 0.0:
            self._w_sinh = 2.0 * (a0 + a1 * p) / d
            self._z_sinh = (2.0 * alpha * a1 + b1) / d

    def _parts(self, x):
        qx = self.q * x
        big = qx > _COSH_MAX
        if not big.any():
            return np.exp(self.p * x), np.cosh(qx), np.sinh(qx)
        # past the overflow of cosh, e^{px} cosh(qx) = e^{px} sinh(qx) =
        # e^{(p+q)x} / 2 to the last bit, so a bounded W is not 0 * inf
        parts = np.ones((3,) + qx.shape)
        parts[:, ~big] = self._parts(x[~big])
        parts[0, big] = 0.5 * np.exp((self.p + self.q) * x[big])
        return parts

    def _w(self, x, e, ch, sh):
        if self.d == 0.0:
            return 2.0 * (self.a0 * x + self.a1) / self.k2
        return self._w_sinh * e * sh + self._w_cosh * e * ch

    def w(self, x):
        return self._w(x, *self._parts(x))

    def wp(self, x):
        e, ch, sh = self._parts(x)
        return (self.p * self._w(x, e, ch, sh) + self._wp_cosh * e * ch
                + self._wp_sinh * e * sh)

    def z(self, x):
        e, ch, sh = self._parts(x)
        return e * (ch + self._z_sinh * sh)

    def wbar(self, x):
        if self.alpha > 0.0:
            return (self.z(x) - 1.0) / self.alpha
        a0, a1, b1, k2 = self.a0, self.a1, self.b1, self.k2
        if b1 == 0.0:
            return x * (a0 * x + 2.0 * a1) / k2
        # alpha = 0: the roots are 0 and r = -2 b1 / k2, and
        # Wbar = (a0 + a1 r) (e^{rx} - 1) k2 / (2 b1^2) + a0 x / b1
        r = -2.0 * b1 / k2
        return ((a0 + a1 * r) * k2 / (2.0 * b1 * b1)
                * np.expm1(-2.0 * b1 * x / k2) + a0 * x / b1)


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
    closed forms for pure Brownian and compound Poisson input, Laplace
    inversion otherwise.  Both answer at any point.

    ``rounding`` is the relative rounding noise of W and W', below which
    ``exits`` refines no integral: 1e-15 for the closed forms, a few ulps.
    Inversion resolves W to 8.5e-13 relative against the Brownian closed
    forms (1e-6 <= x <= 10, four drift, variance and discount settings),
    taken as 1e-11, for W' too, which is inverted from its own transform.
    """

    def __init__(self, model: LevyModel, alpha: float,
                 method: str | None = None):
        if alpha < 0:
            raise ValueError("alpha must be nonnegative")
        self.model = model
        self.alpha = float(alpha)
        self.eta_alpha = model.eta(alpha)
        if method is None:
            method = _default_method(model)
        self.method = method
        self.rounding = 1e-15 if method == CLOSED_FORM else 1e-11
        if method == CLOSED_FORM:
            if not _has_closed_form(model):
                raise ValueError("closed forms apply to pure Brownian and "
                                 "compound Poisson input only")
            self._ev = _closed_form(model, self.alpha)
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


def _has_closed_form(model: LevyModel) -> bool:
    return (isinstance(model, CompoundPoissonDrift)
            or isinstance(model, BrownianDrift) and not model.has_jumps)


def _closed_form(model: LevyModel, alpha: float) -> _ClosedForm:
    if isinstance(model, CompoundPoissonDrift):
        b = model.jumps.rate
        return _ClosedForm(model.zeta, b, 1.0,
                           model.zeta * b - model.rate - alpha, alpha)
    return _ClosedForm(0.5 * model.sigma2, 1.0, 0.0, -model.mu, alpha)


def _default_method(model: LevyModel) -> str:
    """Pick the most accurate applicable method for the family.

    Pure Brownian and compound Poisson input take their closed forms, at
    any load.  The rest take inversion: gamma and inverse Gaussian input,
    whose exponents have closed complex forms that invert to near machine
    precision, and the jump diffusion, whose ``phi = alpha`` clears to a
    cubic rather than a quadratic.
    """
    return CLOSED_FORM if _has_closed_form(model) else LAPLACE_INVERSION
