"""Spectrally positive Levy input families.

Each model describes the net inflow process of the dam during a period of
zero release.  The process has no negative jumps and is characterised by its
exponent ``phi`` with ``E[exp(-theta * I_t)] = exp(t * phi(theta))``.  The
exponent is strictly convex on [0, inf) with phi(0) = 0, and the mean inflow
per unit time is ``-phi'(0+)``.

Supported families:

* ``BrownianDrift``       -- Brownian motion with drift, optionally with an
                             independent compound Poisson jump component.
* ``CompoundPoissonDrift``-- compound Poisson jumps minus a linear drift.
* ``GammaDrift``          -- gamma subordinator minus a linear drift.
* ``InverseGaussianDrift``-- inverse Gaussian subordinator minus a drift.
* ``GenericBoundedVariation`` -- user supplied jump measure minus a drift.

All bounded variation families store the downward drift rate ``zeta > 0``
and have ``phi(theta) = zeta * theta - int (1 - exp(-theta x)) nu(dx)``.
Models are immutable and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy import special
from scipy.integrate import quad
from scipy.optimize import brentq


class ConvergenceError(RuntimeError):
    """Raised when an iterative numerical routine fails to converge."""


_ETA_REL_TOL = 1e-14


# ---------------------------------------------------------------------------
# Jump size distributions for compound Poisson input
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentialJumps:
    """Exponentially distributed jump sizes with the given mean."""

    mean: float

    def __post_init__(self):
        if self.mean <= 0:
            raise ValueError("jump mean must be positive")

    @property
    def rate(self) -> float:
        return 1.0 / self.mean

    def laplace(self, theta):
        """E[exp(-theta J)], valid for complex theta with Re(theta) > -rate."""
        b = self.rate
        return b / (b + theta)

    def mean_exp(self, theta):
        """E[J exp(-theta J)]."""
        b = self.rate
        return b / (b + theta) ** 2

    def tail(self, x):
        return np.exp(-self.rate * np.maximum(x, 0.0))

    def density(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0, self.rate * np.exp(-self.rate * x), 0.0)

    def sample(self, rng, size):
        return rng.exponential(self.mean, size=size)

    def from_exponential(self, e):
        """One jump per standard exponential e: mean * e, which is bit for
        bit what ``rng.exponential(mean)`` draws from the same bits."""
        return self.mean * e


@dataclass(frozen=True)
class AtomJumps:
    """Discrete jump sizes: atoms (x_i, p_i) with sum(p_i) = 1."""

    sizes: tuple
    probs: tuple

    def __post_init__(self):
        if len(self.sizes) != len(self.probs) or not self.sizes:
            raise ValueError("sizes and probs must be non-empty and equal length")
        if any(x <= 0 for x in self.sizes):
            raise ValueError("jump sizes must be positive")
        if abs(sum(self.probs) - 1.0) > 1e-12 or any(p < 0 for p in self.probs):
            raise ValueError("probs must be nonnegative and sum to one")

    @property
    def mean(self) -> float:
        return float(sum(x * p for x, p in zip(self.sizes, self.probs)))

    def laplace(self, theta):
        return sum(p * np.exp(-theta * x) for x, p in zip(self.sizes, self.probs))

    def mean_exp(self, theta):
        return sum(p * x * np.exp(-theta * x) for x, p in zip(self.sizes, self.probs))

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for s, p in zip(self.sizes, self.probs):
            out = out + np.where(x <= s, p, 0.0)
        return out

    density = None

    def sample(self, rng, size):
        idx = rng.choice(len(self.sizes), size=size, p=np.asarray(self.probs))
        return np.asarray(self.sizes)[idx]

    def from_exponential(self, e):
        """One jump per standard exponential e: the quantile of the uniform
        u = 1 - exp(-e), found on the cdf as ``rng.choice`` finds it."""
        cdf = np.cumsum(self.probs)
        cdf /= cdf[-1]
        # without the last entry, so u rounded up to 1 takes the last atom
        idx = np.searchsorted(cdf[:-1], -np.expm1(-e), side="right")
        return np.asarray(self.sizes)[idx]


# ---------------------------------------------------------------------------
# Levy measure descriptor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevyMeasure:
    """Jump measure nu on (0, inf).

    ``density`` is the Levy density (None for purely atomic measures),
    ``tail`` maps x to nu([x, inf)), ``mu`` is the first moment
    ``int_0^inf x nu(dx)`` and ``total`` is the total mass (inf for
    infinite activity).  ``one_minus_exp`` evaluates
    ``int (1 - exp(-theta x)) nu(dx)`` and must accept complex theta
    whenever ``complex_ok`` is set.
    """

    density: Callable | None
    tail: Callable
    mu: float
    total: float
    one_minus_exp: Callable
    x_mean_exp: Callable
    complex_ok: bool = True
    jump_dist: object | None = None

    def tail_quantile(self, eps: float) -> float:
        """Smallest x = 2^k, k >= 0, with nu([x, inf)) < eps."""
        x = 1.0
        for _ in range(200):
            if float(self.tail(x)) < eps:
                return x
            x *= 2.0
        raise ConvergenceError("levy measure tail does not decay below %g" % eps)


def compound_poisson_measure(rate: float, jumps) -> LevyMeasure:
    if rate <= 0:
        raise ValueError("jump rate must be positive")
    density = None
    if getattr(jumps, "density", None) is not None:
        density = lambda x: rate * jumps.density(x)
    return LevyMeasure(
        density=density,
        tail=lambda x: rate * jumps.tail(x),
        mu=rate * jumps.mean,
        total=rate,
        one_minus_exp=lambda th: rate * (1.0 - jumps.laplace(th)),
        x_mean_exp=lambda th: rate * jumps.mean_exp(th),
        complex_ok=True,
        jump_dist=jumps,
    )


def gamma_measure(a: float, b: float) -> LevyMeasure:
    """nu(dx) = a * exp(-b x) / x dx on (0, inf)."""
    if a <= 0 or b <= 0:
        raise ValueError("gamma measure needs a > 0 and b > 0")

    def tail(x):
        return a * special.exp1(b * np.asarray(x, dtype=float))

    return LevyMeasure(
        density=lambda x: a * np.exp(-b * x) / x,
        tail=tail,
        mu=a / b,
        total=math.inf,
        one_minus_exp=lambda th: a * np.log(1.0 + th / b),
        x_mean_exp=lambda th: a / (b + th),
        complex_ok=True,
    )


def inverse_gaussian_measure(sigma: float, c: float) -> LevyMeasure:
    """nu(dx) = (2 pi x^3)^{-1/2} sigma^{-1} exp(-x c^2 / (2 sigma^2)) dx."""
    if sigma <= 0 or c <= 0:
        raise ValueError("inverse Gaussian measure needs sigma > 0 and c > 0")
    q = c * c / (2.0 * sigma * sigma)

    def tail(x):
        x = np.asarray(x, dtype=float)
        # int_x^inf y^{-3/2} exp(-q y) dy = 2 (exp(-q x)/sqrt(x) - sqrt(pi q) erfc(sqrt(q x)))
        val = 2.0 * (np.exp(-q * x) / np.sqrt(x)
                     - math.sqrt(math.pi * q) * special.erfc(np.sqrt(q * x)))
        return val / (sigma * math.sqrt(2.0 * math.pi))

    def one_minus_exp(th):
        return (np.sqrt(c * c + 2.0 * sigma * sigma * th) - c) / (sigma * sigma)

    def x_mean_exp(th):
        return 1.0 / np.sqrt(c * c + 2.0 * sigma * sigma * th)

    return LevyMeasure(
        density=lambda x: np.exp(-q * x) / (sigma * np.sqrt(2.0 * math.pi * x ** 3)),
        tail=tail,
        mu=1.0 / c,
        total=math.inf,
        one_minus_exp=one_minus_exp,
        x_mean_exp=x_mean_exp,
        complex_ok=True,
    )


def generic_measure(density: Callable, tail: Callable, mu: float) -> LevyMeasure:
    """Numerically integrated measure given its density, tail and first moment.

    The exponent integral is evaluated with adaptive quadrature for real
    arguments only, so models built on this measure cannot use the Laplace
    inversion scale method.
    """
    if mu <= 0 or not math.isfinite(mu):
        raise ValueError("generic measure needs a finite positive first moment")
    total = float(tail(1e-12))
    if not math.isfinite(total):
        raise ValueError("generic measure must have finite activity near zero "
                         "after accounting for the tail supplied")

    def one_minus_exp(th):
        if th == 0:
            return 0.0
        # integrate (1 - e^{-th x}) nu(dx); split at 1 to tame the tail
        f = lambda x: -np.expm1(-th * x) * density(x)
        v1, _ = quad(f, 0.0, 1.0, epsabs=1e-12, epsrel=1e-11, limit=200)
        v2, _ = quad(f, 1.0, np.inf, epsabs=1e-12, epsrel=1e-11, limit=200)
        return v1 + v2

    def x_mean_exp(th):
        f = lambda x: x * np.exp(-th * x) * density(x)
        v1, _ = quad(f, 0.0, 1.0, epsabs=1e-12, epsrel=1e-11, limit=200)
        v2, _ = quad(f, 1.0, np.inf, epsabs=1e-12, epsrel=1e-11, limit=200)
        return v1 + v2

    return LevyMeasure(
        density=density,
        tail=tail,
        mu=mu,
        total=total,
        one_minus_exp=one_minus_exp,
        x_mean_exp=x_mean_exp,
        complex_ok=False,
    )


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

class LevyModel:
    """Base class; concrete families implement the exponent and its slope."""

    measure: LevyMeasure | None
    sigma2: float

    def phi(self, theta):
        """Levy exponent, phi(0) = 0, strictly convex on [0, inf)."""
        raise NotImplementedError

    def phi_prime(self, theta):
        raise NotImplementedError

    def mean_input(self) -> float:
        """Mean net inflow per unit time, equal to -phi'(0+)."""
        return -float(self.phi_prime(0.0))

    @property
    def has_jumps(self) -> bool:
        return self.measure is not None

    @property
    def is_bounded_variation(self) -> bool:
        return self.sigma2 == 0.0

    @property
    def supports_complex_exponent(self) -> bool:
        return self.measure is None or self.measure.complex_ok

    @property
    def rho(self) -> float | None:
        """Jump load mu / zeta for bounded variation models, else None."""
        return None

    def shifted(self, M: float) -> "LevyModel":
        """Model of the net process during release at rate M > 0.

        The exponent of the shifted model is phi(theta) + theta * M.
        """
        raise NotImplementedError

    def _check_theta(self, theta):
        if np.isrealobj(theta) and np.any(np.asarray(theta) < 0):
            raise ValueError("theta must be nonnegative")

    def eta(self, alpha: float) -> float:
        """Largest nonnegative root of phi(theta) = alpha.

        Strict convexity makes the root unique to the right of the minimiser;
        it is located by geometric bracket expansion and Brent's method, then
        polished with one Newton step.
        """
        if alpha < 0:
            raise ValueError("alpha must be nonnegative")
        slope0 = float(self.phi_prime(0.0))
        if alpha == 0.0:
            if slope0 >= -1e-13:
                return 0.0
            lo = 1e-12
        else:
            lo = 0.0
        hi = max(1.0, 2.0 * abs(slope0))
        for _ in range(200):
            if self.phi(hi) > alpha:
                break
            hi *= 2.0
        else:
            raise ConvergenceError("could not bracket eta(alpha)")
        f = lambda th: self.phi(th) - alpha
        if alpha == 0.0 and f(lo) >= 0.0:
            # mean is barely negative; the positive root is below lo
            return 0.0
        root = brentq(f, lo, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps,
                      maxiter=200)
        for _ in range(2):
            der = self.phi_prime(root)
            if der > 0:
                step = (self.phi(root) - alpha) / der
                root -= step
                if abs(step) <= _ETA_REL_TOL * max(root, 1.0):
                    break
        return max(root, 0.0)


@dataclass(frozen=True)
class BrownianDrift(LevyModel):
    """Brownian motion with drift mu and variance sigma2.

    An optional compound Poisson component (``jump_rate``, ``jumps``) turns
    the model into a jump diffusion; upward passage then mixes creeping and
    jump crossings.
    """

    mu: float
    sigma2: float
    jump_rate: float = 0.0
    jumps: object | None = None
    measure: LevyMeasure | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        if self.sigma2 <= 0:
            raise ValueError("BrownianDrift needs sigma2 > 0")
        if (self.jump_rate > 0) != (self.jumps is not None):
            raise ValueError("jump_rate and jumps must be supplied together")
        if self.jump_rate > 0:
            object.__setattr__(self, "measure",
                               compound_poisson_measure(self.jump_rate, self.jumps))

    def phi(self, theta):
        self._check_theta(theta)
        val = -self.mu * theta + 0.5 * self.sigma2 * theta * theta
        if self.measure is not None:
            val = val - self.measure.one_minus_exp(theta)
        return val

    def phi_prime(self, theta):
        val = -self.mu + self.sigma2 * theta
        if self.measure is not None:
            val = val - self.measure.x_mean_exp(theta)
        return val

    def shifted(self, M: float) -> "BrownianDrift":
        if M <= 0:
            raise ValueError("release rate must be positive")
        return BrownianDrift(self.mu - M, self.sigma2, self.jump_rate, self.jumps)


class _BoundedVariationModel(LevyModel):
    """Shared behaviour of the drift-minus-subordinator families."""

    zeta: float

    def phi(self, theta):
        self._check_theta(theta)
        return self.zeta * theta - self.measure.one_minus_exp(theta)

    def phi_prime(self, theta):
        return self.zeta - self.measure.x_mean_exp(theta)

    @property
    def sigma2(self) -> float:
        return 0.0

    @property
    def rho(self) -> float:
        return self.measure.mu / self.zeta

    def _check_zeta(self):
        if self.zeta <= 0:
            raise ValueError("bounded variation models need zeta > 0")

    def shifted(self, M: float) -> "_BoundedVariationModel":
        # __post_init__ rebuilds a family's own measure; a generic one is kept
        if M <= 0:
            raise ValueError("release rate must be positive")
        return replace(self, zeta=self.zeta + M)


@dataclass(frozen=True)
class CompoundPoissonDrift(_BoundedVariationModel):
    """Compound Poisson jumps at the given rate minus drift at rate zeta."""

    zeta: float
    rate: float
    jumps: object
    measure: LevyMeasure = field(init=False, repr=False)

    def __post_init__(self):
        self._check_zeta()
        object.__setattr__(self, "measure",
                           compound_poisson_measure(self.rate, self.jumps))


@dataclass(frozen=True)
class GammaDrift(_BoundedVariationModel):
    """Gamma subordinator with Levy density a exp(-b x)/x minus drift zeta."""

    zeta: float
    a: float
    b: float
    measure: LevyMeasure = field(init=False, repr=False)

    def __post_init__(self):
        self._check_zeta()
        object.__setattr__(self, "measure", gamma_measure(self.a, self.b))


@dataclass(frozen=True)
class InverseGaussianDrift(_BoundedVariationModel):
    """Inverse Gaussian subordinator minus drift zeta."""

    zeta: float
    sigma: float
    c: float
    measure: LevyMeasure = field(init=False, repr=False)

    def __post_init__(self):
        self._check_zeta()
        object.__setattr__(self, "measure",
                           inverse_gaussian_measure(self.sigma, self.c))


@dataclass(frozen=True)
class GenericBoundedVariation(_BoundedVariationModel):
    """Bounded variation input with a user supplied jump measure."""

    zeta: float
    measure: LevyMeasure

    def __post_init__(self):
        self._check_zeta()
        # integrability near zero: int_0^1 x nu(dx) <= mu must be finite
        if not math.isfinite(self.measure.mu):
            raise ValueError("generic bounded variation input needs a finite "
                             "jump moment")


def brownian(mu: float, sigma2: float) -> BrownianDrift:
    return BrownianDrift(mu, sigma2)


def compound_poisson_exp(zeta: float, rate: float, jump_mean: float) -> CompoundPoissonDrift:
    """Compound Poisson input with exponential jumps, the workhorse test family."""
    return CompoundPoissonDrift(zeta, rate, ExponentialJumps(jump_mean))
