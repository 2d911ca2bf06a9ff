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

Compound Poisson jumps, alone or in the jump diffusion, have one size law,
``ExponentialJumps``; any other ``jumps`` raises ``ValueError``.

Each family is built by a config ``kind`` of the CLI and sampled by the
Monte Carlo oracle.  Every exponent accepts complex arguments, so Laplace
inversion applies to each of them.

All bounded variation families store the downward drift rate ``zeta > 0``
and have ``phi(theta) = zeta * theta - int (1 - exp(-theta x)) nu(dx)``.
Models are immutable and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np


class ConvergenceError(RuntimeError):
    """Raised when an iterative numerical routine fails to converge."""


_ETA_REL_TOL = 1e-14
_ETA_XTOL = 4.0 * np.finfo(float).eps  # relative step that ends the search


# ---------------------------------------------------------------------------
# Jump size law of compound Poisson input
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


# ---------------------------------------------------------------------------
# Levy measure descriptor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevyMeasure:
    """Jump measure nu on (0, inf).

    ``density`` is the Levy density (every family has one), ``tail`` maps
    x to nu([x, inf)), ``mu`` is the first moment ``int_0^inf x nu(dx)``
    and ``total`` is the total mass (inf for infinite activity).
    ``one_minus_exp`` evaluates
    ``int (1 - exp(-theta x)) nu(dx)`` and ``x_mean_exp`` evaluates
    ``int x exp(-theta x) nu(dx)``; both accept complex theta.
    """

    density: Callable
    tail: Callable
    mu: float
    total: float
    one_minus_exp: Callable
    x_mean_exp: Callable

    def tail_quantile(self, eps: float) -> float:
        """Smallest x = 2^k, k >= 0, with nu([x, inf)) < eps."""
        x = 1.0
        for _ in range(200):
            if float(self.tail(x)) < eps:
                return x
            x *= 2.0
        raise ConvergenceError("levy measure tail does not decay below %g" % eps)


def _compound_poisson_measure(rate: float, jumps) -> LevyMeasure:
    if rate <= 0:
        raise ValueError("jump rate must be positive")
    if not isinstance(jumps, ExponentialJumps):
        raise ValueError("jump sizes must be ExponentialJumps, got "
                         f"{type(jumps).__name__}")
    return LevyMeasure(
        density=lambda x: rate * jumps.density(x),
        tail=lambda x: rate * jumps.tail(x),
        mu=rate * jumps.mean,
        total=rate,
        # 1 - b / (b + th) as th / (b + th), which does not cancel at small th
        one_minus_exp=lambda th: rate * th / (jumps.rate + th),
        x_mean_exp=lambda th: rate * jumps.mean_exp(th),
    )


def _gamma_measure(a: float, b: float) -> LevyMeasure:
    """nu(dx) = a * exp(-b x) / x dx on (0, inf)."""
    if a <= 0 or b <= 0:
        raise ValueError("gamma measure needs a > 0 and b > 0")

    def tail(x):
        from scipy import special  # loaded here only: start-up stays numpy alone
        return a * special.exp1(b * np.asarray(x, dtype=float))

    return LevyMeasure(
        density=lambda x: a * np.exp(-b * x) / x,
        tail=tail,
        mu=a / b,
        total=math.inf,
        one_minus_exp=lambda th: a * np.log1p(th / b),
        x_mean_exp=lambda th: a / (b + th),
    )


def _inverse_gaussian_measure(sigma: float, c: float) -> LevyMeasure:
    """nu(dx) = (2 pi x^3)^{-1/2} sigma^{-1} exp(-x c^2 / (2 sigma^2)) dx."""
    if sigma <= 0 or c <= 0:
        raise ValueError("inverse Gaussian measure needs sigma > 0 and c > 0")
    q = c * c / (2.0 * sigma * sigma)

    def tail(x):
        from scipy import special  # loaded here only: start-up stays numpy alone
        x = np.asarray(x, dtype=float)
        # int_x^inf y^{-3/2} exp(-q y) dy = 2 (exp(-q x)/sqrt(x) - sqrt(pi q) erfc(sqrt(q x)))
        val = 2.0 * (np.exp(-q * x) / np.sqrt(x)
                     - math.sqrt(math.pi * q) * special.erfc(np.sqrt(q * x)))
        return val / (sigma * math.sqrt(2.0 * math.pi))

    def one_minus_exp(th):
        # (sqrt(c^2 + 2 sigma^2 th) - c) / sigma^2, which cancels where
        # 2 sigma^2 |th| < c^2: there as 2 th / (sqrt(..) + c), whose complex
        # quotient costs the Laplace inversion digits elsewhere
        root = np.sqrt(c * c + 2.0 * sigma * sigma * th)
        small = np.abs(th) * (2.0 * sigma * sigma) < c * c
        return np.where(small, 2.0 * th / (root + c),
                        (root - c) / (sigma * sigma))[()]

    def x_mean_exp(th):
        return 1.0 / np.sqrt(c * c + 2.0 * sigma * sigma * th)

    return LevyMeasure(
        density=lambda x: np.exp(-q * x) / (sigma * np.sqrt(2.0 * math.pi * x ** 3)),
        tail=tail,
        mu=1.0 / c,
        total=math.inf,
        one_minus_exp=one_minus_exp,
        x_mean_exp=x_mean_exp,
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
        it is bracketed by geometric expansion, found by Newton's method
        safeguarded by bisection, then polished with up to two Newton steps.
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
        # phi is convex and rises through alpha on [lo, hi], so Newton steps
        # from hi fall monotonically onto the root.  A step bisects instead
        # when Newton's would leave the bracket, meets a slope that is not
        # positive, or fails to halve the step before last: near the root
        # phi - alpha is rounding noise, where Newton steps stop shrinking
        # but bisection still narrows the bracket
        root, step, last = hi, hi - lo, hi - lo
        for _ in range(200):
            val = f(root)
            if val == 0.0:
                break
            if val > 0.0:
                hi = root
            else:
                lo = root
            der = self.phi_prime(root)
            new = root - val / der if der > 0 else lo
            if not (lo < new < hi and 2.0 * abs(new - root) <= last):
                new = 0.5 * (lo + hi)
            last, step = step, abs(new - root)
            root = new
            if step <= _ETA_XTOL * root:
                break
        else:
            raise ConvergenceError("Newton-bisection for eta(alpha) did not "
                                   "converge")
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
    jumps: ExponentialJumps | None = None
    measure: LevyMeasure | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        if self.sigma2 <= 0:
            raise ValueError("BrownianDrift needs sigma2 > 0")
        if (self.jump_rate > 0) != (self.jumps is not None):
            raise ValueError("jump_rate and jumps must be supplied together")
        if self.jump_rate > 0:
            object.__setattr__(self, "measure",
                               _compound_poisson_measure(self.jump_rate, self.jumps))

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

    def _check_zeta(self):
        if self.zeta <= 0:
            raise ValueError("bounded variation models need zeta > 0")

    def shifted(self, M: float) -> "_BoundedVariationModel":
        # __post_init__ rebuilds the family's measure
        if M <= 0:
            raise ValueError("release rate must be positive")
        return replace(self, zeta=self.zeta + M)


@dataclass(frozen=True)
class CompoundPoissonDrift(_BoundedVariationModel):
    """Compound Poisson jumps at the given rate minus drift at rate zeta."""

    zeta: float
    rate: float
    jumps: ExponentialJumps
    measure: LevyMeasure = field(init=False, repr=False)

    def __post_init__(self):
        self._check_zeta()
        object.__setattr__(self, "measure",
                           _compound_poisson_measure(self.rate, self.jumps))


@dataclass(frozen=True)
class GammaDrift(_BoundedVariationModel):
    """Gamma subordinator with Levy density a exp(-b x)/x minus drift zeta."""

    zeta: float
    a: float
    b: float
    measure: LevyMeasure = field(init=False, repr=False)

    def __post_init__(self):
        self._check_zeta()
        object.__setattr__(self, "measure", _gamma_measure(self.a, self.b))


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
                           _inverse_gaussian_measure(self.sigma, self.c))


def brownian(mu: float, sigma2: float) -> BrownianDrift:
    return BrownianDrift(mu, sigma2)


def compound_poisson_exp(zeta: float, rate: float, jump_mean: float) -> CompoundPoissonDrift:
    """Compound Poisson input with exponential jumps, the workhorse test family."""
    return CompoundPoissonDrift(zeta, rate, ExponentialJumps(jump_mean))
