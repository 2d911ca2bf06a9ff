"""Exit analysis for the dam content process.

Everything here is assembled from one ``ScaleFunctionSet`` (fill phase, the
plain or infimum-reflected input killed when it first reaches the release
threshold) or from the shifted set of the release phase (input minus release
rate, reflected at the capacity, killed at the lower threshold):

* potential densities of the four killed processes,
* Laplace transforms and means of the exit times,
* the law of the content at the moment the threshold is crossed (overshoot
  density above the threshold plus a creeping atom at the threshold), and
* the transform of the full cycle length obtained by composing the fill
  phase overshoot law with the release phase transform.

Functions are pure; the discount rate is the one carried by the scale set.
An overshoot law evaluates its density at most once per point, and
``fill_overshoot_law`` builds each law once per scale set while a caller
holds it, so every cycle functional computed from one set shares the law.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .scale import ScaleFunctionSet

_QUAD = dict(epsabs=1e-11, epsrel=1e-9, limit=300)
_TAIL_EPS = 1e-15


def _quad_pts(f, lo, hi, pts=()):
    interior = sorted(p for p in pts if lo < p < hi)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        if interior:
            val, _ = quad(f, lo, hi, points=interior, **_QUAD)
        else:
            val, _ = quad(f, lo, hi, **_QUAD)
    return val


# ---------------------------------------------------------------------------
# Potential densities
# ---------------------------------------------------------------------------

TWO_SIDED_KILLED = "two_sided_killed"
UP_KILLED = "up_killed"
REFLECTED_INFIMUM = "reflected_infimum"
RELEASE_PHASE = "release_phase"


@dataclass
class PotentialDensity:
    """Discounted occupation density of a killed content process.

    ``density(x, y)`` is the absolutely continuous part; ``atom_at_zero(x)``
    is the weight of the atom at 0 (reflected fill phase only, nonzero for
    bounded variation input).  ``y_support(x)`` yields integration limits for
    the continuous part.
    """

    kind: str
    density: Callable
    atom_at_zero: Callable | None
    x_range: tuple
    y_range: tuple
    scale_set: ScaleFunctionSet = field(repr=False)
    _mass_tail: Callable | None = field(default=None, repr=False)

    def integrate(self, x: float, fn: Callable, lo: float | None = None,
                  hi: float | None = None, points=()) -> float:
        """Integral of fn against the potential measure at start state x."""
        y_lo = self.y_range[0] if lo is None else max(lo, self.y_range[0])
        y_hi = self.y_range[1] if hi is None else min(hi, self.y_range[1])
        val = 0.0
        if y_lo < y_hi:
            if math.isinf(y_lo) or math.isinf(y_hi):
                raise ValueError("explicit finite limits are required here")
            val = _quad_pts(lambda y: fn(y) * self.density(x, y), y_lo, y_hi,
                            pts=tuple(points) + (x,))
        if self.atom_at_zero is not None and y_lo <= 0.0 <= y_hi:
            val += fn(0.0) * self.atom_at_zero(x)
        return val

    def mass(self, x: float) -> float:
        """Total potential mass at start state x (expected discounted time)."""
        y_lo, y_hi = self.y_range
        tail = 0.0
        if math.isinf(y_lo):
            s = self.scale_set
            eta = s.eta_alpha
            if eta <= 0.0:
                return math.inf
            # below x the density is W(lam-x) e^{-eta (lam - y)} exactly
            lam = y_hi
            tail = s.w(lam - x) * math.exp(-eta * (lam - x)) / eta
            y_lo = x
        if math.isinf(y_hi):
            # infinite capacity release: extend in blocks until negligible
            val = 0.0
            lo, step = y_lo, max(4.0 * (x - y_lo + 1.0), 4.0)
            for _ in range(60):
                chunk = _quad_pts(lambda y: self.density(x, y), lo, lo + step,
                                  pts=(x,))
                val += chunk
                lo += step
                if abs(chunk) < 1e-13 * max(1.0, abs(val)):
                    break
            return val + tail
        val = _quad_pts(lambda y: self.density(x, y), y_lo, y_hi, pts=(x,))
        if self.atom_at_zero is not None:
            val += self.atom_at_zero(x)
        return val + tail


def potential_two_sided(s: ScaleFunctionSet, a: float, lam: float) -> PotentialDensity:
    """Potential of the plain input killed on leaving [a, lam]."""
    if a >= lam:
        raise ValueError("need a < lam")
    w, denom = s.w, s.w(lam - a)

    def density(x, y):
        if y < a or y > lam:
            return 0.0
        return w(lam - x) * w(y - a) / denom - w(y - x)

    return PotentialDensity(TWO_SIDED_KILLED, density, None, (a, lam), (a, lam), s)


def potential_up_killed(s: ScaleFunctionSet, lam: float) -> PotentialDensity:
    """Potential of the plain input killed at first passage above lam."""
    w, eta = s.w, s.eta_alpha

    def density(x, y):
        if y > lam:
            return 0.0
        return w(lam - x) * math.exp(-eta * (lam - y)) - w(y - x)

    return PotentialDensity(UP_KILLED, density, None, (-math.inf, lam),
                            (-math.inf, lam), s)


def potential_reflected(s: ScaleFunctionSet, lam: float) -> PotentialDensity:
    """Potential of the infimum-reflected input killed above lam.

    The measure lives on [0, lam): an absolutely continuous part plus an atom
    at 0 of weight W(0) W(lam - x) / W'(lam), which vanishes for unbounded
    variation input.
    """
    if lam <= 0:
        raise ValueError("need lam > 0")
    w, wp = s.w, s.wp
    wp_lam = wp(lam)
    w0 = s.w_at_zero()

    def density(x, y):
        if y < 0 or y >= lam:
            return 0.0
        return w(lam - x) * wp(y) / wp_lam - w(y - x)

    def atom(x):
        return w0 * w(lam - x) / wp_lam

    return PotentialDensity(REFLECTED_INFIMUM, density,
                            atom if w0 > 0 else None, (0.0, lam), (0.0, lam), s)


def potential_release(s_M: ScaleFunctionSet, tau: float, V: float) -> PotentialDensity:
    """Potential of the release phase content killed at tau.

    ``s_M`` must be built on the shifted model (input minus release rate).
    With infinite capacity the capacity ratio degenerates to the downward
    passage transform exp(-eta_M (x - tau)).
    """
    if tau >= V:
        raise ValueError("need tau < V")
    w, z = s_M.w, s_M.z
    eta = s_M.eta_alpha

    if math.isinf(V):
        def density(x, y):
            if y <= tau:
                return 0.0
            return math.exp(-eta * (x - tau)) * w(y - tau) - w(y - x)
    else:
        z_denom = z(V - tau)

        def density(x, y):
            if y <= tau or y > V:
                return 0.0
            return z(V - x) * w(y - tau) / z_denom - w(y - x)

    return PotentialDensity(RELEASE_PHASE, density, None, (tau, V), (tau, V), s_M)


# ---------------------------------------------------------------------------
# Exit transforms and means
# ---------------------------------------------------------------------------

def exit_lt_up(s: ScaleFunctionSet, x: float, lam: float) -> float:
    """E_x[exp(-alpha T+_lam)] for the plain input, alpha from the scale set.

    At alpha = 0 the monotone limit is returned: 1 when the input drifts up,
    and the finite passage probability 1 - phi'(0+) W(lam - x) otherwise.
    """
    if x >= lam:
        return 1.0
    alpha = s.alpha
    if alpha == 0.0:
        if s.eta_alpha > 0.0:
            return 1.0
        slope = float(s.model.phi_prime(0.0))
        return 1.0 - slope * s.w(lam - x)
    return s.z(lam - x) - (alpha / s.eta_alpha) * s.w(lam - x)


def exit_mean_up(s: ScaleFunctionSet, x: float, lam: float) -> float:
    """E_x[T+_lam] for the plain input; infinite when the input drifts down."""
    _require_zero_alpha(s)
    if x >= lam:
        return 0.0
    eta0 = s.eta_alpha
    if eta0 <= 0.0:
        return math.inf
    return s.w(lam - x) / eta0 - s.wbar(lam - x)


def exit_lt_reflected(s: ScaleFunctionSet, x: float, lam: float) -> float:
    """E_x[exp(-alpha tau_lam)] for the infimum-reflected input."""
    if not 0 <= x <= lam:
        raise ValueError("need 0 <= x <= lam")
    if x == lam:
        return 1.0
    alpha = s.alpha
    if alpha == 0.0:
        return 1.0
    return s.z(lam - x) - s.w(lam - x) * alpha * s.w(lam) / s.wp(lam)


def exit_mean_reflected(s: ScaleFunctionSet, x: float, lam: float) -> float:
    """E_x[tau_lam] for the infimum-reflected input."""
    _require_zero_alpha(s)
    if not 0 <= x <= lam:
        raise ValueError("need 0 <= x <= lam")
    return s.w(lam - x) * s.w(lam) / s.wp(lam) - s.wbar(lam - x)


def release_exit_lt(s_M: ScaleFunctionSet, x: float, tau: float, V: float) -> float:
    """E_x[exp(-alpha T-_tau)] during release; x in [tau, V]."""
    _check_release_args(x, tau, V)
    if s_M.alpha == 0.0:
        return 1.0
    if math.isinf(V):
        return math.exp(-s_M.eta_alpha * (x - tau))
    return s_M.z(V - x) / s_M.z(V - tau)


def release_exit_mean(s_M: ScaleFunctionSet, x: float, tau: float, V: float) -> float:
    """E_x[T-_tau] during release.

    With infinite capacity this is (x - tau) / (M - mean inflow) when the
    release rate exceeds the mean inflow, infinite otherwise.
    """
    _require_zero_alpha(s_M)
    _check_release_args(x, tau, V)
    if math.isinf(V):
        net_down = float(s_M.model.phi_prime(0.0))
        if net_down <= 0.0:
            return math.inf
        return (x - tau) / net_down
    return s_M.wbar(V - tau) - s_M.wbar(V - x)


def _require_zero_alpha(s):
    if s.alpha != 0.0:
        raise ValueError("expected means require a scale set built at alpha = 0")


def _check_release_args(x, tau, V):
    if tau >= V:
        raise ValueError("need tau < V")
    if not (tau <= x <= V):
        raise ValueError("need tau <= x <= V")


# ---------------------------------------------------------------------------
# Overshoot laws
# ---------------------------------------------------------------------------

@dataclass
class OvershootLaw:
    """Discounted law of the content at the end of the fill phase.

    ``density`` is the z-density of E_x[e^{-alpha T}; content at T in dz]
    for z above the threshold; ``atom_at_lambda`` is the mass of a creeping
    crossing, sitting exactly at the threshold.  ``components`` caches the
    unnormalised kernel pieces for inspection.
    """

    x: float
    lam: float
    alpha: float
    density: Callable
    atom_at_lambda: float
    z_cut: float
    components: dict = field(default_factory=dict, repr=False)

    def integrate(self, fn: Callable, lo: float | None = None,
                  hi: float | None = None) -> float:
        """Integral of fn against the density part over (lo, hi]."""
        lo = self.lam if lo is None else max(lo, self.lam)
        hi = self.z_cut if hi is None or math.isinf(hi) else min(hi, self.z_cut)
        if hi <= lo:
            return 0.0
        return _quad_pts(lambda z: fn(z) * self.density(z), lo, hi)

    def density_mass(self, lo: float | None = None, hi: float | None = None) -> float:
        return self.integrate(lambda z: 1.0, lo, hi)

    def mass_above(self, v: float) -> float:
        return self.density_mass(lo=v)

    def total_mass(self) -> float:
        return self.atom_at_lambda + self.density_mass()


def _memo_per_point(s: ScaleFunctionSet, fn: Callable) -> Callable:
    """fn with each value kept; a grid rebuild of s drops the kept values."""
    cache: dict = {}
    generation = s.generation

    def memo(z):
        nonlocal generation
        if s.generation != generation:
            cache.clear()
            generation = s.generation
        val = cache.get(z)
        if val is None:
            val = cache[z] = fn(z)
        return val

    return memo


def _jump_density(s: ScaleFunctionSet):
    measure = s.model.measure
    if measure is None:
        return None
    if measure.density is None:
        raise ValueError("analytic overshoot laws require a Levy density; "
                         "purely atomic jump measures are not supported here")
    return measure.density


def overshoot_up(s: ScaleFunctionSet, x: float, lam: float) -> OvershootLaw:
    """Law of (discounted) first passage state above lam for the plain input.

    Pure Brownian input is rejected: crossing is by creeping and the law is a
    point mass at lam with the exit transform as its weight.
    """
    if x > lam:
        raise ValueError("need x <= lam")
    if not s.model.has_jumps:
        raise ValueError("the plain overshoot law is degenerate at lam for "
                         "continuous input; use the exit transform directly")
    if x == lam:
        return OvershootLaw(x, lam, s.alpha, lambda z: 0.0, 1.0, lam)
    nu = _jump_density(s)
    measure = s.model.measure
    cut = measure.tail_quantile(_TAIL_EPS)
    pot = potential_up_killed(s, lam)

    def density(z):
        if z <= lam:
            return 0.0
        y_lo = z - cut
        if y_lo >= lam:
            return 0.0
        return _quad_pts(lambda y: pot.density(x, y) * nu(z - y), y_lo, lam,
                         pts=(x, 0.0))

    density = _memo_per_point(s, density)
    z_cut = lam + cut
    atom = 0.0
    if s.model.sigma2 > 0.0:
        # jump diffusions also creep; the residual mass against the exit
        # transform sits at lam
        total = _quad_pts(density, lam, z_cut)
        atom = max(exit_lt_up(s, x, lam) - total, 0.0)
    return OvershootLaw(x, lam, s.alpha, density, atom, z_cut)


def overshoot_reflected(s: ScaleFunctionSet, x: float, lam: float) -> OvershootLaw:
    """Law of the first passage state above lam for the reflected input.

    The density part divides the jump kernel by W'(lam); the creeping atom
    at lam carries the rest of the exit transform mass.  For continuous
    input the law is the pure atom.
    """
    if not 0 <= x <= lam:
        raise ValueError("need 0 <= x <= lam")
    transform = exit_lt_reflected(s, x, lam)
    if not s.model.has_jumps or x == lam:
        return OvershootLaw(x, lam, s.alpha, lambda z: 0.0, transform, lam)
    nu = _jump_density(s)
    measure = s.model.measure
    cut = measure.tail_quantile(_TAIL_EPS)
    w, wp = s.w, s.wp
    wp_lam = wp(lam)
    w0 = s.w_at_zero()
    w_lam_x = w(lam - x)
    alpha = s.alpha

    def kernel(z):
        """l(x, dz)/dz: unnormalised jump kernel of the reflected crossing."""
        if z <= lam:
            return 0.0
        y_lo = max(z - cut, 0.0)
        first = w0 * nu(z) if w0 > 0 else 0.0
        if y_lo < lam:
            first += _quad_pts(lambda y: wp(y) * nu(z - y), y_lo, lam)
        second = 0.0
        y_lo2 = max(z - cut, x)
        if y_lo2 < lam:
            second = _quad_pts(lambda y: w(y - x) * nu(z - y), y_lo2, lam)
        return w_lam_x * first - wp_lam * second

    kernel = _memo_per_point(s, kernel)

    def density(z):
        return kernel(z) / wp_lam

    z_cut = lam + cut
    v_alpha = wp_lam * s.z(lam - x) - alpha * w_lam_x * w(lam)
    l_at_lam = _quad_pts(kernel, lam, z_cut)
    if s.model.sigma2 > 0.0:
        atom = max((v_alpha - l_at_lam) / wp_lam, 0.0)
    else:
        # bounded variation input cannot creep upward; the identity
        # V_alpha = L_alpha(lam) holds and the residual is quadrature noise
        atom = 0.0
    law = OvershootLaw(x, lam, alpha, density, atom, z_cut)
    law.components.update(
        kernel=kernel, v_alpha=v_alpha, l_tail_at_lam=l_at_lam,
        tail_mass=lambda z: _quad_pts(kernel, max(z, lam), z_cut))
    return law


def fill_overshoot_law(s: ScaleFunctionSet, x: float, lam: float,
                       reflected: bool) -> OvershootLaw:
    """Overshoot law of the configured fill phase, handling continuous input.

    For continuous plain input the law is the pure creeping atom with the
    exit transform as weight, which is what the cycle composition needs.
    Starting exactly at the threshold the fill phase has length zero and the
    law is a unit atom there.  While a caller holds the law, later calls
    with the same (s, x, lam, reflected) return it; treat it as read-only.
    """
    memo = s.memo()
    key = ("fill_overshoot_law", x, lam, reflected)
    law = memo.get(key)
    if law is None:
        law = memo[key] = _fill_overshoot_law(s, x, lam, reflected)
    return law


def _fill_overshoot_law(s, x, lam, reflected):
    if x == lam:
        return OvershootLaw(x, lam, s.alpha, lambda z: 0.0, 1.0, lam)
    if reflected:
        return overshoot_reflected(s, x, lam)
    if not s.model.has_jumps:
        return OvershootLaw(x, lam, s.alpha, lambda z: 0.0,
                            exit_lt_up(s, x, lam), lam)
    return overshoot_up(s, x, lam)


def overshoot_expectation(law: OvershootLaw, fn: Callable, V: float) -> float:
    """Expectation of fn(content at crossing, capped at V) under the law.

    Mass above the capacity is lumped at V, matching the capping of the
    release phase start state.
    """
    val = law.atom_at_lambda * fn(law.lam)
    if math.isinf(V):
        val += law.integrate(fn)
    else:
        val += law.integrate(fn, law.lam, V)
        if law.z_cut > V:
            val += law.mass_above(V) * fn(V)
    return val


# ---------------------------------------------------------------------------
# Full cycle transform
# ---------------------------------------------------------------------------

def cycle_end_lt(model, policy, alpha: float, x: float, reflected: bool = True,
                 s: ScaleFunctionSet | None = None,
                 s_M: ScaleFunctionSet | None = None,
                 options=None) -> float:
    """E_x[exp(-alpha T*_0)], the transform of the first full cycle length.

    Splits the cycle at the fill phase crossing: the overshoot law (capped at
    the capacity) feeds the release phase transform.  For x at or above the
    threshold the cycle is just the remaining release phase.
    """
    lam, tau, M, V = policy.lam, policy.tau, policy.M, policy.V
    if s_M is None:
        from .scale import shifted_scale_set
        s_M = shifted_scale_set(model, M, alpha, options=options)
    if x >= lam:
        return release_exit_lt(s_M, min(x, V), tau, V)
    if s is None:
        s = ScaleFunctionSet(model, alpha, options=options)

    law = fill_overshoot_law(s, x, lam, reflected)
    return overshoot_expectation(
        law, lambda z: release_exit_lt(s_M, min(z, V), tau, V), V)
