"""Cost functionals of the two-level release policy.

The policy keeps the release valve shut until the content reaches the upper
threshold, then releases at a fixed rate until the content falls back to the
lower threshold.  Costs consist of an opening charge, a closing charge,
maintenance rates during each phase, and a reward per unit of released
output.  The module assembles

* the expected discounted cost of one regeneration cycle,
* the total discounted cost over an infinite horizon, and
* the long-run average cost per unit time (renewal reward over one cycle),

from the exit transforms, potentials and overshoot laws of the input model.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exits import (
    OvershootLaw,
    _shaped_like,
    cycle_end_lt,
    exit_lt_reflected,
    exit_lt_up,
    exit_mean_reflected,
    exit_mean_up,
    fill_overshoot_law,
    potential_reflected,
    potential_release,
    potential_up_killed,
    quad_errors_into,
    release_exit_lt,
    release_exit_mean,
)
from .models import LevyModel
from .scale import ScaleFunctionSet, ScaleOptions, shifted_scale_set


@dataclass(frozen=True)
class PolicyParams:
    """Release policy: open at lam, release at rate M until tau, capacity V."""

    lam: float
    tau: float
    M: float
    V: float = math.inf

    def __post_init__(self):
        if not (0 <= self.tau < self.lam <= self.V):
            raise ValueError("policy needs 0 <= tau < lam <= V")
        if self.M <= 0:
            raise ValueError("release rate M must be positive")


@dataclass(frozen=True)
class PiecewisePoly:
    """Piecewise polynomial rate function, zero outside its breakpoints.

    ``coeffs[i]`` are ascending-power coefficients in (y - breakpoints[i]) on
    the piece [breakpoints[i], breakpoints[i+1]).
    """

    breakpoints: tuple
    coeffs: tuple

    def __post_init__(self):
        bps = tuple(float(b) for b in self.breakpoints)
        cfs = tuple(tuple(float(c) for c in piece) for piece in self.coeffs)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "coeffs", cfs)
        if len(bps) < 2 or any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing, >= 2 of them")
        if len(cfs) != len(bps) - 1:
            raise ValueError("need one coefficient list per piece")
        if not all(math.isfinite(c) for piece in cfs for c in piece):
            raise ValueError("coefficients must be finite")

    def __call__(self, y: float) -> float:
        bps = self.breakpoints
        if y < bps[0] or y >= bps[-1]:
            return 0.0
        idx = int(np.searchsorted(bps, y, side="right")) - 1
        idx = min(idx, len(self.coeffs) - 1)
        u = y - bps[idx]
        val, power = 0.0, 1.0
        for c in self.coeffs[idx]:
            val += c * power
            power *= u
        return val

    @functools.cached_property
    def _columns(self):
        """(columns, short): coefficient columns over the pieces, padded
        with 0.0 to the longest piece, and per column after the first a
        mask of the pieces it pads (None when it pads none).

        The first column holds 0.0 + c0 * 1.0, the scalar method's first
        partial sum, so a partial sum is never -0.0.
        """
        width = max(1, max(len(piece) for piece in self.coeffs))
        cols = np.zeros((width, len(self.coeffs)))
        for i, piece in enumerate(self.coeffs):
            cols[:len(piece), i] = piece
        cols[0] = 0.0 + cols[0] * 1.0
        lengths = np.array([len(piece) for piece in self.coeffs])
        short = [None if (lengths > k).all() else lengths <= k
                 for k in range(1, width)]
        return cols, short

    def values(self, ys) -> np.ndarray:
        """``self(y)`` for every entry of ``ys``, bit for bit.

        All pieces are summed at once from coefficient columns, each power
        in the scalar method's order, so no Horner rounding enters.  A piece
        with fewer coefficients adds exact zeros for the ones it lacks.
        """
        ys = np.asarray(ys, dtype=float)
        bps = self.breakpoints
        inside = ~((ys < bps[0]) | (ys >= bps[-1]))  # NaN too, as __call__
        cols, short = self._columns
        # the piece of each y; below the support the first, above it and at
        # NaN the last
        idx = np.searchsorted(bps[1:-1], ys, side="right")
        val = cols[0][idx]
        if len(cols) > 1:
            # u = 0 outside the support, so no power overflows there
            u = np.where(inside, ys - np.take(bps, idx), 0.0)
            power = u
            for k, (col, pad) in enumerate(zip(cols[1:], short)):
                if k:
                    power = power * u
                term = col[idx] * power
                if pad is not None:
                    # not 0.0 * power, which is NaN where the power overflows
                    term = np.where(pad[idx], 0.0, term)
                val = val + term
        return np.where(inside, val, 0.0)

    @property
    def support(self):
        return self.breakpoints[0], self.breakpoints[-1]

    @property
    def is_zero(self) -> bool:
        return all(c == 0.0 for piece in self.coeffs for c in piece)

    def bound(self, n_samples: int = 512) -> float:
        ys = np.linspace(self.breakpoints[0], self.breakpoints[-1], n_samples,
                         endpoint=False)
        return float(max(abs(self(y)) for y in ys))

    @classmethod
    def constant(cls, value: float, lo: float, hi: float) -> "PiecewisePoly":
        return cls((lo, hi), ((value,),))

    @classmethod
    def zero(cls) -> "PiecewisePoly":
        return cls((0.0, 1.0), ((0.0,),))


@dataclass(frozen=True)
class CostSpec:
    """Cost coefficients and the two maintenance rate functions.

    ``K1`` scales the opening charge, ``K2`` the closing charge, both paid
    per unit of release rate; ``R`` is the reward per unit of output.  ``g``
    is the maintenance rate while filling, ``g_star`` while releasing.
    Declared bounds are checked against the sampled supremum at construction.
    """

    K1: float
    K2: float
    R: float
    g: PiecewisePoly
    g_star: PiecewisePoly
    g_bound: float | None = None
    g_star_bound: float | None = None

    def __post_init__(self):
        for name in ("K1", "K2", "R"):
            v = getattr(self, name)
            if v < 0 or not math.isfinite(v):
                raise ValueError(f"{name} must be finite and nonnegative")
        for fn, declared, label in ((self.g, self.g_bound, "g"),
                                    (self.g_star, self.g_star_bound, "g_star")):
            sup = fn.bound()
            if not math.isfinite(sup):
                raise ValueError(f"{label} must be bounded")
            if declared is not None and sup > declared + 1e-12:
                raise ValueError(f"{label} exceeds its declared bound: "
                                 f"{sup:.6g} > {declared:.6g}")


# ---------------------------------------------------------------------------
# Phase costs
# ---------------------------------------------------------------------------

def fill_cost(model: LevyModel, s: ScaleFunctionSet, x, lam: float,
              g: PiecewisePoly, reflected: bool = True):
    """Expected discounted maintenance cost until the content reaches lam;
    x is a float or an array of start states of any shape."""
    xs = np.asarray(x, dtype=float).ravel()
    out = np.zeros(xs.size)
    below = xs < lam
    if below.any() and not g.is_zero:
        if reflected:
            pot, lo, hi = potential_reflected(s, lam), 0.0, lam
        else:
            pot = potential_up_killed(s, lam)
            lo, hi = g.support[0], min(g.support[1], lam)
        out[below] = pot.integrals(xs[below], g.values, lo, hi, g.breakpoints)
    return _shaped_like(x, out)


def release_cost(model: LevyModel, s_M: ScaleFunctionSet, x, tau: float,
                 V: float, g_star: PiecewisePoly):
    """Expected discounted maintenance cost until the content falls to tau;
    x is a float or an array of start states of any shape."""
    xs = np.asarray(x, dtype=float).ravel()
    if not np.all((tau <= xs) & (xs <= V)):
        raise ValueError("need tau <= x <= V")
    out = np.zeros(xs.size)
    above = xs > tau
    if above.any() and not g_star.is_zero:
        pot = potential_release(s_M, tau, V)
        lo, hi = g_star.support
        hi = hi if math.isinf(V) else min(hi, V)
        out[above] = pot.integrals(xs[above], g_star.values, max(lo, tau), hi,
                                   g_star.breakpoints)
    return _shaped_like(x, out)


# ---------------------------------------------------------------------------
# Cycle and horizon costs
# ---------------------------------------------------------------------------

def cycle_cost(model: LevyModel, policy: PolicyParams, costs: CostSpec,
               alpha: float, x: float, reflected: bool = True,
               s: ScaleFunctionSet | None = None,
               s_M: ScaleFunctionSet | None = None,
               options: ScaleOptions | None = None) -> float:
    """Expected discounted cost of the first cycle started at content x.

    Above the threshold only the release phase remains: the opening charge,
    the foregone-reward term and the release maintenance.  At or below the
    threshold the fill phase cost, both charges and the release cost started
    from the capped crossing state are combined.
    """
    if alpha <= 0:
        raise ValueError("cycle_cost needs alpha > 0; "
                         "use long_run_average_cost for the average criterion")
    lam, tau, M, V = policy.lam, policy.tau, policy.M, policy.V
    if x > V:
        raise ValueError("need x <= V")
    if s_M is None:
        s_M = shifted_scale_set(model, M, alpha, options=options)
    if x > lam:
        rel_lt = release_exit_lt(s_M, x, tau, V)
        return (M * (costs.K1 - costs.R * (1.0 - rel_lt) / alpha)
                + release_cost(model, s_M, x, tau, V, costs.g_star))
    if s is None:
        s = ScaleFunctionSet(model, alpha, options=options)
    q_fill = (exit_lt_reflected(s, x, lam) if reflected
              else exit_lt_up(s, x, lam))
    law = fill_overshoot_law(s, x, lam, reflected)
    q_cycle = law.expectation(
        lambda z: release_exit_lt(s_M, np.minimum(z, V), tau, V), V)
    fill = fill_cost(model, s, x, lam, costs.g, reflected)
    rel = law.expectation(
        lambda z: release_cost(model, s_M, np.minimum(z, V), tau, V,
                               costs.g_star), V, costs.g_star.breakpoints)
    return (M * (costs.K2 + costs.K1 * q_fill
                 - (costs.R / alpha) * (q_fill - q_cycle))
            + fill + rel)


def total_discounted_cost(model: LevyModel, policy: PolicyParams,
                          costs: CostSpec, alpha: float, x: float,
                          reflected: bool = True,
                          s: ScaleFunctionSet | None = None,
                          s_M: ScaleFunctionSet | None = None,
                          options: ScaleOptions | None = None) -> float:
    """Total discounted cost over an infinite horizon started at x.

    Geometric resummation over regeneration cycles: first cycle cost plus
    the discounted value of restarting from the lower threshold.
    """
    if alpha <= 0:
        raise ValueError("total discounted cost needs alpha > 0")
    if s is None:
        s = ScaleFunctionSet(model, alpha, options=options)
    if s_M is None:
        s_M = shifted_scale_set(model, policy.M, alpha, options=options)
    args = (model, policy, costs, alpha)
    kw = dict(reflected=reflected, s=s, s_M=s_M, options=options)
    # held so that the cycle functionals below share each law
    held = [fill_overshoot_law(s, y, policy.lam, reflected)
            for y in dict.fromkeys((x, policy.tau)) if y < policy.lam]
    c_x = cycle_cost(*args, x, **kw)
    q_x = cycle_end_lt(model, policy, alpha, x, reflected=reflected, s=s, s_M=s_M)
    tau = policy.tau
    if x == tau:
        c_tau, q_tau = c_x, q_x
    else:
        c_tau = cycle_cost(*args, tau, **kw)
        q_tau = cycle_end_lt(model, policy, alpha, tau, reflected=reflected,
                             s=s, s_M=s_M)
    if q_tau >= 1.0 - 1e-12:
        raise ValueError("cycle transform at tau is numerically 1; "
                         "the discounted series diverges")
    return c_x + q_x * c_tau / (1.0 - q_tau)


def long_run_average_cost(model: LevyModel, policy: PolicyParams,
                          costs: CostSpec, x: float | None = None,
                          reflected: bool = True,
                          s: ScaleFunctionSet | None = None,
                          s_M: ScaleFunctionSet | None = None,
                          options: ScaleOptions | None = None) -> float:
    """Long-run average cost per unit time of running the policy.

    Renewal reward over one regeneration cycle: fixed charges, undiscounted
    maintenance of both phases and the reward on the released volume, over
    the expected cycle length.  Independent of the starting state, which is
    accepted for interface symmetry only.  ``s`` and ``s_M``, when given,
    must be the fill and release sets at alpha = 0.
    """
    lam, tau, M, V = policy.lam, policy.tau, policy.M, policy.V
    s0 = ScaleFunctionSet(model, 0.0, options=options) if s is None else s
    s_M0 = (shifted_scale_set(model, M, 0.0, options=options) if s_M is None
            else s_M)
    if reflected:
        mean_fill = exit_mean_reflected(s0, tau, lam)
    else:
        mean_fill = exit_mean_up(s0, tau, lam)
    if math.isinf(mean_fill):
        raise ValueError("infinite mean cycle: the plain input does not "
                         "drift toward the threshold")
    if math.isinf(V) and float(s_M0.model.phi_prime(0.0)) <= 0.0:
        raise ValueError("infinite mean cycle: release rate does not exceed "
                         "the mean inflow")
    law = fill_overshoot_law(s0, tau, lam, reflected)
    mean_rel = law.expectation(
        lambda z: release_exit_mean(s_M0, np.minimum(z, V), tau, V), V)
    cost_fill = fill_cost(model, s0, tau, lam, costs.g, reflected)
    cost_rel = law.expectation(
        lambda z: release_cost(model, s_M0, np.minimum(z, V), tau, V,
                               costs.g_star), V, costs.g_star.breakpoints)
    numer = (M * (costs.K1 + costs.K2) + cost_fill + cost_rel
             + costs.R * M * mean_fill)
    denom = mean_fill + mean_rel
    return numer / denom - costs.R * M


# ---------------------------------------------------------------------------
# Cached evaluator for sweeps and reports
# ---------------------------------------------------------------------------

def _records_quad_error(method):
    """Run the method with the evaluator collecting quadrature errors."""
    @functools.wraps(method)
    def recorded(self, *args, **kwargs):
        with quad_errors_into(self):
            return method(self, *args, **kwargs)
    return recorded


class PolicyEvaluator:
    """Caches scale function sets per discount rate for repeated evaluation.

    Every quantity at one discount rate uses the same two sets, and the
    evaluator holds each overshoot law it needs, which the sets hand to
    the free functions it calls; so one evaluator per policy computes each
    law once.  ``max_quad_error`` is the largest error estimate of any
    integral computed for the evaluator so far.
    """

    def __init__(self, model: LevyModel, policy: PolicyParams, costs: CostSpec,
                 reflected: bool = True, options: ScaleOptions | None = None):
        self.model = model
        self.policy = policy
        self.costs = costs
        self.reflected = reflected
        self.options = options or ScaleOptions(
            x_max=max(policy.lam, (policy.V if math.isfinite(policy.V)
                                   else policy.lam + 10.0) - policy.tau) + 1.0)
        self._fill_sets: dict[float, ScaleFunctionSet] = {}
        self._release_sets: dict[float, ScaleFunctionSet] = {}
        self._laws: dict[tuple, OvershootLaw] = {}
        self._quad_error = 0.0

    @property
    def max_quad_error(self) -> float:
        return max([self._quad_error]
                   + [law.max_quad_error for law in self._laws.values()])

    @max_quad_error.setter
    def max_quad_error(self, value: float):
        self._quad_error = value

    def fill_set(self, alpha: float) -> ScaleFunctionSet:
        if alpha not in self._fill_sets:
            self._fill_sets[alpha] = ScaleFunctionSet(self.model, alpha,
                                                      options=self.options)
        return self._fill_sets[alpha]

    def release_set(self, alpha: float) -> ScaleFunctionSet:
        if alpha not in self._release_sets:
            self._release_sets[alpha] = shifted_scale_set(
                self.model, self.policy.M, alpha, options=self.options)
        return self._release_sets[alpha]

    def fill_exit_lt(self, alpha: float, x: float | None = None) -> float:
        x = self.policy.tau if x is None else x
        s = self.fill_set(alpha)
        if self.reflected:
            return exit_lt_reflected(s, x, self.policy.lam)
        return exit_lt_up(s, x, self.policy.lam)

    def fill_exit_mean(self, x: float | None = None) -> float:
        x = self.policy.tau if x is None else x
        s = self.fill_set(0.0)
        if self.reflected:
            return exit_mean_reflected(s, x, self.policy.lam)
        return exit_mean_up(s, x, self.policy.lam)

    def release_exit_lt(self, alpha: float, z: float) -> float:
        p = self.policy
        return release_exit_lt(self.release_set(alpha), min(z, p.V), p.tau, p.V)

    def release_exit_mean(self, z: float) -> float:
        p = self.policy
        return release_exit_mean(self.release_set(0.0), min(z, p.V), p.tau, p.V)

    @_records_quad_error
    def overshoot_law(self, alpha: float, x: float | None = None):
        x = self.policy.tau if x is None else x
        key = (alpha, x)
        if key not in self._laws:
            self._laws[key] = fill_overshoot_law(
                self.fill_set(alpha), x, self.policy.lam, self.reflected)
        return self._laws[key]

    def _hold_law(self, alpha: float, x: float):
        """Keep the law a cycle functional started at x will ask for."""
        if x < self.policy.lam:
            self.overshoot_law(alpha, x)

    @_records_quad_error
    def mean_release_time(self) -> float:
        law = self.overshoot_law(0.0)
        p = self.policy
        s_M0 = self.release_set(0.0)
        return law.expectation(
            lambda z: release_exit_mean(s_M0, np.minimum(z, p.V), p.tau, p.V),
            p.V)

    def mean_cycle_length(self) -> float:
        return self.fill_exit_mean() + self.mean_release_time()

    @_records_quad_error
    def cycle_end_lt(self, alpha: float, x: float | None = None) -> float:
        x = self.policy.tau if x is None else x
        self._hold_law(alpha, x)
        return cycle_end_lt(self.model, self.policy, alpha, x,
                            reflected=self.reflected, s=self.fill_set(alpha),
                            s_M=self.release_set(alpha))

    @_records_quad_error
    def cycle_cost(self, alpha: float, x: float | None = None) -> float:
        x = self.policy.tau if x is None else x
        self._hold_law(alpha, x)
        return cycle_cost(self.model, self.policy, self.costs, alpha, x,
                          reflected=self.reflected, s=self.fill_set(alpha),
                          s_M=self.release_set(alpha), options=self.options)

    @_records_quad_error
    def total_discounted(self, alpha: float, x: float | None = None) -> float:
        x = self.policy.tau if x is None else x
        self._hold_law(alpha, x)
        self._hold_law(alpha, self.policy.tau)
        return total_discounted_cost(self.model, self.policy, self.costs,
                                     alpha, x, reflected=self.reflected,
                                     s=self.fill_set(alpha),
                                     s_M=self.release_set(alpha),
                                     options=self.options)

    @_records_quad_error
    def long_run_average(self) -> float:
        self._hold_law(0.0, self.policy.tau)
        return long_run_average_cost(self.model, self.policy, self.costs,
                                     reflected=self.reflected,
                                     s=self.fill_set(0.0),
                                     s_M=self.release_set(0.0),
                                     options=self.options)
