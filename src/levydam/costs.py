"""Cost functionals of the two-level release policy.

The policy keeps the release valve shut until the content reaches the upper
threshold, then releases at a fixed rate until the content falls back to the
lower threshold.  Costs consist of an opening charge, a closing charge,
maintenance rates during each phase, and a reward per unit of released
output.  ``PolicyEvaluator`` composes, from one ``FillPhase`` and one
``ReleasePhase`` per discount rate (see ``exits``),

* the transform of the length of one regeneration cycle,
* the expected discounted cost of one cycle,
* the total discounted cost over an infinite horizon, and
* the long-run average cost per unit time (renewal reward over one cycle).

Each is written once, as an expectation of release-phase quantities under
the fill phase's overshoot law.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exits import FillPhase, OvershootLaw, ReleasePhase, _checked_transform
from .models import ConvergenceError, LevyModel
from .scale import ScaleFunctionSet

_BOUND_SAMPLES = 512  # equispaced points at which bound() samples a rate


@dataclass(frozen=True)
class PolicyParams:
    """Release policy: open at lam, release at rate M until tau, capacity V."""

    lam: float
    tau: float
    M: float
    V: float = math.inf

    def __post_init__(self):
        if not (0 <= self.tau < self.lam <= self.V) or math.isinf(self.lam):
            raise ValueError("policy needs 0 <= tau < lam <= V, lam finite")
        if not 0 < self.M < math.inf:
            raise ValueError("release rate M must be positive and finite")


@dataclass(frozen=True)
class PiecewisePoly:
    """Piecewise polynomial rate function, zero outside its breakpoints.

    ``coeffs[i]`` are ascending-power coefficients in (y - breakpoints[i]) on
    the piece [breakpoints[i], breakpoints[i+1]).  A piece with an infinite
    end must be constant.  ``values`` is its one evaluator; ``p(y)`` calls it
    on a single point.
    """

    breakpoints: tuple
    coeffs: tuple

    def __post_init__(self):
        bps = tuple(float(b) for b in self.breakpoints)
        cfs = tuple(tuple(float(c) for c in piece) for piece in self.coeffs)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "coeffs", cfs)
        # not b1 < b2 also rejects a NaN breakpoint
        if len(bps) < 2 or any(not b1 < b2 for b1, b2 in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing, >= 2 of them")
        if len(cfs) != len(bps) - 1:
            raise ValueError("need one coefficient list per piece")
        if not all(math.isfinite(c) for piece in cfs for c in piece):
            raise ValueError("coefficients must be finite")
        if any(any(cfs[i][1:]) for i in self._infinite_ends):
            raise ValueError("a piece with an infinite end must be constant")

    @property
    def _infinite_ends(self) -> list:
        """The indices of the pieces with an infinite end."""
        bps = self.breakpoints
        return [i for i, b in ((0, bps[0]), (-1, bps[-1])) if math.isinf(b)]

    def __call__(self, y: float) -> float:
        return float(self.values(y))

    @functools.cached_property
    def _columns(self):
        """(columns, short, origins): coefficient columns over the pieces,
        padded with 0.0 to the longest piece; per column after the first a
        mask of the pieces it pads (None when it pads none); and each
        piece's origin of u, its left end.  A piece with an infinite end
        keeps its constant only, so every column after the first pads it,
        and its origin is NaN: its powers are NaN, raise no warning however
        far y lies, and are dropped.  The first column holds 0.0 + c0 * 1.0,
        so a partial sum is never -0.0.
        """
        pieces = list(self.coeffs)
        for i in self._infinite_ends:
            pieces[i] = pieces[i][:1]
        width = max(1, max(len(piece) for piece in pieces))
        cols = np.zeros((width, len(pieces)))
        for i, piece in enumerate(pieces):
            cols[:len(piece), i] = piece
        cols[0] = 0.0 + cols[0] * 1.0
        lengths = np.array([len(piece) for piece in pieces])
        short = [None if (lengths > k).all() else lengths <= k
                 for k in range(1, width)]
        origins = np.array(self.breakpoints[:-1])
        origins[self._infinite_ends] = np.nan
        return cols, short, origins

    def values(self, ys) -> np.ndarray:
        """The rate at every entry of ``ys``, in its shape.

        All pieces are summed at once from coefficient columns, powers of
        u = y - breakpoint in ascending order (no Horner rounding); a shorter
        piece adds exact zeros.  Every committed analytic and Monte Carlo
        bit depends on this arithmetic: keep it as it is.
        """
        ys = np.asarray(ys, dtype=float)
        bps = self.breakpoints
        inside = ~((ys < bps[0]) | (ys >= bps[-1]))  # NaN counts as inside
        cols, short, origins = self._columns
        # the piece of each y; below the support the first, above it and at
        # NaN the last.  A one-piece rate takes piece 0 as a scalar index:
        # each gather below is then a scalar that broadcasts, with the same
        # float operations on every entry
        idx = (np.searchsorted(bps[1:-1], ys, side="right") if len(bps) > 2
               else 0)
        val = cols[0][idx]
        if len(cols) > 1:
            # u = 0 outside the support, so no power overflows there
            u = np.where(inside, ys - origins[idx], 0.0)
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
        """(lo, hi) outside which the rate is 0: the first and last
        breakpoints, less a piece with an infinite end whose constant is 0."""
        bps, cfs = self.breakpoints, self.coeffs
        lo = bps[1] if math.isinf(bps[0]) and not any(cfs[0]) else bps[0]
        hi = bps[-2] if math.isinf(bps[-1]) and not any(cfs[-1]) else bps[-1]
        return lo, hi

    @property
    def is_zero(self) -> bool:
        return all(c == 0.0 for piece in self.coeffs for c in piece)

    def bound(self) -> float:
        """The largest |rate|: sampled at equispaced points from the first
        finite breakpoint to the last, and the constant of each piece with
        an infinite end."""
        finite = [b for b in self.breakpoints if math.isfinite(b)] or [0.0]
        ys = np.linspace(finite[0], finite[-1], _BOUND_SAMPLES, endpoint=False)
        ends = [abs(c) for i in self._infinite_ends for c in self.coeffs[i][:1]]
        return float(np.max(np.abs(self.values(ys)),
                            initial=max(ends, default=0.0)))

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
    is the maintenance rate while filling, ``g_star`` while releasing.  Each
    rate's sampled ``bound()`` must be finite and within its declared bound
    (``g_bound``, ``g_star_bound``), if any.
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
# The cycle functionals
# ---------------------------------------------------------------------------

class PolicyEvaluator:
    """The cost functionals of one policy, composed from one fill phase and
    one release phase per discount rate.

    A cycle started at x <= lam is a fill from x followed by a release from
    the crossing state, capped at V; from above lam only the release
    remains.  Every quantity at one discount rate uses the same two phases,
    built on demand with their scale sets, and a fill phase keeps each
    overshoot law it builds, so one evaluator per policy computes each law
    once.  The start state x >= 0 defaults to tau.  ``max_quad_error`` is
    the largest error estimate of any integral of its phases so far.

    A scale set depends only on the model, the release rate M and the
    discount rate, and answers at any point, so evaluators of one model and
    one M may share the dict ``scale_sets`` whatever their thresholds: it
    holds each set built, keyed by ("fill" or "release", alpha), and a set
    found there is not built again.
    """

    def __init__(self, model: LevyModel, policy: PolicyParams, costs: CostSpec,
                 reflected: bool = True, scale_sets: dict | None = None):
        self.model = model
        self.policy = policy
        self.costs = costs
        self.reflected = reflected
        self._sets = {} if scale_sets is None else scale_sets
        self._fills: dict[float, FillPhase] = {}
        self._releases: dict[float, ReleasePhase] = {}

    @property
    def max_quad_error(self) -> float:
        phases = [*self._fills.values(), *self._releases.values()]
        return max((phase.max_quad_error for phase in phases), default=0.0)

    def _scale_set(self, phase: str, alpha: float) -> ScaleFunctionSet:
        key = (phase, alpha)
        if key not in self._sets:
            model = (self.model if phase == "fill"
                     else self.model.shifted(self.policy.M))
            self._sets[key] = ScaleFunctionSet(model, alpha)
        return self._sets[key]

    def _fill(self, alpha: float) -> FillPhase:
        if alpha not in self._fills:
            self._fills[alpha] = FillPhase(self._scale_set("fill", alpha),
                                           self.policy.lam, self.reflected)
        return self._fills[alpha]

    def _release(self, alpha: float) -> ReleasePhase:
        if alpha not in self._releases:
            p = self.policy
            self._releases[alpha] = ReleasePhase(
                self._scale_set("release", alpha), p.tau, p.V)
        return self._releases[alpha]

    def fill_set(self, alpha: float) -> ScaleFunctionSet:
        return self._fill(alpha).s

    def release_set(self, alpha: float) -> ScaleFunctionSet:
        return self._release(alpha).s

    def fill_exit_lt(self, alpha: float, x: float | None = None) -> float:
        return self._fill(alpha).exit_lt(self._start(x))

    def fill_exit_mean(self, x: float | None = None) -> float:
        return self._fill(0.0).exit_mean(self._start(x))

    def release_exit_lt(self, alpha: float, z: float) -> float:
        return self._release(alpha).exit_lt(z)

    def release_exit_mean(self, z: float) -> float:
        return self._release(0.0).exit_mean(z)

    def overshoot_law(self, alpha: float, x: float | None = None) -> OvershootLaw:
        return self._fill(alpha).overshoot_law(self._start(x))

    def mean_release_time(self) -> float:
        law = self.overshoot_law(0.0)
        return law.expectation(self._release(0.0).exit_mean, self.policy.V)

    def mean_cycle_length(self) -> float:
        return self.fill_exit_mean() + self.mean_release_time()

    def cycle_end_lt(self, alpha: float, x: float | None = None) -> float:
        """E_x[exp(-alpha T)], T the end of the first cycle; a value
        outside [0, 1] raises ``ConvergenceError``."""
        x = self._start(x)
        if x > self.policy.lam:
            return self._release(alpha).exit_lt(x)
        law = self._fill(alpha).overshoot_law(x)
        q = law.expectation(self._release(alpha).exit_lt, self.policy.V)
        return _checked_transform(q, "cycle end transform")

    def cycle_cost(self, alpha: float, x: float | None = None) -> float:
        """Expected discounted cost of the first cycle started at x.

        Above the threshold only the release phase remains: the opening
        charge, the foregone-reward term and the release maintenance.  At or
        below it the closing charge, the fill maintenance, the opening
        charge and the foregone reward at the crossing, and the release
        cost started from the capped crossing state are combined.
        """
        if alpha <= 0:
            raise ValueError("cycle_cost needs alpha > 0; "
                             "use long_run_average for the average criterion")
        x = self._start(x)
        p, c = self.policy, self.costs
        if x > p.V:
            raise ValueError("need x <= V")
        if x > p.lam:
            release = self._release(alpha)
            rel_lt = release.exit_lt(x)
            return (p.M * (c.K1 - c.R * (1.0 - rel_lt) / alpha)
                    + release.cost(x, c.g_star))
        fill = self._fill(alpha)
        q_fill = fill.exit_lt(x)
        law = fill.overshoot_law(x)
        release = self._release(alpha)
        q_cycle = self.cycle_end_lt(alpha, x)
        fill_cost = fill.cost(x, c.g)
        rel = law.expectation(lambda z: release.cost(z, c.g_star), p.V,
                              c.g_star.breakpoints)
        return (p.M * (c.K2 + c.K1 * q_fill
                       - (c.R / alpha) * (q_fill - q_cycle))
                + fill_cost + rel)

    def total_discounted(self, alpha: float, x: float | None = None) -> float:
        """Total discounted cost over an infinite horizon started at x.

        Geometric resummation over regeneration cycles: first cycle cost
        plus the discounted value of restarting from the lower threshold.
        """
        if alpha <= 0:
            raise ValueError("total discounted cost needs alpha > 0")
        x, tau = self._start(x), self.policy.tau
        c_x, q_x = self.cycle_cost(alpha, x), self.cycle_end_lt(alpha, x)
        if x == tau:
            c_tau, q_tau = c_x, q_x
        else:
            c_tau, q_tau = self.cycle_cost(alpha), self.cycle_end_lt(alpha)
        if q_tau >= 1.0 - 1e-12:
            raise ConvergenceError("cycle transform at tau is numerically 1; "
                                   "the discounted series diverges")
        return c_x + q_x * c_tau / (1.0 - q_tau)

    def long_run_average(self) -> float:
        """Long-run average cost per unit time of running the policy.

        Renewal reward over one regeneration cycle from tau: fixed charges,
        undiscounted maintenance of both phases and the reward on the
        released volume, over the expected cycle length.
        """
        p, c = self.policy, self.costs
        fill = self._fill(0.0)
        mean_fill = fill.exit_mean(p.tau)
        if math.isinf(mean_fill):
            raise ValueError("infinite mean cycle: the plain input does not "
                             "drift toward the threshold")
        release = self._release(0.0)
        if math.isinf(p.V) and float(release.s.model.phi_prime(0.0)) <= 0.0:
            raise ValueError("infinite mean cycle: release rate does not exceed "
                             "the mean inflow")
        law = fill.overshoot_law(p.tau)
        mean_rel = self.mean_release_time()
        cost_fill = fill.cost(p.tau, c.g)
        cost_rel = law.expectation(lambda z: release.cost(z, c.g_star), p.V,
                                   c.g_star.breakpoints)
        numer = (p.M * (c.K1 + c.K2) + cost_fill + cost_rel
                 + c.R * p.M * mean_fill)
        return numer / (mean_fill + mean_rel) - c.R * p.M

    def _start(self, x: float | None) -> float:
        if x is None:
            return self.policy.tau
        if x < 0:
            raise ValueError("the start state must be nonnegative")
        return x
