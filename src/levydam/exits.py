"""Exit analysis for the dam content process.

A cycle of the policy is cut at the first passage above the release
threshold into two phases, each built on one ``ScaleFunctionSet``.  The
phases are the entry points of this module and the one home of its exit
and overshoot formulas:

* ``FillPhase``: the plain or infimum-reflected input, killed when it first
  passes above the threshold; the transform and mean of its length, its
  cost and its overshoot law (the law of the content at the crossing: a
  density above the threshold plus a creeping atom at it);
* ``ReleasePhase``: the input minus the release rate (the shifted set),
  capped at the capacity, killed when it first falls to the lower
  threshold; the transform and mean of its length and its cost.

The cycle functionals in ``costs`` are expectations of release-phase
quantities under the fill phase's overshoot law.  Costs and overshoot laws
integrate against the potential densities of the killed processes
(``potential_*``, the two-sided one for direct use).

Functions are pure; the discount rate is the one carried by the scale set.

Every integral is a composite Gauss-Kronrod rule (7 Gauss nodes inside 15
Kronrod nodes) on panels split at the known breakpoints: the start state,
the thresholds, the capacity, 0, the end of the jump tail and the
breakpoints of the cost rates.  For input of infinite jump activity the
panels are graded dyadically toward the points where the integrand is
singular: the start state, where W(y - x) has a cusp, 0 in the reflected
potential, where W' is unbounded, and the threshold, where the jump
density is.  Each panel carries the QUADPACK error estimate of its rule.
A panel is settled as noise when its two rules differ by no more than the
rounding noise of the scale functions in its integrand can make them, or
when halving it lowers neither estimate nor value (QUADPACK's roundoff
test).  While an integral misses max(1e-11, 1e-9 |value|) plus the
estimates of its noise panels, its panels that miss their share of that
tolerance are bisected worst first, every integral of a batch in the same
round, and the others wait with their values kept.  An integral whose
error exceeds that bound, that is still open after
``_MAX_ROUNDS`` rounds, or that would need more than ``_MAX_PANELS``
panels raises ``ConvergenceError``.  Integrands are evaluated on whole
arrays of nodes, and the potentials and the release phase take arrays of
start states, so a nested integral is one
batched integral per round of its outer integral.  The worst error
estimate is kept on each potential and each overshoot law, and a phase's
``max_quad_error`` is the largest of its potential's and its kept laws'.

An overshoot law's density is the compensation formula
``integral U(x, dy) nu(z - y)`` over the potential ``U`` of the fill phase;
each value is computed once per point.  A ``FillPhase`` builds each law
once per start state and keeps it, so every cycle functional computed from
one phase shares the law; a scale set never changes, so neither do the
kept laws.  Each integral depends only on its own arguments, never on what
was computed before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .models import ConvergenceError
from .scale import LAPLACE_INVERSION, ScaleFunctionSet


def quad(*args, **kwargs):
    """scipy's adaptive ``quad``, loaded only when called.

    No scalar quad call is made here; perfbench/tracing.py wraps this name
    to count such calls, and tests patch it to check that there are none.
    """
    from scipy.integrate import quad as scipy_quad
    return scipy_quad(*args, **kwargs)


_EPSABS = 1e-11
_EPSREL = 1e-9
_MAX_ROUNDS = 60
_MAX_PANELS = 5_000      # per integral, settled and open; 150 at most in use
_BLOCK = 1 << 13          # nodes per evaluation block: 64 kB per temporary
_GRADE_DEPTH = 20         # dyadic panels toward a singular endpoint
_START_GRADE_DEPTH = 10    # ... toward a start state, where W has a cusp
_TAIL_EPS = 1e-15
_TRANSFORM_SLACK = 1e-9

# Gauss-Kronrod 7-15 rule on [-1, 1] (QUADPACK qk15); the Gauss nodes are
# the odd positions of the Kronrod nodes
_XK_HALF = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245])
_WK_HALF = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649])
_WK_MID = 0.209482141084727828012999174891714
_WG_HALF = np.array([0.129484966168869693270611432679082,
                     0.279705391489276667901467771423780,
                     0.381830050505118944950369775488975])
_WG_MID = 0.417959183673469387755102040816327
_XK = np.concatenate((-_XK_HALF, [0.0], _XK_HALF[::-1]))
_WK = np.concatenate((_WK_HALF, [_WK_MID], _WK_HALF[::-1]))
_WG = np.concatenate((_WG_HALF, [_WG_MID], _WG_HALF[::-1]))
# |Kronrod - Gauss| weight of each node: the largest difference of the two
# rules that a unit of noise at that node can make
_WKG = np.abs(_WK - np.insert(_WG, np.arange(8), 0.0))

def _panel_rule(f, a, b, row):
    """Kronrod values, error estimates and noise floors of f on each
    panel; f may also return the rounding noise of its values."""
    y = _nodes(a, b)
    v = f(np.broadcast_to(row[:, None], y.shape), y)
    noise = None
    if isinstance(v, tuple):
        v, noise = v
    return _rule(np.broadcast_to(v, y.shape), 0.5 * (b - a), noise)


def _nodes(a, b):
    """Kronrod nodes of each panel [a, b], one row per panel."""
    return 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * _XK


def _rule(v, h, noise=None):
    """Kronrod values, QUADPACK error estimates (qk15) and noise floors
    from the values v (panels, 15) at the nodes of panels of half-width h.
    The floor, when the values' rounding noise is given, is the largest
    Kronrod-Gauss difference that noise can make: a panel whose rules
    differ by no more is resolved down to its noise, and gets the floor
    as its estimate; no estimate is below it."""
    if not np.isfinite(v).all():
        raise ConvergenceError("non-finite integrand value at a quadrature node")
    # einsum sums each panel's nodes in one fixed order, whatever the
    # number of panels; a BLAS product may not
    resk = np.einsum("ij,j->i", v, _WK)
    resg = np.einsum("ij,j->i", v[:, 1::2], _WG)
    resasc = np.einsum("ij,j->i", np.abs(v - 0.5 * resk[:, None]), _WK) * h
    resabs = np.einsum("ij,j->i", np.abs(v), _WK) * h
    diff = np.abs(resk - resg) * h
    ratio = np.divide(200.0 * diff, resasc, out=np.ones_like(diff),
                      where=200.0 * diff < resasc)
    err = np.where((resasc > 0.0) & (diff > 0.0), resasc * ratio ** 1.5, diff)
    err = np.maximum(err, 50.0 * np.finfo(float).eps * resabs)
    floor = np.zeros(h.shape)
    if noise is not None:
        floor = np.einsum("ij,j->i", noise, _WKG) * h
        err = np.where(diff <= floor, floor, np.maximum(err, floor))
    return resk * h, err, floor


def _integrate(f, a, b, row, n_rows, keep_panels=False):
    """Integrals of f over the panels of each row, one integral per row.

    ``a``, ``b`` and ``row`` list the starting panels [a, b] and the row
    each belongs to; zero-width panels are dropped.  ``f(row, y)`` gives
    the integrand of each row at the nodes y (arrays of one shape).  A row
    is done once the sum of its panels' error estimates is within
    max(epsabs, epsrel |integral|) plus the estimates of its panels settled
    as noise so far.  Until then a panel that meets its share of that
    tolerance, in proportion to its width, is settled; of
    the others, those within a factor 10 of the row's worst estimate are
    bisected, as in QUADPACK's worst-first order, and the rest wait for a
    later round with their values kept.  A panel is settled as noise
    when its estimate is down to the rounding noise of its integrand's
    values, or when its halves' estimates sum to 99 % of its own or more
    with a sum within 1e-5 of its value (QUADPACK's roundoff test).  A row
    whose error exceeds its tolerance by more than its noise panels'
    estimates, that is still open after ``_MAX_ROUNDS`` rounds, or whose
    panels would number more than ``_MAX_PANELS`` raises
    ``ConvergenceError``, so a row that never settles cannot grow without
    bound.  The new panels of all rows are evaluated together, in blocks,
    once per round, and a row's result depends only on its own panels.
    Returns the integrals and their error estimates,
    and with ``keep_panels`` also the final panels' ends and rows, sorted.
    """
    a, b, row = (np.asarray(v) for v in np.broadcast_arrays(a, b, row))
    a, b = a.astype(float), b.astype(float)
    row = row.astype(np.intp)
    live = b > a
    a, b, row = a[live], b[live], row[live]
    width = np.bincount(row, b - a, n_rows)
    total = np.zeros(n_rows)
    err = np.zeros(n_rows)
    noise = np.zeros(n_rows)      # estimates of the panels settled as noise
    n_panels = np.bincount(row, minlength=n_rows)  # settled and open
    k = e = np.zeros(0)           # values of the waiting panels, which lead
    parent = None                 # index of each new panel's parent
    final = []
    step = max(1, _BLOCK // len(_XK))
    for _ in range(_MAX_ROUNDS):
        if a.size == 0:
            break
        old = k.size
        parts = [_panel_rule(f, a[i:i + step], b[i:i + step], row[i:i + step])
                 for i in range(old, a.size, step)]
        new_k, new_e, new_floor = (np.concatenate(v) for v in zip(*parts))
        noisy = new_e <= new_floor
        if parent is not None:
            halves_k = np.bincount(parent, new_k, parent_k.size)
            halves_e = np.bincount(parent, new_e, parent_k.size)
            noisy |= ((halves_e >= 0.99 * parent_e)
                      & (np.abs(halves_k - parent_k)
                         <= 1e-5 * np.abs(halves_k)))[parent]
        k = np.concatenate((k, new_k))
        e = np.concatenate((e, new_e))
        noisy = np.concatenate((np.zeros(old, dtype=bool), noisy))
        value = total + np.bincount(row, k, n_rows)
        tol = np.maximum(_EPSABS, _EPSREL * np.abs(value))
        # the bound of the final check below
        done = (err + np.bincount(row, e, n_rows) <= tol + noise)[row]
        over = ~done & (e > tol[row] * (b - a) / width[row])
        stuck = over & noisy
        wanted = over & ~noisy
        worst = np.zeros(n_rows)
        np.maximum.at(worst, row[wanted], e[wanted])
        split = wanted & (e >= 0.1 * worst[row])
        wait = wanted & ~split
        settle = ~wanted
        total += np.bincount(row[settle], k[settle], n_rows)
        err += np.bincount(row[settle], e[settle], n_rows)
        noise += np.bincount(row[stuck], e[stuck], n_rows)
        if keep_panels:
            final.append((a[settle], b[settle], row[settle]))
        n_panels += np.bincount(row[split], minlength=n_rows)
        if n_panels.max(initial=0) > _MAX_PANELS:
            raise ConvergenceError(f"quadrature needs more than {_MAX_PANELS} "
                                   "panels for one integral")
        parent_k, parent_e = k[split], e[split]
        mid = 0.5 * (a[split] + b[split])
        parent = np.tile(np.arange(mid.size), 2)
        a = np.concatenate((a[wait], a[split], mid))
        b = np.concatenate((b[wait], mid, b[split]))
        row = np.concatenate((row[wait], row[split], row[split]))
        k, e = k[wait], e[wait]
    if a.size:
        raise ConvergenceError(f"quadrature did not meet its tolerance in "
                               f"{_MAX_ROUNDS} rounds of panel bisection")
    missed = err > np.maximum(_EPSABS, _EPSREL * np.abs(total)) + noise
    if missed.any():
        r = int(np.argmax(missed))
        raise ConvergenceError(
            f"quadrature error {err[r]:.3g} on a value of {total[r]:.6g} "
            "exceeds its tolerance beyond the integrand's rounding noise")
    if not keep_panels:
        return total, err
    fa, fb, frow = (np.concatenate(v) for v in zip(*final))
    order = np.lexsort((fa, frow))
    return total, err, fa[order], fb[order], frow[order]


def _row_panels(n, lo, hi, *cuts):
    """Panels of n rows from lo to hi (scalars or arrays, one entry per
    row), split at every cut that falls inside.  A cut is a scalar, an
    array with one entry per row, or a (1 or n, k) array of k cuts."""
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (n,))[:, None]
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (n,))[:, None]
    cols = [lo, hi]
    for c in cuts:
        c = np.asarray(c, dtype=float)
        c = c.reshape(-1, 1) if c.ndim < 2 else c
        cols.append(np.clip(np.broadcast_to(c, (n, c.shape[1])), lo, hi))
    edges = np.sort(np.concatenate(cols, axis=1), axis=1)
    row = np.repeat(np.arange(n), edges.shape[1] - 1)
    return edges[:, :-1].ravel(), edges[:, 1:].ravel(), row


def _dyadic(p, d, depth=_GRADE_DEPTH):
    """Cuts p + d / 2^k, k = 1..depth: panels graded toward p.  Scalars
    give one row of cuts for all rows, arrays one row per entry."""
    p, d = np.broadcast_arrays(np.asarray(p, dtype=float),
                               np.asarray(d, dtype=float))
    k = 0.5 ** np.arange(1, depth + 1)
    return (p[..., None] + d[..., None] * k).reshape(-1, depth)


def _infinite_activity(s: ScaleFunctionSet) -> bool:
    """Jumps of infinite activity: W' is unbounded at 0 for bounded
    variation input and the jump density is unbounded at 0."""
    measure = s.model.measure
    return measure is not None and math.isinf(measure.total)


def _unit(ys):
    return np.ones_like(ys)


# ---------------------------------------------------------------------------
# Potential densities
# ---------------------------------------------------------------------------

@dataclass
class PotentialDensity:
    """Discounted occupation density of a killed content process.

    The absolutely continuous part is the difference of two terms,
    ``terms(x, y) -> (t1, t2)`` for broadcasting arrays of start states x
    and levels y, both zero outside ``y_range``; ``values(x, y)`` is
    t1 - t2 and ``density(x, y)`` one value of it.  ``atom_at_zero(x)`` is
    the weight of the atom at 0 (reflected fill phase only, nonzero for
    bounded variation input).  ``rounding`` is the relative rounding noise
    of the terms: no integral is refined below rounding * (|t1| + |t2|).
    Integrals split at the start state, where W(y - x) starts; under jumps
    of infinite activity, where W has unbounded slope at 0+ (and W' at 0+
    is unbounded), ``graded`` grades them toward the start state and, with
    ``grade_zero`` (the reflected potential), toward 0.  ``max_quad_error``
    is the largest error estimate of its integrals so far.
    """

    terms: Callable
    atom_at_zero: Callable | None
    y_range: tuple
    scale_set: ScaleFunctionSet = field(repr=False)
    rounding: float = 0.0
    graded: bool = False
    grade_zero: bool = False
    max_quad_error: float = field(default=0.0, repr=False)

    def values(self, x, y):
        t1, t2 = self.terms(x, y)
        return t1 - t2

    def density(self, x: float, y: float) -> float:
        return float(self.values(np.asarray(float(x)), np.asarray(float(y))))

    def integrate(self, x, fv: Callable, lo: float | None = None,
                  hi: float | None = None, points=()):
        """Integral of fv against the potential measure at start state x, a
        float or an array of start states of any shape; fv maps an array of
        levels to values, with kinks at ``points``."""
        xs = np.asarray(x, dtype=float).ravel()
        y_lo = self.y_range[0] if lo is None else max(lo, self.y_range[0])
        y_hi = self.y_range[1] if hi is None else min(hi, self.y_range[1])
        val = np.zeros(xs.size)
        if y_lo < y_hi:
            if math.isinf(y_lo) or math.isinf(y_hi):
                raise ValueError("explicit finite limits are required here")
            a, b, row = _row_panels(xs.size, y_lo, y_hi, xs, *points,
                                    *self.grading(xs, y_lo, y_hi))

            def integrand(r, y):
                t1, t2 = self.terms(xs[r], y)
                g = fv(y)
                return g * (t1 - t2), self.rounding * np.abs(g) * (
                    np.abs(t1) + np.abs(t2))

            val, err = _integrate(integrand, a, b, row, xs.size)
            self.max_quad_error = max(self.max_quad_error,
                                      float(err.max(initial=0.0)))
        if self.atom_at_zero is not None and y_lo <= 0.0 <= y_hi:
            val = val + fv(np.zeros(1)) * self.atom_at_zero(xs)
        return _shaped_like(x, val)

    def grading(self, x, y_lo: float, y_hi: float) -> tuple:
        """Dyadic cuts toward each start state in x, where W(y - x) has a
        cusp, and for the reflected potential toward 0, where W' is
        unbounded; the panels are bisected further where they need it."""
        if not self.graded:
            return ()
        x = np.clip(x, y_lo, y_hi)
        cuts = (_dyadic(x, y_hi - x, _START_GRADE_DEPTH),)
        if self.grade_zero and y_lo <= 0.0 < y_hi:
            cuts += (_dyadic(0.0, y_hi, _START_GRADE_DEPTH),)
        return cuts

    def mass(self, x: float) -> float:
        """Total potential mass at start state x (expected discounted time)."""
        y_lo, y_hi = self.y_range
        if math.isinf(y_hi):
            raise ConvergenceError(
                "the potential mass with infinite capacity is not computed: "
                "its two terms grow alike and cancel, and no bounded form "
                "of them is implemented")
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
        return self.integrate(x, _unit, y_lo, y_hi) + tail


def _max_quad_error(pot: PotentialDensity | None) -> float:
    """The potential's largest error estimate, 0 before it is built."""
    return 0.0 if pot is None else pot.max_quad_error


def _shaped_like(x, val):
    """val, computed on the flattened start states, in the shape of x."""
    return float(val[0]) if np.ndim(x) == 0 else val.reshape(np.shape(x))


def _rounding(s: ScaleFunctionSet) -> float:
    """Relative rounding noise of the W and W' values of the set.

    Against the Brownian closed forms, on 1e-6 <= x <= 10 at four drift,
    variance and discount settings, Talbot inversion resolves W to 8.5e-13
    relative; it is taken as 1e-11, for W' too, which is inverted from its
    own transform.  The other methods evaluate to a few ulps.
    """
    return 1e-11 if s.method == LAPLACE_INVERSION else 1e-15


def _potential(terms, atom, y_range, s, grade_zero=False):
    return PotentialDensity(terms, atom, y_range, s, _rounding(s),
                            _infinite_activity(s), grade_zero)


def potential_two_sided(s: ScaleFunctionSet, a: float, lam: float) -> PotentialDensity:
    """Potential of the plain input killed on leaving [a, lam]."""
    if a >= lam:
        raise ValueError("need a < lam")
    w, denom = s.w, s.w(lam - a)

    def terms(x, y):
        yc = np.clip(y, a, lam)
        out = (y < a) | (y > lam)
        return (np.where(out, 0.0, w(lam - x) * w(yc - a) / denom),
                np.where(out, 0.0, w(yc - x)))

    return _potential(terms, None, (a, lam), s)


def potential_up_killed(s: ScaleFunctionSet, lam: float) -> PotentialDensity:
    """Potential of the plain input killed at first passage above lam."""
    w, eta = s.w, s.eta_alpha

    def terms(x, y):
        yc = np.minimum(y, lam)
        out = y > lam
        return (np.where(out, 0.0, w(lam - x) * np.exp(-eta * (lam - yc))),
                np.where(out, 0.0, w(yc - x)))

    return _potential(terms, None, (-math.inf, lam), s)


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

    def terms(x, y):
        yc = np.clip(y, 0.0, lam)
        out = (y < 0) | (y >= lam)
        return (np.where(out, 0.0, w(lam - x) * wp(yc) / wp_lam),
                np.where(out, 0.0, w(yc - x)))

    def atom(x):
        return w0 * w(lam - x) / wp_lam

    return _potential(terms, atom if w0 > 0 else None, (0.0, lam), s,
                      grade_zero=True)


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
        def terms(x, y):
            yc = np.maximum(y, tau)
            out = y <= tau
            return (np.where(out, 0.0, np.exp(-eta * (x - tau)) * w(yc - tau)),
                    np.where(out, 0.0, w(yc - x)))
    else:
        z_denom = z(V - tau)

        def terms(x, y):
            yc = np.clip(y, tau, V)
            out = (y <= tau) | (y > V)
            return (np.where(out, 0.0, z(V - x) * w(yc - tau) / z_denom),
                    np.where(out, 0.0, w(yc - x)))

    return _potential(terms, None, (tau, V), s_M)


# ---------------------------------------------------------------------------
# Checks of the phases' arguments and results
# ---------------------------------------------------------------------------

def _checked_transform(val, what: str):
    """val if every entry lies in [0, 1] up to rounding, else raise."""
    arr = np.asarray(val, dtype=float)
    bad = ~((arr >= 0.0) & (arr <= 1.0 + _TRANSFORM_SLACK))
    if bad.any():
        raise ConvergenceError(
            f"{what} = {arr[bad].flat[0]!r} lies outside [0, 1]: the scale "
            "functions lose precision at these thresholds")
    return val


def _checked_mean(val, what: str):
    """val if every entry is finite and positive, else raise."""
    arr = np.asarray(val, dtype=float)
    bad = ~(np.isfinite(arr) & (arr > 0.0))
    if bad.any():
        raise ConvergenceError(
            f"{what} = {arr[bad].flat[0]!r} is not a finite positive mean: "
            "the scale functions lose precision at these thresholds")
    return val


def _require_zero_alpha(s):
    if s.alpha != 0.0:
        raise ValueError("expected means require a scale set built at alpha = 0")


def _check_release_args(x, tau, V) -> np.ndarray:
    if tau >= V:
        raise ValueError("need tau < V")
    xs = np.asarray(x, dtype=float).ravel()
    if not np.all((tau <= xs) & (xs <= V)):
        raise ValueError("need tau <= x <= V")
    return xs


# ---------------------------------------------------------------------------
# Overshoot laws
# ---------------------------------------------------------------------------

class _PointValues:
    """A vectorised function of z with each value kept.  ``fn`` maps an
    array of distinct points to (values, error estimates)."""

    def __init__(self, fn: Callable):
        self._fn = fn
        self._kept: dict = {}
        self.max_quad_error = 0.0

    def __call__(self, z):
        zs = np.asarray(z, dtype=float)
        kept = self._kept
        flat = zs.ravel().tolist()
        new = [v for v in dict.fromkeys(flat) if v not in kept]
        if new:
            vals, errs = self._fn(np.array(new))
            kept.update(zip(new, vals.tolist()))
            self.max_quad_error = max(self.max_quad_error,
                                      float(errs.max(initial=0.0)))
        out = np.array([kept[v] for v in flat]).reshape(zs.shape)
        return float(out) if zs.ndim == 0 else out


def _zero_density(z):
    return 0.0 if np.ndim(z) == 0 else np.zeros(np.shape(z))


@dataclass
class OvershootLaw:
    """Discounted law of the content at the end of the fill phase.

    ``density`` is the z-density of E_x[e^{-alpha T}; content at T in dz]
    for z above the threshold, for a float or an array of z; its values are
    kept per point.  ``atom_at_lambda`` is the mass of a creeping crossing,
    sitting exactly at the threshold.  ``graded`` grades the z panels
    toward the threshold, where the density of input with jumps of infinite
    activity is unbounded.  ``max_quad_error`` is the largest error
    estimate of the law's integrals so far, the density's included.
    """

    x: float
    lam: float
    alpha: float
    density: Callable
    atom_at_lambda: float
    z_cut: float
    graded: bool = False
    _quad_error: float = field(default=0.0, repr=False)

    @property
    def max_quad_error(self) -> float:
        return max(self._quad_error,
                   getattr(self.density, "max_quad_error", 0.0))

    def integrate(self, fv: Callable, lo: float | None = None,
                  hi: float | None = None, points=()) -> float:
        """Integral of fv against the density part over (lo, hi]; fv maps
        an array of z to values, with kinks at ``points``."""
        lo = self.lam if lo is None else max(lo, self.lam)
        hi = self.z_cut if hi is None or math.isinf(hi) else min(hi, self.z_cut)
        if hi <= lo:
            return 0.0
        cuts = (_dyadic(lo, hi - lo),) if self.graded and lo == self.lam else ()
        a, b, row = _row_panels(1, lo, hi, *points, *cuts)
        val, err = _integrate(lambda r, z: fv(z) * self.density(z),
                              a, b, row, 1)
        self._quad_error = max(self._quad_error, float(err[0]))
        return float(val[0])

    def expectation(self, fv: Callable, V: float, points=()) -> float:
        """Expectation of fv(content at the crossing) under the law, with
        the mass above the capacity V lumped at V, where the release phase
        starts.  fv maps an array of states to values, with kinks at
        ``points``: one batched call of fv per round of the z integral."""
        val = 0.0
        if self.atom_at_lambda != 0.0:
            val = self.atom_at_lambda * float(fv(np.array([self.lam]))[0])
        if math.isinf(V):
            return val + self.integrate(fv, points=points)
        val += self.integrate(fv, self.lam, V, points)
        if self.z_cut > V:
            val += self.mass_above(V) * float(fv(np.array([V]))[0])
        return val

    def density_mass(self, lo: float | None = None, hi: float | None = None) -> float:
        return self.integrate(_unit, lo, hi)

    def mass_above(self, v: float) -> float:
        return self.density_mass(lo=v)

    def total_mass(self) -> float:
        return self.atom_at_lambda + self.density_mass()


def _crossing_density(pot: PotentialDensity, x: float, lam: float,
                      nu: Callable, cut: float, graded: bool) -> Callable:
    """z -> integral U(x, dy) nu(z - y), the density of the state at the
    first jump above lam, for an array of distinct z in (lam, lam + cut).

    Levels below lam - cut are left out: their weight is below the jump
    tail beyond cut.  Every z shares one grid of y panels, so U is
    evaluated once per node and each density value is one weighted sum of
    nu(z - y) over the grid.  The grid is the common refinement of the
    panels that probe values of z, from lam + cut down to lam + cut / 4^20,
    refine to.  Toward lam it is graded when the jump density is unbounded
    at 0: U vanishes at lam, so U nu stays bounded there when nu(t) ~ 1/t,
    but not for the t^-3/2 of inverse Gaussian jumps.  A z that misses the
    tolerance on the grid refines its own panels from there.
    """
    y_lo = max(pot.y_range[0], lam - cut)
    span = lam - y_lo
    grid = []                 # panels, nodes, U and its noise at the nodes

    def u_at(y):
        # the panels repeat across z: evaluate U once per panel
        key = y[:, 0] + 1j * y[:, 7]
        _, first, back = np.unique(key, return_index=True, return_inverse=True)
        t1, t2 = pot.terms(x, y[first])
        back = back.ravel()
        return (t1 - t2)[back], pot.rounding * (np.abs(t1) + np.abs(t2))[back]

    def integrand(z):
        def f(r, y):
            u, noise = u_at(y)
            n = nu(z[r] - y)
            return u * n, noise * n
        return f

    def build():
        probes = lam + cut * 0.5 ** np.arange(0, 2 * _GRADE_DEPTH + 1, 2)
        cuts = [x, 0.0, *pot.grading(x, y_lo, lam)]
        if graded:
            # every z - lam down to the law's finest z panels sees panels
            # no wider than their distance from its layer at lam
            cuts.append(_dyadic(lam, -span, 2 * _GRADE_DEPTH + 8))
        a, b, row = _row_panels(probes.size, y_lo, lam, *cuts)
        # the probes only shape the grid: their errors are no result's
        a, b = _integrate(integrand(probes), a, b, row, probes.size,
                          keep_panels=True)[2:4]
        edges = np.unique(np.concatenate((a, b)))
        a, b = edges[:-1], edges[1:]
        y = _nodes(a, b)
        u, noise = u_at(y)
        grid[:] = (a, b, y, u, noise)

    def kernel(zs):
        vals = np.zeros(zs.size)
        errs = np.zeros(zs.size)
        inside = (zs > lam) & (zs < lam + cut)
        z = zs[inside]
        if z.size == 0:
            return vals, errs
        if not grid:
            build()
        a, b, y, u, noise = grid
        h = 0.5 * (b - a)
        got = np.empty(z.size)
        err = np.empty(z.size)
        at_noise = np.empty(z.size)
        step = max(1, _BLOCK // y.size)
        for i in range(0, z.size, step):
            zc = z[i:i + step]
            n = nu(zc[:, None, None] - y).reshape(-1, y.shape[1])
            k, e, fl = _rule(np.tile(u, (zc.size, 1)) * n, np.tile(h, zc.size),
                             np.tile(noise, (zc.size, 1)) * n)
            got[i:i + step] = k.reshape(zc.size, -1).sum(axis=1)
            err[i:i + step] = e.reshape(zc.size, -1).sum(axis=1)
            at_noise[i:i + step] = np.where(e <= fl, e, 0.0).reshape(
                zc.size, -1).sum(axis=1)
        # as in _integrate: only the error beyond the noise of U counts
        miss = err > np.maximum(_EPSABS, _EPSREL * np.abs(got)) + at_noise
        if miss.any():
            zm = z[miss]
            row = np.repeat(np.arange(zm.size), a.size)
            got[miss], err[miss] = _integrate(
                integrand(zm), np.tile(a, zm.size), np.tile(b, zm.size), row,
                zm.size)
        if pot.atom_at_zero is not None:
            got = got + pot.atom_at_zero(x) * nu(z)
        vals[inside] = got
        errs[inside] = err
        return vals, errs

    return kernel


def _overshoot_law(s: ScaleFunctionSet, x: float, lam: float,
                   pot: PotentialDensity, transform: float) -> OvershootLaw:
    """Law of the state at first passage above lam from the fill potential.

    The density part is the compensation formula; a diffusion part also
    creeps, and the exit transform's mass beyond the density sits at lam.
    """
    measure = s.model.measure
    cut = measure.tail_quantile(_TAIL_EPS)
    graded = _infinite_activity(s)
    density = _PointValues(_crossing_density(pot, x, lam, measure.density,
                                             cut, graded))
    law = OvershootLaw(x, lam, s.alpha, density, 0.0, lam + cut, graded)
    if s.model.sigma2 > 0.0:
        law.atom_at_lambda = max(transform - law.density_mass(), 0.0)
    # bounded variation input cannot creep upward: the transform equals the
    # density mass and the residual is quadrature noise
    return law


# ---------------------------------------------------------------------------
# The two phases of a cycle
# ---------------------------------------------------------------------------

class FillPhase:
    """The fill phase at the discount rate of its scale set: the plain or
    (``reflected``) infimum-reflected input, killed at its first passage
    above lam.

    A fill started at lam has length zero: its transform is 1, its mean 0,
    its overshoot law a unit atom at lam and its cost 0.  Its potential is
    built once and each overshoot law once per start state, and both are
    kept; treat them as read-only.
    """

    def __init__(self, s: ScaleFunctionSet, lam: float, reflected: bool):
        self.s = s
        self.lam = lam
        self.reflected = reflected
        self._pot: PotentialDensity | None = None
        self._laws: dict[float, OvershootLaw] = {}

    def _check_start(self, x: float):
        if self.reflected and not 0 <= x <= self.lam:
            raise ValueError("need 0 <= x <= lam")

    def _potential(self) -> PotentialDensity:
        if self._pot is None:
            self._pot = (potential_reflected if self.reflected
                         else potential_up_killed)(self.s, self.lam)
        return self._pot

    def exit_lt(self, x: float) -> float:
        """E_x[exp(-alpha T)], T the end of the fill.

        At alpha = 0 the monotone limit is returned: 1 for the reflected
        fill and for plain input that drifts up, and the finite passage
        probability 1 - phi'(0+) W(lam - x) otherwise.  A fill from x < lam
        has a positive transform, so a computed 0 raises
        ``ConvergenceError``.
        """
        self._check_start(x)
        s, lam, alpha = self.s, self.lam, self.s.alpha
        if x >= lam:
            return 1.0
        if self.reflected:
            if alpha == 0.0:
                return 1.0
            val = s.z(lam - x) - s.w(lam - x) * alpha * s.w(lam) / s.wp(lam)
        elif alpha == 0.0:
            if s.eta_alpha > 0.0:
                return 1.0
            val = 1.0 - float(s.model.phi_prime(0.0)) * s.w(lam - x)
        else:
            val = s.z(lam - x) - (alpha / s.eta_alpha) * s.w(lam - x)
        if val == 0.0:
            raise ConvergenceError(
                f"fill exit transform = 0.0 from x = {x!r} < lam = {lam!r}, "
                "where it is positive: the scale functions lose precision "
                "at these thresholds")
        return _checked_transform(val, "fill exit transform")

    def exit_mean(self, x: float) -> float:
        """E_x[T]; the scale set must be built at alpha = 0.  Infinite when
        the plain input drifts down."""
        _require_zero_alpha(self.s)
        self._check_start(x)
        s, lam = self.s, self.lam
        if x >= lam:
            return 0.0
        if self.reflected:
            val = s.w(lam - x) * s.w(lam) / s.wp(lam) - s.wbar(lam - x)
        elif s.eta_alpha <= 0.0:
            return math.inf
        else:
            val = s.w(lam - x) / s.eta_alpha - s.wbar(lam - x)
        return _checked_mean(val, "fill exit mean")

    def overshoot_law(self, x: float) -> OvershootLaw:
        """Discounted law of the content at the end of the fill from x <= lam.

        For continuous input it is the creeping atom at lam with the exit
        transform as weight.
        """
        law = self._laws.get(x)
        if law is None:
            law = self._laws[x] = self._build_law(x)
        return law

    def _build_law(self, x: float) -> OvershootLaw:
        s, lam = self.s, self.lam
        if x > lam:
            raise ValueError("need x <= lam")
        transform = self.exit_lt(x)
        if x == lam or not s.model.has_jumps:
            return OvershootLaw(x, lam, s.alpha, _zero_density, transform, lam)
        return _overshoot_law(s, x, lam, self._potential(), transform)

    @property
    def max_quad_error(self) -> float:
        """The largest error estimate of the integrals of its potential and
        its kept laws."""
        kept = [law.max_quad_error for law in self._laws.values()]
        return max(kept + [_max_quad_error(self._pot)])

    def cost(self, x, g):
        """Expected discounted integral of the rate g(content) until the end
        of the fill; x is a float or an array of start states of any shape,
        g a ``PiecewisePoly``."""
        xs = np.asarray(x, dtype=float).ravel()
        out = np.zeros(xs.size)
        below = xs < self.lam
        if below.any() and not g.is_zero:
            if self.reflected:
                lo, hi = 0.0, self.lam
            else:
                lo, hi = g.support[0], min(g.support[1], self.lam)
            out[below] = self._potential().integrate(xs[below], g.values, lo,
                                                     hi, g.breakpoints)
        return _shaped_like(x, out)


class ReleasePhase:
    """The release phase at the discount rate of its scale set ``s_M``,
    built on the input minus the release rate: the content capped at V,
    killed at its first passage down to tau.

    Every method takes a float or an array of start states z >= tau of any
    shape, and starts a z above V at V, as a crossing above the capacity
    does.
    """

    def __init__(self, s_M: ScaleFunctionSet, tau: float, V: float):
        self.s = s_M
        self.tau = tau
        self.V = V
        self._pot: PotentialDensity | None = None

    def _potential(self) -> PotentialDensity:
        if self._pot is None:
            self._pot = potential_release(self.s, self.tau, self.V)
        return self._pot

    @property
    def max_quad_error(self) -> float:
        """The largest error estimate of its potential's integrals."""
        return _max_quad_error(self._pot)

    def _starts(self, z) -> np.ndarray:
        return _check_release_args(np.minimum(z, self.V), self.tau, self.V)

    def exit_lt(self, z):
        """E_z[exp(-alpha T)], T the end of the release."""
        s, tau, V = self.s, self.tau, self.V
        zs = self._starts(z)
        if s.alpha == 0.0:
            return _shaped_like(z, np.ones(zs.size))
        if math.isinf(V):
            val = np.exp(-s.eta_alpha * (zs - tau))
        else:
            val = s.z(V - zs) / s.z(V - tau)
        return _shaped_like(z, _checked_transform(val, "release exit transform"))

    def exit_mean(self, z):
        """E_z[T]; the scale set must be built at alpha = 0.

        With infinite capacity this is (z - tau) / (M - mean inflow) when the
        release rate exceeds the mean inflow, infinite otherwise.
        """
        _require_zero_alpha(self.s)
        s, tau, V = self.s, self.tau, self.V
        zs = self._starts(z)
        if math.isinf(V):
            net_down = float(s.model.phi_prime(0.0))
            if net_down <= 0.0:
                return _shaped_like(z, np.full(zs.size, math.inf))
            return _shaped_like(z, (zs - tau) / net_down)
        val = s.wbar(V - tau) - s.wbar(V - zs)
        _checked_mean(val[zs > tau], "release exit mean")
        return _shaped_like(z, val)

    def cost(self, z, g_star):
        """Expected discounted integral of the rate g_star(content) until
        the end of the release; g_star is a ``PiecewisePoly``."""
        tau, V = self.tau, self.V
        zs = self._starts(z)
        out = np.zeros(zs.size)
        above = zs > tau
        if above.any() and not g_star.is_zero:
            lo, hi = g_star.support
            hi = hi if math.isinf(V) else min(hi, V)
            out[above] = self._potential().integrate(
                zs[above], g_star.values, max(lo, tau), hi, g_star.breakpoints)
        return _shaped_like(z, out)
