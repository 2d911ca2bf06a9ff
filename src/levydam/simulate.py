"""Monte Carlo path oracle for the release policy.

Simulates the content process under the policy and produces per-cycle
records (fill time, crossing state, release time, discounted and plain
maintenance integrals) that back independent estimates of every analytic
quantity in the package.

Simulation schemes per family:

* compound Poisson drift: exact event-driven paths, no discretisation;
* Brownian drift: time steps with the within-step minimum (or maximum)
  sampled exactly for the reflecting barrier and the cap, and a Brownian
  bridge correction for threshold crossings;
* gamma / inverse Gaussian drift: exact increment sampling on the grid,
  accepting grid resolution error in crossing detection.

Every family the package defines is simulated; a model of any other class
raises ``TypeError`` at its first grid draw.

Compound Poisson paths run in lock step (``_cp_events``): each NumPy step
takes every live path one event on, as a scalar event loop would; the
pieces between events go to a ``_SegmentSink``, integrated in blocks.

The grid families share one time-blocked kernel, ``_GridKernel``: each
iteration takes every live path up to K ~ ``_GRID_BLOCK`` / (live paths)
steps on, on one clock (``_Clock``), in one walk (``_grid_paths``) that
moves each path from phase to phase.  ``_grid_cycles`` books the walk's
fill phases, release phases or full cycles, adding their trapezoid
maintenance integrals a block at a time; ``_total_discounted_grid`` books
cycles until the discount floor, each step and each charge as it falls due.

Randomness is counter based.  A compound Poisson path reads standard
exponentials from the Philox stream keyed by (seed, path index), in blocks
(``_Streams``): a gap or a jump is a scale times one, so its outcome does
not depend on ``n_paths``.  The grid kernel draws each block for all live
paths from the (seed, 0) stream, so a grid path's draws depend on
``n_paths``, on which paths are still live and on the block layout.  Fixed
(seed, config, model, policy) reproduce results bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .models import (
    BrownianDrift,
    CompoundPoissonDrift,
    GammaDrift,
    InverseGaussianDrift,
    LevyModel,
)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(6)


@dataclass(frozen=True)
class PathConfig:
    """Simulation controls.

    ``time_step`` drives grid based families only; ``horizon`` caps a single
    cycle, after which the cycle is flagged partial and dropped from
    estimates.
    """

    time_step: float = 1e-3
    n_paths: int = 10_000
    seed: int = 0
    horizon: float = 1e4

    def __post_init__(self):
        for name in ("time_step", "horizon"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0):
                raise ValueError(f"{name} must be finite and positive, "
                                 f"got {val!r}")
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")


@dataclass(frozen=True)
class SimulationEstimate:
    mean: float
    std_error: float
    n_effective: int
    quantity_tag: str

    def agrees_with(self, analytic: float, k: float = 3.0) -> bool:
        """True when the analytic value lies within k standard errors."""
        slack = k * self.std_error + 1e-12
        return abs(analytic - self.mean) <= slack


def path_rng(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# Cycle records
# ---------------------------------------------------------------------------

@dataclass
class CycleRecords:
    """Per-cycle outcomes of the policy simulation.

    Discount-dependent entries are dictionaries keyed by alpha; the key 0.0
    holds the undiscounted values.  Release integrals are discounted from
    the cycle start, so cost formulas compose without extra factors.
    """

    fill_time: np.ndarray
    release_time: np.ndarray
    crossing_state: np.ndarray
    e_fill: dict
    e_cycle: dict
    fill_g: dict
    release_g: dict
    release_disc_time: dict
    n_partial: int
    M: float

    @property
    def n_cycles(self) -> int:
        return len(self.fill_time)

    @property
    def cycle_length(self) -> np.ndarray:
        return self.fill_time + self.release_time

    @property
    def output_volume(self) -> np.ndarray:
        return self.M * self.release_time

    def overshoot_samples(self, lam: float) -> np.ndarray:
        """Overshoot beyond the threshold for jump crossings."""
        return self.crossing_state[self.crossing_state > lam] - lam

    def cycle_cost_samples(self, costs, alpha: float) -> np.ndarray:
        """Discounted first-cycle cost per cycle, matching the analytic form."""
        if alpha not in self.e_fill:
            raise KeyError(f"alpha={alpha} was not simulated")
        M = self.M
        return (M * costs.K2 + M * costs.K1 * self.e_fill[alpha]
                - costs.R * M * self.release_disc_time[alpha]
                + self.fill_g[alpha] + self.release_g[alpha])

    def average_cost_samples(self, costs) -> tuple:
        """(net undiscounted cycle cost, cycle length) pairs for the ratio."""
        M = self.M
        cost = (M * (costs.K1 + costs.K2) + self.fill_g[0.0]
                + self.release_g[0.0] - costs.R * M * self.release_time)
        return cost, self.cycle_length


def estimate(quantity_tag: str, values, lengths=None) -> SimulationEstimate:
    """Sample mean and standard error; ratio estimator when lengths given.

    The ratio estimator (for long-run averages) uses the delta method
    standard error of sum(values) / sum(lengths) over regeneration cycles.
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n < 2:
        raise ValueError("need at least 2 completed cycles for an estimate")
    if lengths is None:
        mean = float(values.mean())
        se = float(values.std(ddof=1) / math.sqrt(n))
        return SimulationEstimate(mean, se, n, quantity_tag)
    lengths = np.asarray(lengths, dtype=float)
    ratio = float(values.sum() / lengths.sum())
    resid = values - ratio * lengths
    se = float(math.sqrt(resid.var(ddof=1) / n) / lengths.mean())
    return SimulationEstimate(ratio, se, n, quantity_tag)


# ---------------------------------------------------------------------------
# Compound Poisson cycles: exact event-driven simulation, all paths in step
# ---------------------------------------------------------------------------

_SINK_BLOCK = 1024
_FIRST_DRAWS = 32  # the first block of draws of a path's stream
_MAX_DRAWS = 4096  # the longest block a refill draws


def _integrate_segments(g, slot, y0, slope, t0, duration, stick, alphas,
                        out: dict):
    """Add int_0^duration e^{-a (t0+t)} g(y0 - slope t) dt to out[a][slot].

    Vectorised over segments.  Each segment is cut at its breakpoint
    crossings (and at the sticking time when the content is absorbed at
    zero between jumps), and Gauss-Legendre is applied on each smooth piece.
    Pieces are added in segment order, so every slot sums its pieces in the
    order the event loop produced them.
    """
    keep = duration > 0.0
    if g.is_zero or not keep.any():
        return
    slope, stick = (np.broadcast_to(v, keep.shape) for v in (slope, stick))
    slot, y0, slope, t0, duration, stick = (
        v[keep] for v in (slot, y0, slope, t0, duration, stick))
    bps = np.asarray(g.breakpoints)
    with np.errstate(divide="ignore", invalid="ignore"):
        sticks = stick & (slope > 0) & (y0 - slope * duration < 0)
        t_stick = np.where(sticks, y0 / slope, np.nan)
        tb = (y0[:, None] - bps) / slope[:, None]
    crossed = (slope[:, None] != 0.0) & (tb > 0.0) & (tb < duration[:, None])
    cuts = np.sort(np.column_stack((np.zeros_like(y0), duration, t_stick,
                                    np.where(crossed, tb, np.nan))), axis=1)
    # NaN (no cut) sorts last; repeated cuts give empty pieces
    seg, col = np.nonzero(cuts[:, 1:] > cuts[:, :-1])
    lo, hi = cuts[seg, col], cuts[seg, col + 1]
    half = 0.5 * (hi - lo)
    ts = (0.5 * (hi + lo))[:, None] + half[:, None] * _GL_NODES
    ys = y0[seg, None] - slope[seg, None] * ts
    ys = np.where(stick[seg, None], np.maximum(ys, 0.0), ys)
    gs = g.values(ys)
    for a in alphas:
        damped = gs * np.exp(-a * (t0[seg, None] + ts)) if a else gs
        # padded: matmul sums a lone row as a dot product, rounded otherwise
        sums = np.vstack((damped, damped[:1])) @ _GL_WEIGHTS
        np.add.at(out[a], slot[seg], half * sums[:len(seg)])


class _SegmentSink:
    """Maintenance integrals of one rate function, one slot per cycle.

    The event loop adds pieces y0 - ``slope`` t, 0 <= t <= duration, at most
    one per cycle at a time, with t0 the piece's start from its cycle start;
    each slot sums its pieces in event order, wherever the blocks of at most
    ``block`` rows end.
    """

    def __init__(self, g, alphas, stick: bool, slope: float,
                 block: int = _SINK_BLOCK):
        self.g, self.alphas, self.stick = g, alphas, stick
        self.slope, self.block = slope, block
        self.live = not g.is_zero
        self._rows, self._held = [], 0
        self._out = {a: np.zeros(0) for a in alphas}

    def add(self, slot, y0, t0, duration):
        if self.live and len(slot):
            self._rows.append((slot, y0, t0, duration))
            self._held += len(slot)
            if self._held >= self.block:
                self.result(0)

    def result(self, n: int) -> dict:
        """Integrals of slots 0 to n - 1 by alpha, after the rows held."""
        if self._rows:
            slot, y0, t0, dur = (np.concatenate(c) for c in zip(*self._rows))
            self._rows, self._held = [], 0
            need = int(slot.max()) + 1
            self._out = {a: np.pad(v, (0, max(0, need - len(v))))
                         for a, v in self._out.items()}
            for k in range(0, len(slot), self.block):
                part = slice(k, k + self.block)
                _integrate_segments(self.g, slot[part], y0[part], self.slope,
                                    t0[part], dur[part], self.stick,
                                    self.alphas, self._out)
        return {a: np.pad(v, (0, max(0, n - len(v))))[:n]
                for a, v in self._out.items()}


class _Streams:
    """Standard exponentials of each live row's (seed, path) Philox stream.

    One Philox re-keyed by assigning its state draws as ``path_rng(seed,
    path)``, and ``s * e`` is bit for bit ``Generator.exponential(s)``.  Row
    r reads ``buf[cur[r]]``, draw ``cur[r] - shift[r]`` of its stream; a row
    left with under two is redrawn with a block as long as what it used,
    which is skipped.  Dead rows' draws go once they fill half of ``buf``.
    """

    def __init__(self, seed: int, paths):
        key = np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64)
        self._bits = np.random.Philox(key=key)
        self._rng = np.random.Generator(self._bits)
        self._state = self._bits.state  # counter 0: a stream's start
        self.buf = np.zeros(0)
        self.cur, self.end, self.shift = np.zeros((3, len(paths)), np.intp)
        self._refill(paths, np.arange(len(paths)))

    def _refill(self, paths, rows):
        used = self.cur[rows] - self.shift[rows]
        # as long as what was used, and at least the two a step may take
        size = np.maximum(np.clip(used, _FIRST_DRAWS, _MAX_DRAWS), 2)
        fresh = []
        for path, skip, count in zip(paths[rows].tolist(), used.tolist(),
                                     size.tolist()):
            self._state["state"]["key"][1] = path
            self._bits.state = self._state
            fresh.append(self._rng.standard_exponential(skip + count)[skip:])
        held = self.end - self.cur
        held[rows] = 0
        if len(self.buf) > 2 * held.sum():  # keep the unread draws only
            at = np.cumsum(held) - held
            self.buf = self.buf[np.repeat(self.cur - at, held)
                                + np.arange(held.sum())]
            self.shift = self.shift - (self.cur - at)
            self.cur, self.end = at, at + held
        at = len(self.buf) + np.cumsum(size) - size
        self.buf = np.concatenate([self.buf, *fresh])
        self.cur[rows], self.end[rows], self.shift[rows] = (at, at + size,
                                                            at - used)

    def next_two(self, paths):
        """Each row's next two draws, both taken (see ``put_back``)."""
        short = (self.end - self.cur < 2).nonzero()[0]
        if len(short):
            self._refill(paths, short)
        draws = self.buf[self.cur], self.buf[1:][self.cur]
        self.cur += 2
        return draws

    def put_back(self, one):
        """Rows marked in ``one`` used only the first of their two draws."""
        self.cur -= one

    def keep(self, order):
        self.cur, self.end, self.shift = (
            v[order] for v in (self.cur, self.end, self.shift))


def _cp_events(model, config, start, lam, tau, V, M, reflected, horizon,
               sinks=(None, None), fill_only=False, renew=False):
    """Cycles of every path from ``start``, all live paths one event a step.

    A fill ends when a jump reaches ``lam`` (at once from ``lam`` or above),
    a release at rate M from min(state, V) when it meets ``tau``; a phase
    open at ``horizon`` from its cycle start leaves the cycle partial.  A
    path stops after one fill if ``fill_only``, one cycle unless ``renew``,
    else when a cycle start reaches ``horizon``.  A step draws each path's
    gap, and its jump where the phase goes on, with a scalar loop's float
    operations in its order; a row's phase (filling rows first) enters only
    through its constants.  Returns per cycle (path, start time, fill time,
    crossing state, release time), NaN where a phase did not end.
    """
    n = config.n_paths
    scale, jumps, inf = 1.0 / model.rate, model.jumps, math.inf
    # per phase (fill, release): slope, release barrier, floor, cap, threshold
    table = np.array([(model.zeta, -inf, 0.0 if reflected else -inf, inf,
                       lam), (model.zeta + M, tau, -inf, V, inf)]).T
    path = slot = np.arange(n)
    streams = _Streams(config.seed, path)
    nf = n if start < lam else 0
    y = np.full(n, float(start) if nf else min(start, V))
    t, t0, cyc = np.zeros(n), np.zeros(n), np.zeros(n)
    hor = np.full(n, float(horizon))
    rec = [(0, slot, path), (1, slot, cyc)]  # (column, cycles, values)
    if not nf:
        rec += [(2, slot, t0), (3, slot, np.full(n, float(start)))]
    n_cycles = n
    sinks = [(s, k) for k, s in enumerate(sinks) if s is not None and s.live]
    constants = lambda nf, m: np.repeat(table, (nf, m - nf), axis=1)
    slope, bar, floor, cap, top = constants(nf, n)
    while len(path):
        e, e_jump = streams.next_two(path)
        gap = scale * e
        t_abs = (y - bar) / slope  # inf while filling
        fin = t_abs <= gap
        dur = np.where(fin, t_abs, np.minimum(gap, (hor - t0) - t))
        for sink, k in sinks:
            part = slice(nf) if k == 0 else slice(nf, None)
            sink.add(slot[part], y[part], (t0 + t)[part], dur[part])
        t = t + dur
        stop = fin | (t0 + t >= hor)
        y = np.minimum(np.maximum(y - slope * dur, floor)
                       + jumps.from_exponential(e_jump), cap)
        cross = y >= top  # less the stopped rows, below
        if not (np.count_nonzero(stop) or np.count_nonzero(cross)):
            continue

        streams.put_back(stop)
        cross &= ~stop
        ix, jx = cross.nonzero()[0], fin.nonzero()[0]
        rec += [(2, slot[ix], t[ix]), (3, slot[ix], y[ix]),
                (4, slot[jx], t[jx])]
        ends = cyc + (t0 + t)
        renewed = fin & (ends < horizon) if renew else np.zeros_like(fin)
        is_fill = np.arange(len(path)) < nf
        stay_fill = np.where(is_fill, ~(stop | cross), renewed)
        order = np.concatenate((stay_fill.nonzero()[0], np.where(
            is_fill, cross & (not fill_only), ~stop).nonzero()[0]))
        nf = int(np.count_nonzero(stay_fill))
        streams.keep(order)
        path, slot, y, t, t0, hor, cyc, ends = (
            v[order] for v in (path, slot, y, t, t0, hor, cyc, ends))
        # a crossing opens the valve: the release runs from min(state, V)
        ix = cross[order].nonzero()[0]
        t0[ix], t[ix], y[ix] = t[ix], 0.0, np.minimum(y[ix], V)
        ix = renewed[order].nonzero()[0]
        if len(ix):
            cyc[ix] = ends[ix]
            hor[ix], y[ix], t[ix], t0[ix] = horizon - cyc[ix], tau, 0.0, 0.0
            slot[ix] = np.arange(n_cycles, n_cycles + len(ix))
            n_cycles += len(ix)
            rec += [(0, slot[ix], path[ix]), (1, slot[ix], cyc[ix])]
        slope, bar, floor, cap, top = constants(nf, len(path))

    cols = np.full((5, n_cycles), np.nan)
    for k, cycles, values in rec:
        cols[k, cycles] = values
    return (cols[0].astype(np.intp), *cols[1:])


def _exp(a, ts):
    """e^{-a t} for each t by ``math.exp``, whose last bits np.exp misses;
    -a * ts rounds each product as the scalar -a * t does."""
    return np.array(list(map(math.exp, (-a * ts).tolist())))


def _records(done, t_fill, t_rel, state, e_fill, e_cycle, fill_g, release_g,
             M) -> CycleRecords:
    """The records of the cycles marked ``done``, from per-cycle arrays."""
    sel = lambda d: {a: v[done] for a, v in d.items()}
    e_fill, e_cycle = sel(e_fill), sel(e_cycle)
    return CycleRecords(
        fill_time=t_fill[done], release_time=t_rel[done],
        crossing_state=state[done], e_fill=e_fill, e_cycle=e_cycle,
        fill_g=sel(fill_g), release_g=sel(release_g),
        release_disc_time={a: (e_fill[a] - e_cycle[a]) / a if a
                           else t_rel[done] for a in e_fill},
        n_partial=int(len(done) - done.sum()), M=M)


# ---------------------------------------------------------------------------
# Grid based paths: Brownian and subordinator families, vectorised
# ---------------------------------------------------------------------------

def _subordinator_increments(model, rng, dt, size):
    if isinstance(model, GammaDrift):
        return rng.gamma(model.a * dt, 1.0 / model.b, size=size)
    if isinstance(model, InverseGaussianDrift):
        return rng.wald(dt / model.c, dt * dt / (model.sigma ** 2), size=size)
    raise TypeError(f"no grid sampler for {type(model).__name__}")


# steps times live paths that one kernel iteration draws: against 16,384, a
# verify-bm run at 8,192 is 9 % slower and at 32,768 has 3 MB more peak RSS
_GRID_BLOCK = 16384


# the bridge test's cutoff for its exponent lp, below ln 2^-53 = -36.74 with
# room for the rounding of exp: e^-37.5 = 5.2e-17 < 2^-53 = 1.1e-16
_BRIDGE_CUTOFF = -37.5


def _scan(ufunc, out, steps):
    """out[j + 1] = ufunc(out[j], steps[j]) from out[0] down the rows.
    ``ufunc.accumulate`` makes a call per column, so blocks with 4 times as
    many columns as rows or more go row by row, in the same order."""
    if 4 * len(out) <= out.shape[1]:
        for j in range(len(steps)):
            ufunc(out[j], steps[j], out=out[j + 1])
        return out
    out[1:] = steps
    return ufunc.accumulate(out, axis=0, out=out)


def _clip(a, lo, hi):
    """a held in [lo, hi] in place, an infinite bound skipped."""
    if lo > -math.inf:
        np.maximum(a, lo, out=a)
    if hi < math.inf:
        np.minimum(a, hi, out=a)
    return a


def _first_true(hit):
    """(columns, rows): the columns of hit holding a True, and the first's
    row.  ``argmax`` down the rows makes a call per column, so where the
    rows are no more than the columns only the columns that hit search."""
    if len(hit) == 1:
        ix = hit[0].nonzero()[0]
        return ix, np.zeros_like(ix)
    if len(hit) <= hit.shape[1]:
        ix = hit.any(axis=0).nonzero()[0]
        return ix, hit[:, ix].argmax(axis=0)
    first = hit.argmax(axis=0)
    ix = hit[first, np.arange(hit.shape[1])].nonzero()[0]
    return ix, first[ix]


class _GridKernel:
    """Blocks of time steps of the live grid paths, from the (seed, 0) stream.

    Filling paths move with the input, releasing paths with the input minus
    M.  A Brownian path samples its within-step minimum (filling) or maximum
    (releasing) exactly for reflection at 0 and the cap at V, and a bridge
    test catches crossings between grid points; subordinator increments are
    exact, with crossings seen at grid points only.

    ``block`` takes every live path up to K = max(1, ``_GRID_BLOCK`` // m)
    steps on, m the live paths, from (K, m) increments, for Brownian input
    (2K, m) uniforms (the extremum's rows, then the bridge's) and the jumps
    in one call; steps after a path's first hit or limit are dropped.

    A subordinator step ends at clip(y + w, ``lo``, ``hi``), taken row by
    row in wide blocks.  Otherwise the content is the free path X, the
    running sum of the increments, less the running extremum of the step
    cuts (Skorokhod map); a Brownian step j cuts clip(X_{j-1} + extremum -
    ``offset``, ``lo``, ``hi``).  Per phase, ``constants`` also hold
    ``shift`` (M dt when releasing), the extremum's ``sign`` (None where
    every cut is 0) and the barrier ``bar``.  Each operation keeps a step
    loop's operands, so at K = 1 the draws and bits are a step loop's.
    """

    def __init__(self, model, config, reflected, lam, tau, V, M):
        self.model = model
        self.dt = dt = config.time_step
        self.rng = path_rng(config.seed, 0)
        self.lam, self.tau, self.V, self.M = lam, tau, V, M
        self.is_bm = isinstance(model, BrownianDrift)
        self.sig_dt = math.sqrt(model.sigma2 * dt)
        self.sig2_dt = model.sigma2 * dt
        # per phase: shift, sign, offset, lo, hi, bar
        inf = math.inf
        cap = 1.0 if V < inf else None
        if self.is_bm:
            self.mu_dt = model.mu * dt
            fill = (0.0, -1.0 if reflected else None, 0.0, -inf, 0.0, lam)
            release = (M * dt, cap, V, 0.0, inf, tau)
        else:
            self.zeta_dt = model.zeta * dt
            floor = 0.0 if reflected else -inf
            fill = (0.0, -1.0 if reflected else None, 0.0, floor, inf, lam)
            release = (M * dt, cap, V, -inf, V, tau)
        self.constants = {True: fill, False: release}

    def draws(self, K, m):
        """(w, u) of one block: the increments as (K, m) and, for Brownian
        input, the uniforms as (2K, m), else None."""
        model, rng = self.model, self.rng
        if not self.is_bm:
            w = _subordinator_increments(model, rng, self.dt, (K, m))
            w -= self.zeta_dt
            return w, None
        w = rng.normal(self.mu_dt, self.sig_dt, size=(K, m))
        u = rng.random((2 * K, m))
        if model.has_jumps:
            cnt = rng.poisson(model.jump_rate * self.dt, size=K * m)
            cells = cnt.nonzero()[0]
            if len(cells):
                cnt = cnt[cells]
                sizes = model.jumps.sample(rng, int(cnt.sum()))
                at = np.cumsum(cnt) - cnt
                # a cell's jumps summed as one draw of its count would be
                sums = sizes[at]
                for i in (cnt > 1).nonzero()[0]:
                    sums[i] = sizes[at[i]:at[i] + cnt[i]].sum()
                w.reshape(-1)[cells] += sums
        return w, u

    def advance(self, y, w, u, filling: bool):
        """(Y, hit) of the K steps of w from the contents y, all in one
        phase, overwriting w and u: ``Y[j]`` is the content after step j
        (``Y[0]`` = y), ``hit[j - 1]`` marks the paths that reached their
        barrier within step j."""
        shift, sign, offset, lo, hi, bar = self.constants[filling]
        reached, short = ((np.greater_equal, np.less) if filling
                          else (np.less_equal, np.greater))
        K = len(w)
        if shift:
            w -= shift
        Y = np.empty((K + 1, len(y)))
        Y[0] = y
        if not self.is_bm and 4 * len(Y) <= len(y):  # wide: step by step
            for j in range(K):
                _clip(np.add(Y[j], w[j], out=Y[j + 1]), lo, hi)
            return Y, reached(Y[1:], bar)
        _scan(np.add, Y, w)  # the free path
        if not self.is_bm:
            if K > 1 and sign is not None:
                cut = w  # the cut to date before step j, from X_1 .. X_{j-1}
                cut[0] = 0.0
                np.multiply(sign, Y[1:-1] - offset, out=cut[1:])
                Y[1:] -= sign * _scan(np.maximum, cut, cut[1:])
            return Y, reached(_clip(Y[1:], lo, hi), bar)
        if sign is not None:
            cut = w * w
            e = np.log(u[:K], out=u[:K])
            e *= 2.0 * self.sig2_dt
            cut -= e
            np.sqrt(cut, out=cut)
            cut *= sign
            cut += w
            cut *= 0.5  # the extremum of the step's increment
            cut += Y[:-1]
            if offset:
                cut -= offset
            _clip(cut, lo, hi)
            if K > 1:  # the cut to date; over one step it is the step's
                cut *= sign
                cut = sign * _scan(np.maximum, cut, cut[1:])
            Y[1:] -= cut
        # bridge test for paths that start and end short of the barrier:
        # u < e^lp.  The uniforms are multiples of 2^-53, and at or below
        # the cutoff e^lp < 2^-53, so there only u = 0.0 can pass; exp is
        # taken where lp is above the cutoff or u is 0.0
        ub = u[K:]
        lp = bar - Y[:-1]
        lp *= np.subtract(bar, Y[1:], out=w)
        np.maximum(lp, 0.0, out=lp)
        lp *= -2.0
        lp /= self.sig2_dt
        near = np.flatnonzero((lp > _BRIDGE_CUTOFF) | (ub == 0.0))
        hit = reached(Y[1:], bar)
        hit.reshape(-1)[near] |= (short(Y[:-1].reshape(-1)[near], bar)
                                  & (ub.reshape(-1)[near]
                                     < np.exp(lp.reshape(-1)[near])))
        return Y, hit

    def block(self, y, filling, k, n_max):
        """Take the live paths one block on, from contents y in phases
        ``filling`` and step counts k, an array, below ``n_max``.  Returns
        (y_end, groups, ended, k): each path's content after its last used
        step; per phase, (phase, cols, Y, pos, used): its columns (a slice
        when all), Y from ``advance`` and the columns, by position, whose
        steps are given, with those steps (any other column uses all K);
        the paths whose last used step hit their barrier; and the step
        counts after the block.
        """
        m = len(y)
        K = min(max(1, _GRID_BLOCK // m), n_max - int(k.min()))
        w, u = self.draws(K, m)
        limit = int(k.max()) + K > n_max  # some reach n_max
        n_fill = int(np.count_nonzero(filling))
        y_end, groups, stops, ended = np.empty(m), [], [], []
        for phase, n in ((True, n_fill), (False, m - n_fill)):
            if n == m:
                cols = slice(None)
                Y, hit = self.advance(y, w, u, phase)
            elif n:  # take keeps a row-major layout, which w[:, cols] does not
                cols = (filling if phase else ~filling).nonzero()[0]
                Y, hit = self.advance(y[cols], w.take(cols, axis=1), None if
                                      u is None else u.take(cols, axis=1), phase)
            else:
                continue
            ix, first = _first_true(hit)
            if limit:
                steps = np.minimum(n_max - k[cols], K)
                keep = first < steps[ix]
                ix, first = ix[keep], first[keep]
                steps[ix] = first + 1
                pos = (steps < K).nonzero()[0]
                used = steps[pos]
            else:
                pos, used = ix, first + 1
            if len(pos):
                Y[K, pos] = Y[used, pos]
            groups.append((phase, cols, Y, pos, used))
            if n == m:
                y_end = Y[K]
            else:
                y_end[cols] = Y[K]
                pos, ix = cols[pos], cols[ix]
            stops.append((pos, used))
            ended.append(ix)
        k = k + K
        for at, used in stops:
            k[at] += used - K
        return y_end, groups, np.concatenate(ended), k

    def stopped(self, y_end, filling: bool):
        """Step-end contents held at the threshold that ends their phase."""
        return (np.minimum(y_end, self.lam) if filling
                else np.maximum(y_end, self.tau))

    def landing(self, y_end):
        """Where fill crossings land: lam unless a jump went past it."""
        if self.is_bm and not self.model.has_jumps:
            return self.lam
        return np.where(y_end >= self.lam, y_end, self.lam)


class _Clock:
    """The grid clock by step count: t_k, k time steps added one at a time,
    and e^{-a t_k} by ``math.exp`` for each discount rate a."""

    def __init__(self, dt, alphas):
        self.dt = dt
        self.t = np.zeros(1)
        self.disc = {a: np.ones(1) for a in alphas}

    def __call__(self, k, a=None):
        """t_k, or e^{-a t_k} at the discount rate a, at step counts k."""
        have = len(self.t)
        top = int(k.max(initial=0))
        if top >= have:
            new = np.cumsum(np.concatenate(([self.t[-1]], np.full(
                max(top + 1, 2 * have) - have, self.dt))))[1:]
            self.t = np.concatenate((self.t, new))
            # e^{-0 t} is exactly 1.0
            self.disc = {b: np.concatenate((d, _exp(b, new) if b
                                            else np.ones(len(new))))
                         for b, d in self.disc.items()}
        return self.t[k] if a is None else self.disc[a][k]


def _booked(rows, pos, used):
    """rows (K, columns), with the unused steps of the columns pos set to 0."""
    if len(pos):
        rows[:, pos] = np.where(np.arange(len(rows))[:, None] < used,
                                rows[:, pos], 0.0)
    return rows


def _grid_paths(kernel, n, start, filling, n_max, fill_only=False,
                renew=False):
    """n grid paths from ``start`` in the given phase, a block at a time on
    one clock, each until its steps reach ``n_max``.

    Yields per block the live paths' indices orig, their step counts k0 and
    k before and after it, the groups of ``kernel.block``, and the live
    positions of the fill crossings, with their landing states, and of the
    ended cycles (a release that met tau, or a crossing when ``fill_only``).
    Then a crossing releases from min(state, V), and an ended cycle fills
    again from tau when ``renew``, else its path leaves.
    """
    # live paths: their indices, contents, phases and step counts
    orig, y = np.arange(n), np.full(n, float(start))
    fill = np.full(n, bool(filling))
    k = np.zeros(n, np.intp)
    while len(y):
        k0 = k
        y, groups, ix, k = kernel.block(y, fill, k, n_max)
        crossed = ix[fill[ix]]
        ended = crossed if fill_only else ix[~fill[ix]]
        state = kernel.landing(y[crossed])
        yield orig, k0, k, groups, crossed, state, ended
        y[crossed] = np.minimum(state, kernel.V)
        fill[crossed] = False
        live = k < n_max
        if renew:
            y[ended], fill[ended] = kernel.tau, True
        else:
            live[ended] = False
        if not live.all():
            orig, y, fill, k = orig[live], y[live], fill[live], k[live]


def _grid_cycles(kernel, config, start, filling, costs=None, alphas=(),
                 fill_only=False) -> CycleRecords:
    """Every path from ``start`` in the given phase, on one clock.

    A path stops at its fill crossing when ``fill_only``, otherwise at the
    end of its release phase; paths live after horizon / dt steps are
    partial.  With ``costs`` the maintenance rates g of the phases, at the
    step-end contents held at the thresholds, take the trapezoid rule.
    """
    n = config.n_paths
    n_max = int(math.ceil(config.horizon / kernel.dt))
    clock = _Clock(kernel.dt, alphas)
    rates = {} if costs is None else {
        phase: rate for phase, rate in ((True, costs.g), (False, costs.g_star))
        if not rate.is_zero}
    integrals = {phase: {a: np.zeros(n) for a in alphas}
                 for phase in (True, False)}

    # per-path records, indexed by path
    t_fill, release_time, cross = np.zeros((3, n))
    e_fill, e_cycle = ({a: np.zeros(n) for a in alphas} for _ in "ab")
    done = np.zeros(n, dtype=bool)

    for orig, k0, k, groups, crossed, state, ended in _grid_paths(
            kernel, n, start, filling, n_max, fill_only):
        for phase, cols, Y, pos, used in groups:
            if phase in rates:
                values = rates[phase].values(kernel.stopped(Y, phase))
                at = k0[cols] + np.arange(len(Y))[:, None]
                pid = orig[cols]
                for a in alphas:  # each step's 0.5 dt (d0 g(y0) + d1 g(y1))
                    both = clock(at, a) * values if a else values
                    integrals[phase][a][pid] += _booked(0.5 * kernel.dt * (
                        both[:-1] + both[1:]), pos, used).sum(axis=0)
        pid = orig[crossed]
        t_fill[pid] = clock(k[crossed])
        cross[pid] = state
        pid = orig[ended]
        release_time[pid] = clock(k[ended]) - t_fill[pid]
        for a in alphas:
            e_fill[a][pid] = np.exp(-a * t_fill[pid])
            e_cycle[a][pid] = clock(k[ended], a)
        done[pid] = True
    return _records(done, t_fill, release_time, cross, e_fill, e_cycle,
                    integrals[True], integrals[False], kernel.M)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def run_policy_cycles(model: LevyModel, policy, costs, config: PathConfig,
                      reflected: bool = True,
                      alphas: Sequence[float] = ()) -> CycleRecords:
    """Simulate independent regeneration cycles started at the lower threshold.

    Returns per-cycle records; ``alphas`` selects the discount rates carried
    through the integrals (0.0, the undiscounted case, is always included).
    """
    alpha_list = sorted({0.0, *map(float, alphas)})
    if isinstance(model, CompoundPoissonDrift):
        sinks = (_SegmentSink(costs.g, alpha_list, reflected, model.zeta),
                 _SegmentSink(costs.g_star, alpha_list, False,
                              model.zeta + policy.M))
        _, _, t_fill, state, t_rel = _cp_events(
            model, config, policy.tau, policy.lam, policy.tau, policy.V,
            policy.M, reflected, config.horizon, sinks)
        n = config.n_paths
        return _records(~np.isnan(t_rel), t_fill, t_rel, state,
                        {a: _exp(a, t_fill) for a in alpha_list},
                        {a: _exp(a, t_fill + t_rel) for a in alpha_list},
                        sinks[0].result(n), sinks[1].result(n), policy.M)
    kernel = _GridKernel(model, config, reflected, policy.lam, policy.tau,
                     policy.V, policy.M)
    return _grid_cycles(kernel, config, policy.tau, True, costs, alpha_list)


def simulate_fill_phase(model: LevyModel, x: float, lam: float,
                        config: PathConfig, reflected: bool = True):
    """Fill phase only: (crossing times, crossing states, number unfinished)."""
    if not x <= lam:
        raise ValueError("the fill phase needs x <= lam")
    if reflected and not x >= 0:
        raise ValueError("the reflected fill phase needs x >= 0")
    if x == lam:
        # a fill from the threshold has length zero
        n = config.n_paths
        return np.zeros(n), np.full(n, float(x)), 0
    if isinstance(model, CompoundPoissonDrift):
        _, _, t_fill, state, _ = _cp_events(
            model, config, x, lam, -math.inf, math.inf, 0.0, reflected,
            config.horizon, fill_only=True)
        done = ~np.isnan(t_fill)
        return t_fill[done], state[done], int(len(done) - done.sum())
    # no release follows, so it has no barrier (tau = -inf) and no cap
    kernel = _GridKernel(model, config, reflected, lam, -math.inf, math.inf, 0.0)
    rec = _grid_cycles(kernel, config, x, True, fill_only=True)
    return rec.fill_time, rec.crossing_state, rec.n_partial


def simulate_release_phase(model: LevyModel, z: float, tau: float, V: float,
                           M: float, config: PathConfig):
    """Release phase only from content z: (passage times, number unfinished).

    The release starts at min(z, V).
    """
    if not z >= tau:
        raise ValueError("the release phase needs z >= tau")
    if not tau < V:
        raise ValueError("the release phase needs tau < V")
    if not M > 0:
        raise ValueError("release rate M must be positive")
    if isinstance(model, CompoundPoissonDrift):
        # no fill comes first: from a threshold of -inf it has length zero
        *_, t_rel = _cp_events(model, config, z, -math.inf, tau, V, M, False,
                               config.horizon)
        done = ~np.isnan(t_rel)
        return t_rel[done], int(len(done) - done.sum())
    # the shifted model draws the release drift (mu - M or zeta + M) into
    # each increment, so the kernel subtracts no M dt; no fill comes first,
    # so it has no threshold (lam = inf)
    kernel = _GridKernel(model.shifted(M), config, False, math.inf, tau, V, 0.0)
    rec = _grid_cycles(kernel, config, min(z, V), False)
    return rec.release_time, rec.n_partial


def simulate_total_discounted(model: LevyModel, policy, costs, alpha: float,
                              x: float, config: PathConfig,
                              reflected: bool = True,
                              discount_floor: float = 1e-5) -> SimulationEstimate:
    """Long-horizon estimate of the total discounted cost started at x.

    Paths run successive cycles until the discount factor falls below
    ``discount_floor``, so the truncated tail is bounded by the floor times
    the one-cycle cost scale.  Opening charges are paid when the valve
    opens, closing charges at each cycle start, matching the analytic
    convention; a cycle still open at the floor keeps what fell due before
    it.
    """
    if alpha <= 0:
        raise ValueError("needs alpha > 0")
    if isinstance(model, CompoundPoissonDrift):
        totals = _total_discounted_cp(model, policy, costs, alpha, x, config,
                                      reflected, discount_floor)
    else:
        totals = _total_discounted_grid(model, policy, costs, alpha, x, config,
                                        reflected, discount_floor)
    return estimate(f"total_discounted:{alpha:g}", totals)


def _total_discounted_cp(model, policy, costs, alpha, x, config, reflected,
                         floor):
    """Per-path totals, from the records and integrals of all cycles."""
    lam, M = policy.lam, policy.M
    t_max = -math.log(floor) / alpha
    sinks = (_SegmentSink(costs.g, [alpha], reflected, model.zeta),
             _SegmentSink(costs.g_star, [alpha], False, model.zeta + M))
    path, start, t_fill, _, t_rel = _cp_events(
        model, config, x, lam, policy.tau, policy.V, M, reflected, t_max,
        sinks, renew=True)
    n, n_cycles = config.n_paths, len(path)
    # every cycle from lam or below pays the closing charge at its start;
    # only a path's first cycle (slots below n) can start above
    fixed = np.where((np.arange(n_cycles) >= n) | (x <= lam),
                     M * costs.K2, 0.0)
    opened = ~np.isnan(t_fill)
    # a release still open at the floor is discounted to the floor
    ends = np.where(np.isnan(t_rel), t_max - start, t_fill + t_rel)
    ef, ec = _exp(alpha, t_fill[opened]), _exp(alpha, ends[opened])
    fixed[opened] = (fixed[opened] + M * costs.K1 * ef
                     - costs.R * M * (ef - ec) / alpha)
    cost = (fixed + sinks[0].result(n_cycles)[alpha]
            + sinks[1].result(n_cycles)[alpha])
    totals = np.zeros(n)
    np.add.at(totals, path, _exp(alpha, start) * cost)
    return totals


def _total_discounted_grid(model, policy, costs, alpha, x, config, reflected,
                           floor):
    """Successive cycles on one clock, until the discount floor.

    Each path's total takes, step by step, its maintenance integral, its
    release reward and its charges as they fall due, in that order, until
    its steps reach the floor.
    """
    lam, V, M = policy.lam, policy.V, policy.M
    n, dt = config.n_paths, config.time_step
    kernel = _GridKernel(model, config, reflected, lam, policy.tau, V, M)
    n_max = int(math.ceil(-math.log(floor) / alpha / dt))
    clock = _Clock(dt, (alpha,))
    rates = {ph: r for ph, r in ((True, costs.g), (False, costs.g_star))
             if not r.is_zero}

    start = min(x, V)
    # a cycle from lam or below pays the closing charge, one from lam or
    # above the opening charge, at time 0; a fill from the threshold has
    # length zero: the valve opens
    totals = np.full(n, (M * costs.K2 if start <= lam else 0.0)
                     + (M * costs.K1 if start >= lam else 0.0))
    for orig, k0, k, groups, opened, _, closed in _grid_paths(
            kernel, n, start, start < lam, n_max, renew=True):
        for phase, cols, Y, pos, used in groups:
            pid = orig[cols]
            d = clock(k0[cols] + np.arange(len(Y))[:, None], alpha)
            parts = []
            if phase in rates:
                values = rates[phase].values(kernel.stopped(Y, phase))
                values *= d
                parts.append(0.5 * dt * (values[:-1] + values[1:]))
            if not phase:
                parts.append(-(costs.R * M * (d[:-1] - d[1:]) / alpha))
            # a path's steps in order, each its integral, then its reward
            rows = np.empty((1 + len(parts) * (len(Y) - 1), Y.shape[1]))
            rows[0] = totals[pid]
            for i, part in enumerate(parts):
                rows[1 + i::len(parts)] = _booked(part, pos, used)
            totals[pid] = rows.sum(axis=0)
        # the valve opens, or a cycle ends: pay the opening or closing charge
        totals[orig[opened]] += clock(k[opened], alpha) * M * costs.K1
        totals[orig[closed]] += clock(k[closed], alpha) * M * costs.K2
    return totals
