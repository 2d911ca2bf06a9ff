"""Monte Carlo path oracle for the release policy.

Simulates the content process under the policy and produces per-cycle
records (fill time, crossing state, release time, discounted and plain
maintenance integrals) that back independent estimates of every analytic
quantity in the package.

Simulation schemes per family:

* compound Poisson drift: exact event-driven paths, no discretisation;
* Brownian drift: synchronised time stepping across all paths with the
  within-step minimum (or maximum) sampled exactly for the reflecting
  barrier and the cap, and a Brownian bridge correction for threshold
  crossings;
* gamma / inverse Gaussian drift: exact increment sampling on the grid,
  accepting grid resolution error in crossing detection.

Every family the package defines is simulated; a model of any other class
raises ``TypeError`` at its first grid draw.

Compound Poisson paths run in lock step (``_cp_events``): each NumPy step
takes every live path one event on, as a scalar event loop would; the
pieces between events go to a ``_SegmentSink``, integrated in blocks.

The grid families share one step kernel, ``_GridStep``: it draws one step
for every live path (increments, jumps, within-step extremum, bridge test,
reflection at 0, cap at V).  A path's phase reaches it only through phase
constants (barrier, extremum side, M dt shift, clip), scalars while all
live paths share a phase and per-path arrays (``_Phases``) once they mix,
so no path pays for the other phase.  Two step loops run the kernel.
``_grid_cycles`` stops each path by a rule: after its fill phase
(``simulate_fill_phase``), after a release phase (``simulate_release_phase``)
or after one full cycle (``run_policy_cycles``); its maintenance integrals
are trapezoids added in blocks by a ``_GridSink``.
``_total_discounted_grid`` runs successive cycles until the discount floor
and books each charge as it falls due.

Randomness is counter based.  A compound Poisson path reads standard
exponentials from the Philox stream keyed by (seed, path index), in blocks
(``_Streams``): a gap or a jump is a scale times one, so its outcome does
not depend on ``n_paths``.
The grid kernel consumes the (seed, 0) stream for all live paths in lock
step, so a grid path's draws depend on ``n_paths``.  Fixed (seed, config,
model, policy) reproduce results bit for bit.
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
    """e^{-a t} for each t by ``math.exp``, whose last bits np.exp misses."""
    return np.array([math.exp(-a * v) for v in ts.tolist()])


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


_GRID_BLOCK = 4096  # 8,192 raised the peak RSS of a verify-bm run by 1 MB

# the fields of a phase's step constants, in order (see _GridStep)
_CONSTANTS = ("shift", "sign", "offset", "lo", "hi", "s", "s_bar", "bar")


def _minus(a, b):
    """a - b, where b = None stands for an exact zero and is skipped."""
    return a if b is None else a - b


class _GridStep:
    """One time step of every live grid path, drawn from the (seed, 0) stream.

    Filling paths move with the input, releasing paths with the input minus
    M.  A Brownian path samples its within-step minimum (filling) or maximum
    (releasing) exactly; reflection at 0 and the cap at V act on it, and a
    Brownian bridge test catches threshold crossings between grid points.
    Subordinator increments are exact, but crossings are seen only at grid
    points.  Draws go to the live paths in order, so a path's draws depend
    on which other paths are still live.

    A path's phase enters only through its constants (``_CONSTANTS``):
    ``shift`` = M dt when releasing; the extremum is the minimum (``sign``
    -1) or the maximum (+1); a Brownian step is cut by clip(y + extremum -
    ``offset``, ``lo``, ``hi``), which is min(0, y + minimum) for a
    reflected fill, 0 for a plain one and max(0, y + maximum - V) for a
    release, and a subordinator step ends at clip(y + w, ``lo``, ``hi``);
    a path hits its barrier ``bar`` when ``s`` y_end >= ``s_bar`` = s bar,
    with s = +1 filling and -1 releasing.  Negating both sides of a
    comparison or both factors of a product, and clipping at an infinite
    bound, are exact, so each phase gets the bits of its own branch.
    ``uniform[filling]`` holds a phase's constants as scalars, None where
    one acts as an exact identity and is skipped; ``table`` holds them as
    columns (fill, release) for per-path rows.
    """

    def __init__(self, model, config, reflected, lam, tau, V, M):
        self.model = model
        self.dt = dt = config.time_step
        self.rng = path_rng(config.seed, 0)
        self.lam, self.tau, self.V, self.M = lam, tau, V, M
        self.is_bm = isinstance(model, BrownianDrift)
        self.sig_dt = math.sqrt(model.sigma2 * dt)
        self.sig2_dt = model.sigma2 * dt
        self.log_scale = 2.0 * model.sigma2 * dt
        inf = math.inf
        if self.is_bm:
            self.mu_dt = model.mu * dt
            fill = (0.0, -1.0, 0.0, -inf if reflected else 0.0, 0.0,
                    1.0, lam, lam)
            release = (M * dt, 1.0, V, 0.0, inf, -1.0, -tau, tau)
        else:
            self.zeta_dt = model.zeta * dt
            fill = (0.0, 0.0, 0.0, 0.0 if reflected else -inf, inf,
                    1.0, lam, lam)
            release = (M * dt, 0.0, 0.0, -inf, V, -1.0, -tau, tau)
        self.table = np.array([fill, release]).T
        self.uniform = {True: self._scalars(fill),
                        False: self._scalars(release)}

    def _scalars(self, row):
        c = dict(zip(_CONSTANTS, row))
        identity = {"shift": 0.0, "offset": 0.0, "lo": -math.inf,
                    "hi": math.inf, "s": 1.0}
        for name, value in identity.items():
            if c[name] == value:
                c[name] = None
        # a cut that is 0 for every path needs no extremum
        if not self.is_bm or (c["lo"] == c["hi"] == 0.0
                              or c["offset"] == math.inf):
            c["sign"] = None
        return tuple(c[name] for name in _CONSTANTS)

    def __call__(self, y, constants):
        """(y_end, hit) of one step from the contents y.

        ``y_end`` is the content at the end of the step, after reflection
        or the cap; ``hit`` marks paths that reached their barrier within
        the step.
        """
        shift, sign, offset, lo, hi, s, s_bar, bar = constants
        model, rng, m = self.model, self.rng, len(y)
        if not self.is_bm:
            w = _subordinator_increments(model, rng, self.dt, m) - self.zeta_dt
            y_end = y + _minus(w, shift)
            if lo is not None:
                y_end = np.maximum(y_end, lo)
            if hi is not None:
                y_end = np.minimum(y_end, hi)
            return y_end, (y_end if s is None else s * y_end) >= s_bar
        w = rng.normal(self.mu_dt, self.sig_dt, size=m)
        u = rng.random(2 * m)  # the extremum's uniforms, then the bridge's
        if model.has_jumps:
            cnt = rng.poisson(model.jump_rate * self.dt, size=m)
            for k in np.nonzero(cnt)[0]:
                w[k] += model.jumps.sample(rng, cnt[k]).sum()
        w = _minus(w, shift)
        y_end = y + w
        if sign is not None:
            root = np.sqrt(w * w - self.log_scale * np.log(u[:m]))
            cut = _minus(y + 0.5 * (w + sign * root), offset)
            if lo is not None:
                cut = np.maximum(lo, cut)
            if hi is not None:
                cut = np.minimum(hi, cut)
            y_end = y_end - cut
        # bridge test for paths that start and end short of the barrier
        p = np.exp(-2.0 * np.maximum((bar - y) * (bar - y_end), 0.0)
                   / self.sig2_dt)
        sy, sy_end = (y, y_end) if s is None else (s * y, s * y_end)
        return y_end, (sy_end >= s_bar) | ((sy < s_bar) & (u[m:] < p))

    def stopped(self, y_end, filling: bool):
        """Step-end contents held at the threshold that ends their phase."""
        return (np.minimum(y_end, self.lam) if filling
                else np.maximum(y_end, self.tau))

    def landing(self, y_end):
        """Where fill crossings land, from their step-end contents."""
        if not self.is_bm:
            return y_end
        if self.model.has_jumps:
            return np.where(y_end >= self.lam, y_end, self.lam)
        return self.lam


class _Phases:
    """Phases of the live grid paths and the step constants they select.

    While every live path is in one phase, ``filling`` is that phase as a
    bool and ``constants`` are the kernel's scalars for it.  Once both
    phases are live, ``filling`` is an array over the live paths and
    ``constants`` are the rows of a per-path array, updated only where a
    path changes phase.  ``filling`` is replaced rather than written in
    place, so a sink may keep it.
    """

    def __init__(self, step, filling: bool, m: int):
        self.step = step
        self.m = m
        self.n_fill = m if filling else 0
        self._uniform(filling)

    def _uniform(self, filling):
        # a Python bool, which split() tells from an array by identity
        filling = bool(filling)
        self.filling = filling
        self.constants = self.step.uniform[filling]
        self._per_path = None
        self._index = {}

    def _mixed(self, filling):
        if self.n_fill in (0, self.m):
            self._uniform(self.n_fill > 0)
        else:
            self.filling = filling
            self.constants = tuple(self._per_path)
            self._index = {}

    def rows(self, filling: bool):
        """Indices of the live paths in a phase: all of them as a slice,
        None when there are none."""
        n = self.n_fill if filling else self.m - self.n_fill
        if n == 0:
            return None
        if n == self.m:
            return slice(None)
        if filling not in self._index:
            mask = self.filling if filling else ~self.filling
            self._index[filling] = mask.nonzero()[0]
        return self._index[filling]

    def split(self, ix):
        """(filling, releasing) parts of the live indices ix."""
        if self.filling is True:
            return ix, ix[:0]
        if self.filling is False:
            return ix[:0], ix
        fill = self.filling[ix]
        return ix[fill], ix[~fill]

    def move(self, to_release, to_fill):
        """Switch the live paths ``to_release`` and ``to_fill`` over."""
        if not (len(to_release) or len(to_fill)):
            return
        table = self.step.table
        if self._per_path is None:
            filling = np.full(self.m, self.filling)
            col = 0 if self.filling else 1
            self._per_path = np.repeat(table[:, [col]], self.m, axis=1)
        else:
            filling = self.filling.copy()
        filling[to_release] = False
        filling[to_fill] = True
        self._per_path[:, to_release] = table[:, [1]]
        self._per_path[:, to_fill] = table[:, [0]]
        self.n_fill += len(to_fill) - len(to_release)
        self._mixed(filling)

    def keep(self, live):
        """Keep the live paths marked in the mask ``live``."""
        self.m = int(np.count_nonzero(live))
        if self._per_path is None:
            self.n_fill = self.m if self.filling else 0
        else:
            filling = self.filling[live]
            self.n_fill = int(np.count_nonzero(filling))
            self._per_path = np.compress(live, self._per_path, axis=1)
            self._mixed(filling)


class _GridSink:
    """Trapezoid maintenance integrals of the grid paths, one per path.

    The step loop hands over each step's clock and the live paths' indices,
    contents at both ends of the step and phases; the loop replaces those
    arrays rather than writing into them, so no copy is taken.  At most
    ``block`` rows are held (a single larger step is integrated in parts):
    each row adds 0.5 dt (e^{-a t} g(y) + e^{-a (t + dt)} g(y_end)), with g
    the rate of its phase, y_end held at the threshold that ends the phase
    and the discount factors from ``math.exp``.  ``np.add.at`` adds the rows
    in step order, so each path gets the additions of a per-step update in
    the same order, bit for bit.
    """

    def __init__(self, step, costs, alphas, n: int, block: int = _GRID_BLOCK):
        self.dt = step.dt
        self.alphas = alphas
        self.block = block
        self.fill = {a: np.zeros(n) for a in alphas}
        self.release = {a: np.zeros(n) for a in alphas}
        self.stopped = step.stopped
        rates = () if costs is None else ((costs.g, True, self.fill),
                                          (costs.g_star, False, self.release))
        self._rates = [r for r in rates if not r[0].is_zero]
        self._steps = []
        self._held = 0

    def add(self, t, orig, y, y_end, filling):
        if self._rates:
            if self._held + len(y) > self.block:
                self.flush()
            self._steps.append((t, orig, y, y_end, filling))
            self._held += len(y)

    def flush(self):
        steps, self._steps, self._held = self._steps, [], 0
        if not steps:
            return
        dt = self.dt
        sizes = [len(s[2]) for s in steps]
        k = np.repeat(np.arange(len(steps)), sizes)
        pid, y0, y1 = (np.concatenate([s[i] for s in steps]) for i in (1, 2, 3))
        fill = np.empty(len(k), dtype=bool)
        for s, end in zip(steps, np.cumsum(sizes).tolist()):
            fill[end - len(s[2]):end] = s[4]
        disc = {a: (np.array([math.exp(-a * s[0]) for s in steps]),
                    np.array([math.exp(-a * (s[0] + dt)) for s in steps]))
                for a in self.alphas}
        # only a single step of more than ``block`` rows takes several parts
        for start in range(0, len(k), self.block):
            part = slice(start, start + self.block)
            for rate, phase, acc in self._rates:
                rows = (fill[part] == phase).nonzero()[0] + start
                if not len(rows):
                    continue
                ends = rate.values(np.concatenate(
                    (y0[rows], self.stopped(y1[rows], phase))))
                base, top = ends[:len(rows)], ends[len(rows):]
                ks, paths = k[rows], pid[rows]
                for a in self.alphas:
                    e0, e1 = disc[a]
                    # math.exp(-0.0 t) is 1, and 1 x is x
                    both = e0[ks] * base + e1[ks] * top if a else base + top
                    np.add.at(acc[a], paths, 0.5 * dt * both)


def _grid_cycles(step, config, start, filling, costs=None, alphas=(),
                 fill_only=False, block=_GRID_BLOCK) -> CycleRecords:
    """Every path from ``start`` in the given phase, on a common clock.

    A path stops at its fill crossing when ``fill_only``, otherwise at the
    end of its release phase.  Finished paths leave the live arrays each
    step, so late stragglers cost almost nothing; paths still live at the
    horizon are partial.  With ``costs`` the maintenance rates are
    integrated by the trapezoid rule on the grid, in a ``_GridSink`` that
    holds at most ``block`` rows.
    """
    n = config.n_paths
    dt = step.dt
    sink = _GridSink(step, costs, alphas, n, block)

    # live paths: their indices, contents and phases
    orig = np.arange(n)
    y = np.full(n, float(start))
    phases = _Phases(step, filling, n)

    # per-path records, indexed by path
    t_fill = np.zeros(n)
    release_time = np.zeros(n)
    cross = np.zeros(n)
    e_fill = {a: np.zeros(n) for a in alphas}
    e_cycle = {a: np.zeros(n) for a in alphas}
    done = np.zeros(n, dtype=bool)

    t = 0.0
    for _ in range(int(math.ceil(config.horizon / dt))):
        if len(y) == 0:
            break
        y_end, hit = step(y, phases.constants)
        sink.add(t, orig, y, y_end, phases.filling)
        t += dt
        ix = hit.nonzero()[0]
        if not len(ix):
            y = y_end
            continue
        crossed, ended = phases.split(ix)
        if len(crossed):
            pid = orig[crossed]
            t_fill[pid] = t
            cross[pid] = state = step.landing(y_end[crossed])
        finished = crossed if fill_only else ended
        if len(crossed) and not fill_only:
            y = y_end.copy()
            y[crossed] = np.minimum(state, step.V)
            phases.move(crossed, crossed[:0])
        else:
            y = y_end
        if len(finished):
            pid = orig[finished]
            release_time[pid] = t - t_fill[pid]
            for a in alphas:
                e_fill[a][pid] = np.exp(-a * t_fill[pid])
                e_cycle[a][pid] = math.exp(-a * t)
            done[pid] = True
            live = np.ones(len(y), dtype=bool)
            live[finished] = False
            orig, y = orig[live], y[live]
            phases.keep(live)
    sink.flush()
    return _records(done, t_fill, release_time, cross, e_fill, e_cycle,
                    sink.fill, sink.release, step.M)


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
    step = _GridStep(model, config, reflected, policy.lam, policy.tau,
                     policy.V, policy.M)
    return _grid_cycles(step, config, policy.tau, True, costs, alpha_list)


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
    step = _GridStep(model, config, reflected, lam, -math.inf, math.inf, 0.0)
    rec = _grid_cycles(step, config, x, True, fill_only=True)
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
    step = _GridStep(model.shifted(M), config, False, math.inf, tau, V, 0.0)
    rec = _grid_cycles(step, config, min(z, V), False)
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
    """Successive cycles on a shared clock, until the discount floor.

    Each path's total takes, step by step, its maintenance integral, its
    release reward and its charges as they fall due, so no path ever leaves
    the arrays.  A step ends where the next one starts unless the path
    changes phase, so the rate at a step's end is kept as the next step's
    rate at its start.
    """
    lam, tau, V, M = policy.lam, policy.tau, policy.V, policy.M
    n = config.n_paths
    dt = config.time_step
    step = _GridStep(model, config, reflected, lam, tau, V, M)
    g, gs = costs.g, costs.g_star
    rates = [(f, rate) for f, rate in ((True, g), (False, gs))
             if not rate.is_zero]

    start = min(x, V)
    y = np.full(n, float(start))
    # a fill from the threshold has length zero: the valve opens at once
    filling = start < lam
    phases = _Phases(step, filling, n)
    # a cycle from lam or below pays the closing charge, one from lam or
    # above the opening charge, at time 0
    totals = np.full(n, (M * costs.K2 if start <= lam else 0.0)
                     + (M * costs.K1 if start >= lam else 0.0))
    # each path's maintenance rate at its content, in its phase
    level = (g if filling else gs).values(y)

    t = 0.0
    t_max = -math.log(floor) / alpha
    for _ in range(int(math.ceil(t_max / dt))):
        d0 = math.exp(-alpha * t)
        d1 = math.exp(-alpha * (t + dt))
        y_end, hit = step(y, phases.constants)
        top = np.zeros(n)
        for filling, rate in rates:
            rows = phases.rows(filling)
            if rows is not None:
                top[rows] = rate.values(step.stopped(y_end[rows], filling))
                totals[rows] += 0.5 * dt * (d0 * level[rows] + d1 * top[rows])
        rows = phases.rows(False)
        if rows is not None:
            totals[rows] -= costs.R * M * (d0 - d1) / alpha
        ix = hit.nonzero()[0]
        y, level = y_end, top
        if len(ix):
            opened, closed = phases.split(ix)
            # the valve opens: pay the opening charge
            totals[opened] += d1 * M * costs.K1
            # the cycle ends: pay the next closing charge
            totals[closed] += d1 * M * costs.K2
            # an opened valve releases from the capped state, a closed one
            # restarts the fill at tau
            y = y_end.copy()
            y[opened] = np.minimum(step.landing(y_end[opened]), V)
            y[closed] = tau
            level[opened] = gs.values(y[opened])
            level[closed] = g.values(y[closed])
            phases.move(opened, closed)
        t += dt
    return totals
