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
  accepting grid resolution error in crossing detection;
* generic bounded variation: jumps below ``small_jump_cutoff`` replaced by
  their mean drift, larger jumps sampled from the tail via a quantile table.

The compound Poisson event loop only draws and records the linear pieces of
each path; their maintenance integrals are computed afterwards, vectorised
over blocks of pieces (``_SegmentSink``).

The grid families share one step kernel, ``_GridStep``: it draws one step
for every live path (increments, jumps, within-step extremum, bridge test,
reflection at 0, cap at V).  Two drivers run it.  ``_grid_cycles`` stops
each path by a rule: after its fill phase (``simulate_fill_phase``), after
a release phase (``simulate_release_phase``) or after one full cycle
(``run_policy_cycles``).  ``_total_discounted_grid`` runs successive cycles
until the discount floor and books each charge as it falls due.

Randomness is counter based: the compound Poisson simulators and
``simulate_input_path`` draw from Philox streams keyed by (seed, path
index); the grid kernel consumes the (seed, 0) stream for all live paths in
lock step, so a grid path's draws depend on ``n_paths``.  Fixed (seed,
config, model, policy) reproduce results bit for bit.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .models import (
    BrownianDrift,
    CompoundPoissonDrift,
    GammaDrift,
    GenericBoundedVariation,
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
    small_jump_cutoff: float = 1e-6

    def __post_init__(self):
        for name in ("time_step", "horizon"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0):
                raise ValueError(f"{name} must be finite and positive, "
                                 f"got {val!r}")
        if not self.small_jump_cutoff > 0:
            raise ValueError("small_jump_cutoff must be positive, got "
                             f"{self.small_jump_cutoff!r}")
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
# Raw input paths
# ---------------------------------------------------------------------------

@dataclass
class InputPath:
    """Sampled net inflow path started at zero.

    ``times`` and ``values`` record the skeleton (event times for compound
    Poisson, the uniform grid otherwise); jump events are listed separately.
    """

    times: np.ndarray
    values: np.ndarray
    jump_times: np.ndarray
    jump_sizes: np.ndarray

    def value_at(self, t: float) -> float:
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        return float(self.values[max(idx, 0)])


def simulate_input_path(model: LevyModel, config: PathConfig, t_end: float,
                        path_index: int = 0) -> InputPath:
    """One path of the raw input process on [0, t_end]."""
    if t_end > config.horizon:
        raise ValueError("t_end exceeds the configured horizon")
    rng = path_rng(config.seed, path_index)
    if isinstance(model, CompoundPoissonDrift):
        zeta, rate = model.zeta, model.rate
        jt, js = [], []
        t = 0.0
        while True:
            t += rng.exponential(1.0 / rate)
            if t >= t_end:
                break
            jt.append(t)
            js.append(float(model.jumps.sample(rng, 1)[0]))
        jt = np.array(jt)
        js = np.array(js)
        times = np.concatenate(([0.0], jt, [t_end]))
        cum = np.concatenate(([0.0], np.cumsum(js), [js.sum()]))
        values = cum - zeta * times
        return InputPath(times, values, jt, js)
    n = int(math.ceil(t_end / config.time_step))
    dt = t_end / n
    times = np.linspace(0.0, t_end, n + 1)
    if isinstance(model, BrownianDrift):
        incs = rng.normal(model.mu * dt, math.sqrt(model.sigma2 * dt), size=n)
        jt = js = np.empty(0)
        if model.has_jumps:
            jt, js = _poisson_jumps(rng, model.jump_rate, model.jumps, t_end)
            idx = np.minimum(np.searchsorted(times[1:], jt, side="left"), n - 1)
            np.add.at(incs, idx, js)
        values = np.concatenate(([0.0], np.cumsum(incs)))
        return InputPath(times, values, jt, js)
    incs = _subordinator_increments(model, rng, dt, n) - model.zeta * dt
    values = np.concatenate(([0.0], np.cumsum(incs)))
    return InputPath(times, values, np.empty(0), np.empty(0))


def _poisson_jumps(rng, rate, jumps, t_end):
    count = rng.poisson(rate * t_end)
    jt = np.sort(rng.uniform(0.0, t_end, size=count))
    js = jumps.sample(rng, count) if count else np.empty(0)
    return jt, np.asarray(js, dtype=float)


def _subordinator_increments(model, rng, dt, size):
    if isinstance(model, GammaDrift):
        return rng.gamma(model.a * dt, 1.0 / model.b, size=size)
    if isinstance(model, InverseGaussianDrift):
        return rng.wald(dt / model.c, dt * dt / (model.sigma ** 2), size=size)
    raise TypeError(f"no grid sampler for {type(model).__name__}")


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
# Compound Poisson cycles: exact event-driven simulation
# ---------------------------------------------------------------------------

_SINK_BLOCK = 1024


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
    stick = np.broadcast_to(stick, keep.shape)
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
        np.add.at(out[a], slot[seg], half * (damped @ _GL_WEIGHTS))


class _SegmentSink:
    """Maintenance integrals of one rate function, one slot per kept cycle.

    The event loop adds each linear piece y0 - slope t, 0 <= t <= duration,
    of the cycle in progress; t0 is the piece's start from the cycle start.
    ``close`` keeps the cycle under the next slot and ``drop`` discards it
    (a partial cycle).  At most ``block`` pieces are held before they are
    integrated by ``_integrate_segments``.
    """

    def __init__(self, g, alphas, stick: bool, block: int = _SINK_BLOCK):
        self.g = g
        self.alphas = alphas
        self.stick = stick
        self.block = block
        self.n_slots = 0
        self._live = not g.is_zero
        self._rows = []
        self._open = 0  # index in _rows where the open cycle starts
        self._out = {a: np.zeros(0) for a in alphas}

    def add(self, y0, slope, t0, duration):
        if self._live:
            self._rows.append((self.n_slots, y0, slope, t0, duration))
            if len(self._rows) >= self.block:
                self._flush()

    def close(self):
        self.n_slots += 1
        self._open = len(self._rows)

    def drop(self):
        del self._rows[self._open:]
        for v in self._out.values():
            if self.n_slots < len(v):
                v[self.n_slots] = 0.0

    def _flush(self):
        need = self.n_slots + 1
        for a, v in self._out.items():
            if len(v) < need:
                grown = np.zeros(max(need, 2 * len(v)))
                grown[:len(v)] = v
                self._out[a] = grown
        if self._rows:
            slot, y0, slope, t0, dur = np.array(self._rows).T
            self._rows.clear()
            self._open = 0
            _integrate_segments(self.g, slot.astype(np.intp), y0, slope, t0,
                                dur, self.stick, self.alphas, self._out)

    def result(self) -> dict:
        """Integrals of the closed cycles, keyed by alpha."""
        self._flush()
        return {a: v[:self.n_slots].copy() for a, v in self._out.items()}


def _cp_fill(model, rng, x, lam, horizon, reflected, sink=None):
    """Fill phase of a compound Poisson cycle; returns (T, state) or None.

    Each linear piece of the path between jumps goes to ``sink``.
    """
    zeta, rate = model.zeta, model.rate
    y, t = x, 0.0
    while t < horizon:
        gap = rng.exponential(1.0 / rate)
        gap = min(gap, horizon - t)
        if sink is not None:
            sink.add(y, zeta, t, gap)
        y_end = y - zeta * gap
        if reflected:
            y_end = max(y_end, 0.0)
        t += gap
        if t >= horizon:
            break
        jump = float(model.jumps.sample(rng, 1)[0])
        y = y_end + jump
        if y >= lam:
            return t, y
    return None


def _cp_release(model, rng, z, tau, V, M, horizon, t_start, sink=None):
    """Release phase from z; returns its duration or None.

    Pieces go to ``sink`` with start times counted from ``t_start``, the
    cycle start.
    """
    zeta, rate = model.zeta, model.rate
    slope = zeta + M
    y = min(z, V)
    t = 0.0
    while t_start + t < horizon:
        gap = rng.exponential(1.0 / rate)
        t_abs = (y - tau) / slope
        if t_abs <= gap:
            if sink is not None:
                sink.add(y, slope, t_start + t, t_abs)
            return t + t_abs
        gap = min(gap, horizon - t_start - t)
        if sink is not None:
            sink.add(y, slope, t_start + t, gap)
        y -= slope * gap
        t += gap
        if t_start + t >= horizon:
            break
        y = min(y + float(model.jumps.sample(rng, 1)[0]), V)
    return None


def _run_cycles_cp(model, policy, costs, config, reflected, alphas):
    lam, tau, V, M = policy.lam, policy.tau, policy.V, policy.M
    recs = _RecordBuilder(alphas, M)
    fill_g = _SegmentSink(costs.g, alphas, reflected)
    release_g = _SegmentSink(costs.g_star, alphas, False)
    for i in range(config.n_paths):
        rng = path_rng(config.seed, i)
        fill = _cp_fill(model, rng, tau, lam, config.horizon, reflected,
                        fill_g)
        t_rel = None
        if fill is not None:
            t_rel = _cp_release(model, rng, fill[1], tau, V, M,
                                config.horizon, fill[0], release_g)
        if t_rel is None:
            recs.n_partial += 1
            fill_g.drop()
            release_g.drop()
            continue
        fill_g.close()
        release_g.close()
        recs.add(fill[0], t_rel, fill[1])
    return recs.build(fill_g.result(), release_g.result())


class _RecordBuilder:
    def __init__(self, alphas, M):
        self.alphas = alphas
        self.M = M
        self.fill_time = []
        self.release_time = []
        self.state = []
        self.e_fill = {a: [] for a in alphas}
        self.e_cycle = {a: [] for a in alphas}
        self.rel_disc_time = {a: [] for a in alphas}
        self.n_partial = 0

    def add(self, t_fill, t_rel, state):
        self.fill_time.append(t_fill)
        self.release_time.append(t_rel)
        self.state.append(state)
        for a in self.alphas:
            ef = math.exp(-a * t_fill)
            ec = math.exp(-a * (t_fill + t_rel))
            self.e_fill[a].append(ef)
            self.e_cycle[a].append(ec)
            self.rel_disc_time[a].append((ef - ec) / a if a else t_rel)

    def build(self, fill_g: dict, release_g: dict) -> CycleRecords:
        arr = lambda d: {a: np.asarray(v, dtype=float) for a, v in d.items()}
        return CycleRecords(
            fill_time=np.asarray(self.fill_time, dtype=float),
            release_time=np.asarray(self.release_time, dtype=float),
            crossing_state=np.asarray(self.state, dtype=float),
            e_fill=arr(self.e_fill), e_cycle=arr(self.e_cycle),
            fill_g=fill_g, release_g=release_g,
            release_disc_time=arr(self.rel_disc_time),
            n_partial=self.n_partial, M=self.M)


# ---------------------------------------------------------------------------
# Grid based paths: Brownian and subordinator families, vectorised
# ---------------------------------------------------------------------------

class _GridStep:
    """One time step of every live grid path, drawn from the (seed, 0) stream.

    Filling paths move with the input, releasing paths with the input minus
    M.  A Brownian path samples its within-step minimum (filling) or maximum
    (releasing) exactly; reflection at 0 and the cap at V act on it, and a
    Brownian bridge test catches threshold crossings between grid points.
    Subordinator increments are exact, but crossings are seen only at grid
    points.  Draws go to the live paths in order, so a path's draws depend
    on which other paths are still live.
    """

    def __init__(self, model, config, reflected, lam, tau, V, M):
        self.model = model
        self.dt = config.time_step
        self.rng = path_rng(config.seed, 0)
        self.reflected = reflected
        self.lam, self.tau, self.V, self.M = lam, tau, V, M
        self.is_bm = isinstance(model, BrownianDrift)
        self.sig_dt = math.sqrt(model.sigma2 * self.dt)

    def __call__(self, y, filling):
        """(y_pre, hit, crossing_state) of one step from the contents y.

        ``y_pre`` is the content at the end of the step, after reflection or
        the cap; ``hit`` marks paths that reached lam (filling) or tau
        (releasing) within the step; ``crossing_state`` is where a fill
        crossing lands.
        """
        model, rng, dt, m = self.model, self.rng, self.dt, len(y)
        lam, tau, V = self.lam, self.tau, self.V
        if self.is_bm:
            w = rng.normal(model.mu * dt, self.sig_dt, size=m)
            u_ext = rng.uniform(size=m)
            u_cross = rng.uniform(size=m)
            if model.has_jumps:
                cnt = rng.poisson(model.jump_rate * dt, size=m)
                for k in np.nonzero(cnt)[0]:
                    w[k] += model.jumps.sample(rng, cnt[k]).sum()
        else:
            w = _subordinator_increments(model, rng, dt, m) - model.zeta * dt
        w = np.where(filling, w, w - self.M * dt)

        if not self.is_bm:
            y_pre = np.where(filling,
                             np.maximum(y + w, 0.0) if self.reflected else y + w,
                             np.minimum(y + w, V))
            return y_pre, np.where(filling, y_pre >= lam, y_pre <= tau), y_pre
        sig2 = model.sigma2
        root = np.sqrt(w * w - 2.0 * sig2 * dt * np.log(u_ext))
        ext = 0.5 * (w + np.where(filling, -root, root))
        y_pre = np.where(
            filling,
            y + w - (np.minimum(0.0, y + ext) if self.reflected else 0.0),
            y + w - np.maximum(0.0, y + ext - V))
        inert = np.where(filling, (y < lam) & (y_pre < lam),
                         (y > tau) & (y_pre > tau))
        gap = np.where(filling, (lam - y) * (lam - y_pre),
                       (y - tau) * (y_pre - tau))
        p = np.where(inert, np.exp(-2.0 * np.maximum(gap, 0.0) / (sig2 * dt)),
                     0.0)
        hit = np.where(filling, y_pre >= lam, y_pre <= tau) | (u_cross < p)
        state = (np.where(y_pre >= lam, y_pre, lam) if model.has_jumps
                 else np.full_like(y_pre, lam))
        return y_pre, hit, state

    def stopped(self, y_pre, filling):
        """Step-end contents held at the threshold that ends their phase."""
        return np.where(filling, np.minimum(y_pre, self.lam),
                        np.maximum(y_pre, self.tau))


def _grid_cycles(step, config, start, filling, costs=None, alphas=(),
                 fill_only=False) -> CycleRecords:
    """Every path from ``start`` in the given phase, on a common clock.

    A path stops at its fill crossing when ``fill_only``, otherwise at the
    end of its release phase.  Finished paths leave the live arrays each
    step, so late stragglers cost almost nothing; paths still live at the
    horizon are partial.  With ``costs`` the maintenance rates are
    integrated by the trapezoid rule on the grid.
    """
    n = config.n_paths
    dt = step.dt
    g = None if costs is None or costs.g.is_zero else costs.g.values
    gs = None if costs is None or costs.g_star.is_zero else costs.g_star.values

    # live paths: their indices, contents and phases
    orig = np.arange(n)
    y = np.full(n, float(start))
    filling = np.full(n, filling)

    # per-path records, indexed by path
    t_fill = np.zeros(n)
    release_time = np.zeros(n)
    cross = np.zeros(n)
    gf = {a: np.zeros(n) for a in alphas}
    gr = {a: np.zeros(n) for a in alphas}
    e_fill = {a: np.zeros(n) for a in alphas}
    e_cycle = {a: np.zeros(n) for a in alphas}
    done = np.zeros(n, dtype=bool)

    t = 0.0
    for _ in range(int(math.ceil(config.horizon / dt))):
        if len(y) == 0:
            break
        y_pre, hit, state = step(y, filling)
        d1 = t + dt
        if costs is not None:
            y_end = step.stopped(y_pre, filling)
            for rate, in_phase, acc in ((g, filling, gf), (gs, ~filling, gr)):
                if rate is not None and in_phase.any():
                    base, top = rate(y[in_phase]), rate(y_end[in_phase])
                    pid = orig[in_phase]
                    for a in alphas:
                        acc[a][pid] += 0.5 * dt * (math.exp(-a * t) * base
                                                   + math.exp(-a * d1) * top)
        t = d1

        crossed = filling & hit
        if crossed.any():
            t_fill[orig[crossed]] = t
            cross[orig[crossed]] = state[crossed]
        finished = crossed if fill_only else hit & ~filling
        y = np.where(hit, np.minimum(state, step.V), y_pre)
        filling = filling & ~hit
        if finished.any():
            pid = orig[finished]
            release_time[pid] = t - t_fill[pid]
            for a in alphas:
                e_fill[a][pid] = np.exp(-a * t_fill[pid])
                e_cycle[a][pid] = math.exp(-a * t)
            done[pid] = True
            live = ~finished
            orig, y, filling = orig[live], y[live], filling[live]

    sel = lambda d: {a: v[done] for a, v in d.items()}
    rel_disc = {}
    for a in alphas:
        if a:
            rel_disc[a] = (e_fill[a][done] - e_cycle[a][done]) / a
        else:
            rel_disc[a] = release_time[done]
    return CycleRecords(
        fill_time=t_fill[done], release_time=release_time[done],
        crossing_state=cross[done], e_fill=sel(e_fill), e_cycle=sel(e_cycle),
        fill_g=sel(gf), release_g=sel(gr), release_disc_time=rel_disc,
        n_partial=int(n - done.sum()), M=step.M)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def run_policy_cycles(model: LevyModel, policy, costs, config: PathConfig,
                      reflected: bool = True, alphas: Sequence[float] = (),
                      dump_path: str | None = None) -> CycleRecords:
    """Simulate independent regeneration cycles started at the lower threshold.

    Returns per-cycle records; ``alphas`` selects the discount rates carried
    through the integrals (0.0, the undiscounted case, is always included).
    With ``dump_path`` set, one JSON record per cycle is written to that
    file.
    """
    alpha_list = sorted({0.0, *map(float, alphas)})
    model = _prepare_model(model, config)
    if isinstance(model, CompoundPoissonDrift):
        records = _run_cycles_cp(model, policy, costs, config, reflected,
                                 alpha_list)
    else:
        step = _GridStep(model, config, reflected, policy.lam, policy.tau,
                         policy.V, policy.M)
        records = _grid_cycles(step, config, policy.tau, True, costs,
                               alpha_list)
    if dump_path is not None:
        _dump_records(records, dump_path)
    return records


def _dump_records(records: CycleRecords, path: str):
    import json

    with open(path, "w") as fh:
        for i in range(records.n_cycles):
            row = {
                "fill_time": records.fill_time[i],
                "release_time": records.release_time[i],
                "crossing_state": records.crossing_state[i],
                "output_volume": records.output_volume[i],
            }
            for a in sorted(records.e_fill):
                if a:
                    row[f"e_cycle[{a:g}]"] = records.e_cycle[a][i]
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def simulate_fill_phase(model: LevyModel, x: float, lam: float,
                        config: PathConfig, reflected: bool = True):
    """Fill phase only: (crossing times, crossing states, number unfinished)."""
    if not x <= lam:
        raise ValueError("the fill phase needs x <= lam")
    if reflected and not x >= 0:
        raise ValueError("the reflected fill phase needs x >= 0")
    model = _prepare_model(model, config)
    if isinstance(model, CompoundPoissonDrift):
        times, states, partial = [], [], 0
        for i in range(config.n_paths):
            rng = path_rng(config.seed, i)
            got = _cp_fill(model, rng, x, lam, config.horizon, reflected)
            if got is None:
                partial += 1
            else:
                times.append(got[0])
                states.append(got[1])
        return np.asarray(times), np.asarray(states), partial
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
    model = _prepare_model(model, config)
    if isinstance(model, CompoundPoissonDrift):
        times, partial = [], 0
        for i in range(config.n_paths):
            rng = path_rng(config.seed, i)
            got = _cp_release(model, rng, z, tau, V, M, config.horizon, 0.0)
            if got is None:
                partial += 1
            else:
                times.append(got)
        return np.asarray(times), partial
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
    convention.
    """
    if alpha <= 0:
        raise ValueError("needs alpha > 0")
    model = _prepare_model(model, config)
    if isinstance(model, CompoundPoissonDrift):
        totals = _total_discounted_cp(model, policy, costs, alpha, x, config,
                                      reflected, discount_floor)
    else:
        totals = _total_discounted_grid(model, policy, costs, alpha, x, config,
                                        reflected, discount_floor)
    return estimate(f"total_discounted:{alpha:g}", totals)


def _total_discounted_cp(model, policy, costs, alpha, x, config, reflected,
                         floor):
    """Per-path totals; the integrals of all kept cycles are added at the end.

    The loop's control flow reads only times and states, so each kept cycle
    records its path, discount factor and fixed charges, and its cost is
    assembled once the sinks hold its maintenance integrals.
    """
    lam, tau, V, M = policy.lam, policy.tau, policy.V, policy.M
    t_max = -math.log(floor) / alpha
    fill_g = _SegmentSink(costs.g, [alpha], reflected)
    release_g = _SegmentSink(costs.g_star, [alpha], False)
    path, disc, fixed_net = array("q"), array("d"), array("d")
    for i in range(config.n_paths):
        rng = path_rng(config.seed, i)
        t, start = 0.0, x
        while t < t_max:
            if start <= lam:
                fill = _cp_fill(model, rng, start, lam, config.horizon,
                                reflected, fill_g)
                if fill is None:
                    fill_g.drop()
                    break
                t_fill, state = fill
                fixed = M * costs.K2 + M * costs.K1 * math.exp(-alpha * t_fill)
            else:
                t_fill, state = 0.0, start
                fixed = M * costs.K1
            t_rel = _cp_release(model, rng, state, tau, V, M, config.horizon,
                                t_fill, release_g)
            if t_rel is None:
                fill_g.drop()
                release_g.drop()
                break
            fill_g.close()
            release_g.close()
            ef = math.exp(-alpha * t_fill)
            ec = math.exp(-alpha * (t_fill + t_rel))
            path.append(i)
            disc.append(math.exp(-alpha * t))
            fixed_net.append(fixed - costs.R * M * (ef - ec) / alpha)
            t += t_fill + t_rel
            start = tau
    cost = (np.frombuffer(fixed_net) + fill_g.result()[alpha]
            + release_g.result()[alpha])
    totals = np.zeros(config.n_paths)
    np.add.at(totals, np.frombuffer(path, dtype=np.int64),
              np.frombuffer(disc) * cost)
    return totals


def _total_discounted_grid(model, policy, costs, alpha, x, config, reflected,
                           floor):
    """Successive cycles on a shared clock, until the discount floor.

    Each path's total takes its charges, release reward and maintenance
    integrals as they fall due, so no path ever leaves the arrays.
    """
    lam, tau, V, M = policy.lam, policy.tau, policy.V, policy.M
    n = config.n_paths
    dt = config.time_step
    step = _GridStep(model, config, reflected, lam, tau, V, M)
    g = None if costs.g.is_zero else costs.g.values
    gs = None if costs.g_star.is_zero else costs.g_star.values

    start = min(x, V)
    y = np.full(n, float(start))
    filling = np.full(n, start <= lam)
    totals = np.full(n, M * costs.K2 if start <= lam else M * costs.K1)

    t = 0.0
    t_max = -math.log(floor) / alpha
    for _ in range(int(math.ceil(t_max / dt))):
        d0 = math.exp(-alpha * t)
        d1 = math.exp(-alpha * (t + dt))
        y_pre, hit, state = step(y, filling)
        f = filling
        r = ~filling
        y_end = step.stopped(y_pre, f)
        for rate, in_phase in ((g, f), (gs, r)):
            if rate is not None and in_phase.any():
                totals[in_phase] += 0.5 * dt * (d0 * rate(y[in_phase])
                                                + d1 * rate(y_end[in_phase]))
        if r.any():
            totals[r] -= costs.R * M * (d0 - d1) / alpha
        # the valve opens: pay the opening charge
        totals[f & hit] += d1 * M * costs.K1
        # the cycle ends: pay the next closing charge
        totals[r & hit] += d1 * M * costs.K2
        # an opened valve releases from the capped state, a closed one
        # restarts the fill at tau
        y = np.where(hit, np.where(f, np.minimum(state, V), tau), y_pre)
        filling = filling ^ hit
        t += dt
    return totals


def _prepare_model(model: LevyModel, config: PathConfig) -> LevyModel:
    """Replace small jumps of a generic measure by their mean drift."""
    if not isinstance(model, GenericBoundedVariation):
        return model
    cut = config.small_jump_cutoff
    measure = model.measure
    rate = float(measure.tail(cut))
    from scipy.integrate import quad
    small_mean, _ = quad(lambda v: v * measure.density(v), 0.0, cut,
                         epsabs=1e-12, epsrel=1e-10, limit=200)
    jumps = _TailSampler(measure, cut, rate)
    return CompoundPoissonDrift(model.zeta - small_mean, rate, jumps)


class _TailSampler:
    """Samples jump sizes above a cutoff via an inverse-tail quantile table."""

    def __init__(self, measure, cut, rate):
        hi = measure.tail_quantile(1e-12 * rate, hint=max(1.0, cut))
        xs = np.geomspace(cut, hi, 4096)
        tails = np.asarray(measure.tail(xs), dtype=float) / rate
        keep = np.concatenate(([True], np.diff(tails) < 0))
        self._q = np.flip(tails[keep])
        self._x = np.flip(xs[keep])
        self.mean = float(measure.mu)  # informational only

    def sample(self, rng, size):
        u = rng.uniform(size=size)
        return np.interp(u, self._q, self._x)
