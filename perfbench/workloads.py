"""The four workloads: their inputs, and the checks every report must pass.

Each check compares a report with a value computed apart from the program
(closed forms for Brownian and compound Poisson input with exponential
jumps) or with a property the method must have (Wald's identity, total
crossing mass, the Abelian limit).  None compares with stored output.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent


def _close(a: float, b: float, rel: float, what: str, out: list):
    if not (math.isfinite(a) and abs(a - b) <= rel * max(1.0, abs(b))):
        out.append(f"{what}: {a!r} differs from {b!r} by more than {rel:g}")


def _strict_json(text: str) -> dict:
    def bad(token):
        raise ValueError(f"non-finite number {token} in report")
    return json.loads(text, parse_constant=bad)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def bm_release_mean(m: float, sigma2: float, x: float, tau: float, V: float):
    """E_x[time to fall to tau] for Brownian motion with drift m < 0,
    reflected below the cap V: solves (s2/2) f'' + m f' = -1, f(tau) = 0,
    f'(V) = 0."""
    k = 2.0 * abs(m) / sigma2
    return ((x - tau) / abs(m)
            - (math.exp(-k * (V - x)) - math.exp(-k * (V - tau))) / (k * abs(m)))


def bm_release_lt(m: float, sigma2: float, q: float, x: float, tau: float,
                  V: float):
    """E_x[exp(-q T)] for the same process: (s2/2) f'' + m f' = q f,
    f(tau) = 1, f'(V) = 0, written in terms of y - tau to stay bounded."""
    d = math.sqrt(m * m + 2.0 * q * sigma2)
    r1, r2 = (-m + d) / sigma2, (-m - d) / sigma2
    h = V - tau
    # f = A e^{r1 (y - tau)} + B e^{r2 (y - tau)}, A + B = 1,
    # r1 A e^{r1 h} + r2 B e^{r2 h} = 0
    b = r1 * math.exp(r1 * h) / (r1 * math.exp(r1 * h) - r2 * math.exp(r2 * h))
    a = 1.0 - b
    u = x - tau
    return a * math.exp(r1 * u) + b * math.exp(r2 * u)


class CPExpScale:
    """Scale functions of compound Poisson input with exponential jumps.

    With psi(t) = zeta t - rate t m / (1 + m t) the transform
    1/(psi(t) - q) has two simple poles t1 >= 0 > t2, the roots of
    zeta m t^2 + (zeta - q m - rate m) t - q = 0, so
    W(x) = sum_i c_i e^{t_i x} with c_i = (1 + m t_i) / (zeta m (t_i - t_j)).
    """

    def __init__(self, zeta: float, rate: float, m: float, q: float):
        a, b, c = zeta * m, zeta - q * m - rate * m, -q
        disc = math.sqrt(b * b - 4.0 * a * c)
        self.t = ((-b + disc) / (2 * a), (-b - disc) / (2 * a))
        t1, t2 = self.t
        self.c = ((1 + m * t1) / (a * (t1 - t2)), (1 + m * t2) / (a * (t2 - t1)))
        self.q = q

    def w(self, x):
        return sum(c * math.exp(t * x) for c, t in zip(self.c, self.t))

    def wp(self, x):
        return sum(c * t * math.exp(t * x) for c, t in zip(self.c, self.t))

    def wbar(self, x):
        return sum(c * (x if t == 0 else math.expm1(t * x) / t)
                   for c, t in zip(self.c, self.t))

    def z(self, x):
        return 1.0 + self.q * self.wbar(x)


# ---------------------------------------------------------------------------
# report checks
# ---------------------------------------------------------------------------

def _checks_by_name(report: dict) -> dict:
    return {c["quantity"]: c for c in report["checks"]}


def _verify_common(report: dict, out: list) -> dict:
    if not report.get("pass") or report.get("starved"):
        out.append("verify did not pass")
    if report.get("n_partial") != 0:
        out.append(f"{report.get('n_partial')} partial cycles")
    return _checks_by_name(report)


def check_verify_bm(report: dict, cfg: dict) -> list:
    out: list = []
    checks = _verify_common(report, out)
    mu, s2 = cfg["model"]["mu"], cfg["model"]["sigma2"]
    p = cfg["policy"]
    lam, tau, M, V = p["lambda"], p["tau"], p["M"], p["V"]
    fill = (lam - tau) / mu
    rel = bm_release_mean(mu - M, s2, lam, tau, V)
    want = {"fill_exit_mean": fill, "mean_release_time": rel,
            "mean_cycle_length": fill + rel}
    for a in cfg["alphas"]:
        lt = math.exp(-(lam - tau) * (math.sqrt(mu * mu + 2 * a * s2) - mu) / s2)
        want[f"fill_exit_lt[alpha={a:g}]"] = lt
        want[f"cycle_end_lt[alpha={a:g}]"] = lt * bm_release_lt(
            mu - M, s2, a, lam, tau, V)
    for name, value in want.items():
        if name not in checks:
            out.append(f"{name}: missing from report")
            continue
        _close(checks[name]["analytic"], value, 1e-8, name, out)
    return out


def check_verify_cp(report: dict, cfg: dict) -> list:
    out: list = []
    checks = _verify_common(report, out)
    mdl, p = cfg["model"], cfg["policy"]
    zeta, rate, m = mdl["zeta"], mdl["rate"], mdl["jump_mean"]
    lam, tau = p["lambda"], p["tau"]
    s0 = CPExpScale(zeta, rate, m, 0.0)
    # reflected fill (exits at the infimum-reflected passage above lam)
    want = {"fill_exit_mean": s0.w(lam - tau) * s0.w(lam) / s0.wp(lam)
            - s0.wbar(lam - tau),
            "mean_overshoot": m}  # memoryless exponential jumps
    for a in cfg["alphas"]:
        sq = CPExpScale(zeta, rate, m, a)
        want[f"fill_exit_lt[alpha={a:g}]"] = (
            sq.z(lam - tau) - sq.w(lam - tau) * a * sq.w(lam) / sq.wp(lam))
    for name, value in want.items():
        if name not in checks:
            out.append(f"{name}: missing from report")
            continue
        _close(checks[name]["analytic"], value, 1e-6, name, out)
    return out


def heavy_verify_cp(report: dict, cfg: dict) -> list:
    """The program's scale functions against the closed form, on a grid."""
    from levydam import cli
    from levydam.scale import ScaleFunctionSet

    out: list = []
    model = cli.build_model(cfg["model"])
    mdl = cfg["model"]
    for q in [0.0] + cfg["alphas"]:
        exact = CPExpScale(mdl["zeta"], mdl["rate"], mdl["jump_mean"], q)
        s = ScaleFunctionSet(model, q)
        for x in (0.0, 0.5, 1.0, 2.0, 3.5):
            _close(s.w(x), exact.w(x), 1e-6, f"W^({q:g})({x:g})", out)
            _close(s.z(x), exact.z(x), 1e-6, f"Z^({q:g})({x:g})", out)
    return out


def check_evaluate_gamma(report: dict, cfg: dict) -> list:
    out: list = []
    q = report["quantities"]
    mdl, p, c = cfg["model"], cfg["policy"], cfg["costs"]
    lam, tau, M = p["lambda"], p["tau"], p["M"]
    over = q["overshoot"]
    atom, mass = over["atom_mass_at_threshold"], over["jump_crossing_mass"]
    _close(atom + mass, 1.0, 1e-6, "crossing mass at alpha 0", out)
    mean_over = mass * over["mean_overshoot_given_jump"]
    drift = mdl["a"] / mdl["b"] - mdl["zeta"]
    _close(q["fill_exit_mean"] * drift, lam - tau + mean_over, 1e-6,
           "Wald identity E[T] E[X_1] = E[X_T] - x", out)
    _close(q["mean_cycle_length"], q["fill_exit_mean"] + q["mean_release_time"],
           1e-12, "mean cycle length = fill + release", out)
    # zero maintenance rates: renewal reward reduces to charges and reward
    lra = ((M * (c["K1"] + c["K2"]) + c["R"] * M * q["fill_exit_mean"])
           / q["mean_cycle_length"] - c["R"] * M)
    _close(q["long_run_average_cost"], lra, 1e-9, "renewal-reward average", out)
    if not q["mean_release_time"] > 0:
        out.append("mean release time not positive")
    return out


def heavy_evaluate_gamma(report: dict, cfg: dict) -> list:
    """Exit transform of the inverted scale functions: in (0, 1] and above
    exp(-alpha E[T]) by Jensen's inequality."""
    from levydam import cli
    from levydam.costs import PolicyEvaluator

    ev = PolicyEvaluator(cli.build_model(cfg["model"]),
                         cli.build_policy(cfg["policy"]),
                         cli.build_costs(cfg["costs"]), reflected=False)
    mean = report["quantities"]["fill_exit_mean"]
    out = []
    for a in (0.1, 0.5, 2.0):
        lt = ev.fill_exit_lt(a)
        if not (math.exp(-a * mean) <= lt <= 1.0):
            out.append(f"fill_exit_lt({a:g}) = {lt!r} outside "
                       f"[exp(-alpha E[T]), 1]")
    return out


def check_sweep_cp(report: dict, cfg: dict) -> list:
    out: list = []
    grid = report["grid"]
    if len(grid) < 2:
        out.append(f"only {len(grid)} grid points")
    vals = [r["objective"] for r in grid]
    if not all(math.isfinite(v) for v in vals):
        out.append("non-finite objective on the grid")
        return out
    best = min(vals)
    first = min((r["lambda"], r["tau"]) for r in grid if r["objective"] == best)
    arg = report["argmin"]
    if arg["objective"] != best or (arg["lambda"], arg["tau"]) != first:
        out.append(f"argmin {arg} is not the smallest grid value {best!r} "
                   f"at {first}")
    return out


def heavy_sweep_cp(report: dict, cfg: dict) -> list:
    """Abelian limit at the argmin: alpha * total discounted -> average."""
    from levydam import cli
    from levydam.costs import PolicyEvaluator

    arg = report["argmin"]
    policy = dict(cfg["policy"], **{"lambda": arg["lambda"], "tau": arg["tau"]})
    ev = PolicyEvaluator(cli.build_model(cfg["model"]), cli.build_policy(policy),
                         cli.build_costs(cfg["costs"]),
                         reflected=cfg["reflected"])
    alpha = 1e-4
    out: list = []
    _close(alpha * ev.total_discounted(alpha), arg["objective"], 1e-3,
           "Abelian limit alpha * total_discounted(1e-4)", out)
    return out


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    verb: str
    config: str
    check: Callable[[dict, dict], list]
    heavy: Callable[[dict, dict], list] | None = None
    paths: int | None = None  # --paths for verify; the seed then varies
                              # the Monte Carlo seed of every report

    def make_config(self, seed: int) -> dict:
        """Base config; the analytic workloads draw their charges and reward
        from the seed, which moves the objective but not the work."""
        cfg = json.loads((HERE / "configs" / self.config).read_text())
        if self.paths is None:
            rng = random.Random(seed)
            cfg["costs"].update(K1=round(rng.uniform(0.5, 1.5), 6),
                                K2=round(rng.uniform(0.25, 0.75), 6),
                                R=round(rng.uniform(0.1, 0.5), 6))
        return cfg

    def extra_args(self, seed: int, index: int) -> list:
        if self.paths is None:
            return []
        base = random.Random(seed).randrange(2 ** 31)
        return ["--seed", str(base + index), "--paths", str(self.paths)]

    def read_report(self, out_dir: Path) -> dict:
        return _strict_json((out_dir / f"{self.verb}.json").read_text())


WORKLOADS = {w.name: w for w in (
    Workload("sweep-cp", "optimize", "sweep_cp.json", check_sweep_cp,
             heavy_sweep_cp),
    Workload("verify-bm", "verify", "verify_bm.json", check_verify_bm,
             paths=2000),
    Workload("verify-cp", "verify", "verify_cp.json", check_verify_cp,
             heavy_verify_cp, paths=1200),
    Workload("evaluate-gamma", "evaluate", "evaluate_gamma.json",
             check_evaluate_gamma, heavy_evaluate_gamma),
)}
