"""Configuration driven command line front end.

Three verbs operate on a single JSON config file:

* ``evaluate``  -- compute every analytic quantity for a fixed policy and
                   write a report;
* ``verify``    -- rerun the quantities against the Monte Carlo oracle and
                   flag disagreements beyond a standard error multiple;
* ``optimize``  -- sweep the policy thresholds over a grid, refine around
                   the incumbent and report the argmin.

Reports are deterministic: a config run twice produces byte identical
output.  Exit codes: 0 success, 1 config error, 2 verification failure,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from .costs import (
    CostSpec,
    PiecewisePoly,
    PolicyEvaluator,
    PolicyParams,
)
from .models import (
    BrownianDrift,
    CompoundPoissonDrift,
    ConvergenceError,
    ExponentialJumps,
    GammaDrift,
    InverseGaussianDrift,
    LevyModel,
)
from .simulate import (
    PathConfig,
    estimate,
    run_policy_cycles,
    simulate_total_discounted,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_NUMERIC = 3


class ConfigError(Exception):
    """Invalid configuration; the message carries the offending key path."""


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------

def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be an object")
    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version: expected {SCHEMA_VERSION}, "
                          f"got {version!r}")
    return cfg


_COUNT = "count"         # kinds of config value besides the JSON types
_POSITIVE = "positive"


def _typed(val, kind, path: str):
    """val, checked to be of the kind (a JSON type, _COUNT or _POSITIVE),
    else a ConfigError naming its key path; numbers come back as floats,
    and a float kind admits only finite ones."""
    number = isinstance(val, (int, float)) and not isinstance(val, bool)
    integer = number and isinstance(val, int)
    ok, what = {
        float: (number and math.isfinite(val), "a finite number"),
        int: (integer, "an integer"),
        _COUNT: (integer and val >= 0, "an integer >= 0"),
        _POSITIVE: (number and 0.0 < val < math.inf, "a positive number"),
        bool: (isinstance(val, bool), "a boolean"),
        dict: (isinstance(val, dict), "an object"),
    }.get(kind) or (isinstance(val, kind), kind.__name__)
    if not ok:
        raise ConfigError(f"{path}: expected {what}, got {val!r}")
    return float(val) if kind in (float, _POSITIVE) else val


def _need(cfg: dict, key: str, kind, path: str):
    if key not in cfg:
        raise ConfigError(f"{path}.{key}: missing required key")
    return _typed(cfg[key], kind, f"{path}.{key}")


# the parameters each model kind reads; a brownian model given jump_rate is
# a jump diffusion and also reads jump_rate and jump_mean
_MODEL_KEYS = {
    "brownian": ("mu", "sigma2"),
    "compound_poisson": ("zeta", "rate", "jump_mean"),
    "gamma": ("zeta", "a", "b"),
    "inverse_gaussian": ("zeta", "sigma", "c"),
}


def build_model(spec: dict, path: str = "model") -> LevyModel:
    kind = _need(spec, "kind", str, path)
    if kind not in _MODEL_KEYS:
        raise ConfigError(f"{path}.kind: unknown model kind {kind!r}")
    keys = _MODEL_KEYS[kind]
    if kind == "brownian" and "jump_rate" in spec:
        keys += ("jump_rate", "jump_mean")
    unknown = sorted(spec.keys() - {"kind", *keys})
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}: not supported by model kind "
                          f"{kind!r}, which reads {', '.join(keys)}")
    try:
        if kind == "brownian":
            mu = _need(spec, "mu", float, path)
            sigma2 = _need(spec, "sigma2", float, path)
            if "jump_rate" in spec:
                rate = _need(spec, "jump_rate", float, path)
                mean = _need(spec, "jump_mean", float, path)
                return BrownianDrift(mu, sigma2, rate, ExponentialJumps(mean))
            return BrownianDrift(mu, sigma2)
        if kind == "compound_poisson":
            zeta = _need(spec, "zeta", float, path)
            rate = _need(spec, "rate", float, path)
            mean = _need(spec, "jump_mean", float, path)
            return CompoundPoissonDrift(zeta, rate, ExponentialJumps(mean))
        if kind == "gamma":
            return GammaDrift(_need(spec, "zeta", float, path),
                              _need(spec, "a", float, path),
                              _need(spec, "b", float, path))
        if kind == "inverse_gaussian":
            return InverseGaussianDrift(_need(spec, "zeta", float, path),
                                        _need(spec, "sigma", float, path),
                                        _need(spec, "c", float, path))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _capacity(spec: dict, path: str) -> float:
    v_raw = spec.get("V")
    if v_raw in (None, "inf"):
        return math.inf
    # the comparison fails for NaN and -inf only; inf is unlimited
    if (isinstance(v_raw, (int, float)) and not isinstance(v_raw, bool)
            and v_raw > -math.inf):
        return float(v_raw)
    raise ConfigError(f'{path}.V: expected a number (not NaN or -Infinity), '
                      f'null or "inf", got {v_raw!r}')


def build_policy(spec: dict, path: str = "policy") -> PolicyParams:
    lam = _need(spec, "lambda", float, path)
    tau = _need(spec, "tau", float, path)
    M = _need(spec, "M", float, path)
    V = _capacity(spec, path)
    try:
        return PolicyParams(lam=lam, tau=tau, M=M, V=V)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _build_poly(spec: dict, path: str) -> PiecewisePoly:
    bps = _need(spec, "breakpoints", list, path)
    cfs = _need(spec, "coeffs", list, path)
    try:
        return PiecewisePoly(tuple(bps), tuple(tuple(p) for p in cfs))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def build_costs(spec: dict, path: str = "costs") -> CostSpec:
    # a bound given as null is no declared bound
    bounds = {key: _typed(spec[key], float, f"{path}.{key}")
              for key in ("g_bound", "g_star_bound")
              if spec.get(key) is not None}
    try:
        return CostSpec(
            K1=_need(spec, "K1", float, path),
            K2=_need(spec, "K2", float, path),
            R=_need(spec, "R", float, path),
            g=_build_poly(_need(spec, "g", dict, path), path + ".g"),
            g_star=_build_poly(_need(spec, "g_star", dict, path),
                               path + ".g_star"),
            **bounds,
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _check_rate_ranges(costs: CostSpec, reflected: bool, V: float):
    """Refuse a rate that is nonzero on an infinite piece where its phase's
    content is unbounded too: below the threshold in a plain fill, and
    above tau in a release with unlimited capacity.  The engine integrates
    a rate over finite ranges only."""
    if not reflected and costs.g.support[0] == -math.inf:
        raise ConfigError("costs.g: a plain fill needs a rate that is 0 on "
                          "its infinite lower piece")
    if math.isinf(V) and costs.g_star.support[1] == math.inf:
        raise ConfigError("costs.g_star: unlimited capacity needs a rate that "
                          "is 0 on its infinite upper piece")


def _alphas(cfg: dict) -> list:
    alphas = cfg.get("alphas", [])
    if not isinstance(alphas, list) or any(
            not isinstance(a, (int, float)) or isinstance(a, bool)
            or not 0 <= a < math.inf for a in alphas):
        raise ConfigError("alphas: expected a list of finite nonnegative "
                          "numbers")
    # a repeated rate would be computed and checked again
    return list(dict.fromkeys(float(a) for a in alphas))


_VERIFICATION_KEYS = {"n_paths", "seed", "tolerance_se", "time_step",
                      "horizon", "check_total_discounted"}


def _path_config(block: dict, seed=None, paths=None) -> PathConfig:
    """The simulation controls of the verification block; ``seed`` and
    ``paths`` override its own."""
    def get(key, kind, default):
        return _typed(block.get(key, default), kind, f"verification.{key}")

    try:
        return PathConfig(
            time_step=get("time_step", float, 1e-3),
            n_paths=(paths if paths is not None
                     else get("n_paths", int, 10_000)),
            seed=seed if seed is not None else get("seed", int, 0),
            horizon=get("horizon", float, 1e4),
        )
    except ValueError as exc:
        raise ConfigError(f"verification: {exc}") from exc


def _overshoot_summary(ev: PolicyEvaluator) -> dict:
    """The undiscounted overshoot law over lambda: its atom at lambda, its
    jump crossing mass and, when that is positive, the mean overshoot given
    a jump crossing."""
    lam = ev.policy.lam
    law = ev.overshoot_law(0.0)
    dens_mass = law.density_mass()
    summary = {"atom_mass_at_threshold": law.atom_at_lambda,
               "jump_crossing_mass": dens_mass}
    if dens_mass > 0:
        summary["mean_overshoot_given_jump"] = law.integrate(
            lambda z: z - lam) / dens_mass
    return summary


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def cmd_evaluate(cfg: dict) -> dict:
    model = build_model(_need(cfg, "model", dict, "config"))
    policy = build_policy(_need(cfg, "policy", dict, "config"))
    costs = build_costs(_need(cfg, "costs", dict, "config"))
    reflected = _typed(cfg.get("reflected", True), bool, "reflected")
    _check_rate_ranges(costs, reflected, policy.V)
    alphas = _alphas(cfg)
    ev = PolicyEvaluator(model, policy, costs, reflected=reflected)

    notes = []
    quantities = {}
    try:
        means = {"fill_exit_mean": ev.fill_exit_mean(),
                 "mean_release_time": ev.mean_release_time(),
                 "mean_cycle_length": ev.mean_cycle_length()}
        infinite = [k for k, v in means.items() if not math.isfinite(v)]
        if infinite:
            raise ValueError(f"infinite {', '.join(infinite)}")
        quantities.update(means)
    except ValueError as exc:
        quantities.update(dict.fromkeys(
            ("fill_exit_mean", "mean_release_time", "mean_cycle_length")))
        notes.append(f"cycle means unavailable: {exc}")
    try:
        quantities["long_run_average_cost"] = ev.long_run_average()
    except ValueError as exc:
        quantities["long_run_average_cost"] = None
        notes.append(f"long-run average unavailable: {exc}")
    try:
        quantities["overshoot"] = _overshoot_summary(ev)
    except ValueError as exc:
        notes.append(f"overshoot law unavailable: {exc}")
    per_alpha = {}
    for a in alphas:
        if a <= 0:
            continue
        per_alpha[f"{a:g}"] = {
            "fill_exit_lt": ev.fill_exit_lt(a),
            "cycle_end_lt": ev.cycle_end_lt(a),
            "cycle_cost": ev.cycle_cost(a),
            "total_discounted_cost": ev.total_discounted(a),
        }
    quantities["per_alpha"] = per_alpha
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "evaluate",
        "reflected": reflected,
        "model": cfg["model"],
        "policy": cfg["policy"],
        "quantities": quantities,
        "notes": notes,
    }


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(cfg: dict, seed=None, paths=None) -> dict:
    model = build_model(_need(cfg, "model", dict, "config"))
    policy = build_policy(_need(cfg, "policy", dict, "config"))
    costs = build_costs(_need(cfg, "costs", dict, "config"))
    reflected = _typed(cfg.get("reflected", True), bool, "reflected")
    _check_rate_ranges(costs, reflected, policy.V)
    alphas = [a for a in _alphas(cfg) if a > 0]
    block = cfg.get("verification")
    if not isinstance(block, dict):
        raise ConfigError("verification: block required for verify")
    unknown = sorted(block.keys() - _VERIFICATION_KEYS)
    if unknown:
        raise ConfigError(f"verification.{unknown[0]}: unknown key")
    tol_se = _typed(block.get("tolerance_se", 3.0), _POSITIVE,
                    "verification.tolerance_se")
    check_total = _typed(block.get("check_total_discounted", False), bool,
                         "verification.check_total_discounted")
    config = _path_config(block, seed=seed, paths=paths)

    ev = PolicyEvaluator(model, policy, costs, reflected=reflected)
    records = run_policy_cycles(model, policy, costs, config,
                                reflected=reflected, alphas=alphas)
    n_requested = config.n_paths
    starved = records.n_cycles < max(2, n_requested // 2)
    checks = []
    notes = []

    def add(name, analytic, est):
        z = ((analytic - est.mean) / est.std_error
             if est.std_error > 0 else 0.0)
        checks.append({
            "quantity": name,
            "analytic": analytic,
            "mc_mean": est.mean,
            "mc_std_error": est.std_error,
            "z": z,
            "pass": bool(est.agrees_with(analytic, tol_se)),
        })

    if not starved:
        add("fill_exit_mean", ev.fill_exit_mean(),
            estimate("fill_exit_mean", records.fill_time))
        add("mean_release_time", ev.mean_release_time(),
            estimate("mean_release_time", records.release_time))
        add("mean_cycle_length", ev.mean_cycle_length(),
            estimate("mean_cycle_length", records.cycle_length))
        try:
            lra = ev.long_run_average()
            cost_s, len_s = records.average_cost_samples(costs)
            add("long_run_average_cost", lra,
                estimate("long_run_average_cost", cost_s, len_s))
        except ValueError as exc:
            notes.append(f"long-run average check skipped: {exc}")
        for a in alphas:
            tag = f"alpha={a:g}"
            add(f"fill_exit_lt[{tag}]", ev.fill_exit_lt(a),
                estimate("fill_exit_lt", records.e_fill[a]))
            add(f"cycle_end_lt[{tag}]", ev.cycle_end_lt(a),
                estimate("cycle_end_lt", records.e_cycle[a]))
            add(f"cycle_cost[{tag}]", ev.cycle_cost(a),
                estimate("cycle_cost", records.cycle_cost_samples(costs, a)))
            if check_total:
                mc = simulate_total_discounted(model, policy, costs, a,
                                               policy.tau, config,
                                               reflected=reflected)
                add(f"total_discounted[{tag}]", ev.total_discounted(a), mc)
        if model.has_jumps:
            over = records.overshoot_samples(policy.lam)
            if len(over) >= 2:
                mean_over = _overshoot_summary(ev).get(
                    "mean_overshoot_given_jump")
                if mean_over is not None:
                    add("mean_overshoot", mean_over,
                        estimate("mean_overshoot", over))

    all_pass = all(c["pass"] for c in checks) and not starved
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "reflected": reflected,
        "n_paths": n_requested,
        "n_cycles": records.n_cycles,
        "n_partial": records.n_partial,
        "seed": config.seed,
        "tolerance_se": tol_se,
        "starved": bool(starved),
        "checks": checks,
        "pass": bool(all_pass),
    }
    # only when a check was dropped, so complete reports keep their bytes
    if notes:
        report["notes"] = notes
    return report


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------

def _axis(spec, path: str) -> np.ndarray:
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return np.array([_typed(spec, float, path)])
    if isinstance(spec, dict):
        start = _need(spec, "start", float, path)
        stop = _need(spec, "stop", float, path)
        num = _need(spec, "num", int, path)
        if num < 1 or stop < start:
            raise ConfigError(f"{path}: need num >= 1 and stop >= start")
        return np.linspace(start, stop, num)
    raise ConfigError(f"{path}: expected a number or {{start, stop, num}}")


def _objective_fn(cfg: dict, model, costs, reflected):
    """The objective of a policy, and its name.  Every policy of the sweep
    has the same model and release rate, so their evaluators share one dict
    of scale sets."""
    spec = _typed(cfg.get("objective", {}), dict, "objective")
    crit = spec.get("criterion", "long_run_average")
    sets: dict = {}
    if crit == "long_run_average":
        def fn(policy):
            return PolicyEvaluator(model, policy, costs, reflected=reflected,
                                   scale_sets=sets).long_run_average()
        return fn, crit
    if crit == "total_discounted":
        alpha = _typed(spec.get("alpha"), _POSITIVE, "objective.alpha")
        def fn(policy):
            return PolicyEvaluator(model, policy, costs, reflected=reflected,
                                   scale_sets=sets).total_discounted(alpha)
        return fn, f"total_discounted:{alpha:g}"
    raise ConfigError(f"objective.criterion: unknown criterion {crit!r}")


def cmd_optimize(cfg: dict) -> dict:
    model = build_model(_need(cfg, "model", dict, "config"))
    costs = build_costs(_need(cfg, "costs", dict, "config"))
    reflected = _typed(cfg.get("reflected", True), bool, "reflected")
    base = _need(cfg, "policy", dict, "config")
    M = _need(base, "M", float, "policy")
    V = _capacity(base, "policy")
    _check_rate_ranges(costs, reflected, V)
    sweep = _need(cfg, "sweep", dict, "config")
    lam_axis = _axis(sweep.get("lambda", base.get("lambda")), "sweep.lambda")
    tau_axis = _axis(sweep.get("tau", base.get("tau")), "sweep.tau")
    objective, obj_name = _objective_fn(cfg, model, costs, reflected)
    refine_rounds = _typed(sweep.get("refine_rounds", 2), _COUNT,
                           "sweep.refine_rounds")

    rows: dict[tuple, float] = {}
    best_key, best_val = None, math.inf

    def visit(lam, tau):
        """Evaluate and list a feasible point the first time it comes, and
        keep the argmin."""
        nonlocal best_key, best_val
        key = (round(lam, 12), round(tau, 12))
        if key in rows or not (
                0 <= tau < lam <= V
                and lam_axis[0] - 1e-12 <= lam <= lam_axis[-1] + 1e-12
                and tau_axis[0] - 1e-12 <= tau <= tau_axis[-1] + 1e-12):
            return
        val = rows[key] = float(objective(PolicyParams(lam=lam, tau=tau,
                                                       M=M, V=V)))
        # lexicographic tie break on (lambda, tau)
        if val < best_val - 1e-15 or (abs(val - best_val) <= 1e-15
                                      and (best_key is None or key < best_key)):
            best_key, best_val = key, val

    for lam in lam_axis:
        for tau in tau_axis:
            visit(lam, tau)
    if not rows:
        raise ConfigError("sweep: no grid point satisfies 0 <= tau < lambda <= V")

    h_lam = lam_axis[1] - lam_axis[0] if len(lam_axis) > 1 else 0.0
    h_tau = tau_axis[1] - tau_axis[0] if len(tau_axis) > 1 else 0.0
    for _ in range(refine_rounds):
        h_lam, h_tau = 0.5 * h_lam, 0.5 * h_tau
        if h_lam == 0.0 and h_tau == 0.0:
            break
        lam0, tau0 = best_key
        for lam in (lam0 - h_lam, lam0, lam0 + h_lam):
            for tau in (tau0 - h_tau, tau0, tau0 + h_tau):
                visit(lam, tau)

    return {
        "schema_version": SCHEMA_VERSION,
        "command": "optimize",
        "objective": obj_name,
        "reflected": reflected,
        "grid": [{"lambda": lam, "tau": tau, "objective": val}
                 for (lam, tau), val in sorted(rows.items())],
        "argmin": {"lambda": best_key[0], "tau": best_key[1],
                   "objective": best_val},
    }


# ---------------------------------------------------------------------------
# Output and entry point
# ---------------------------------------------------------------------------

def _write_report(report: dict, out_dir: str, name: str):
    # a non-finite number raises ValueError here, before anything is written
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{name}.json").write_text(text + "\n")
    rows = _tabulate(report)
    if rows:
        with open(out / f"{name}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(rows[0])
            for row in rows[1:]:
                writer.writerow([_fmt(v) for v in row])


def _fmt(v):
    if isinstance(v, float):
        return format(v, ".12g")
    return v


def _tabulate(report: dict):
    cmd = report["command"]
    if cmd == "evaluate":
        rows = [("quantity", "alpha", "value")]
        q = report["quantities"]
        for key in sorted(q):
            if key == "per_alpha":
                continue
            if isinstance(q[key], dict):
                for sub, value in sorted(q[key].items()):
                    rows.append((f"{key}.{sub}", "", value))
                continue
            rows.append((key, "", q[key] if q[key] is not None else "nan"))
        for a in sorted(q.get("per_alpha", {}), key=float):
            for name, value in sorted(q["per_alpha"][a].items()):
                rows.append((name, a, value))
        return rows
    if cmd == "verify":
        rows = [("quantity", "analytic", "mc_mean", "mc_std_error", "z", "pass")]
        for c in report["checks"]:
            rows.append((c["quantity"], c["analytic"], c["mc_mean"],
                         c["mc_std_error"], c["z"], c["pass"]))
        return rows
    if cmd == "optimize":
        rows = [("lambda", "tau", "objective")]
        for r in report["grid"]:
            rows.append((r["lambda"], r["tau"], r["objective"]))
        return rows
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="levydam",
        description="Threshold release policies for Levy-fed dams: evaluate "
                    "costs, verify against simulation, optimize thresholds.")
    parser.add_argument("command", choices=["evaluate", "verify", "optimize"])
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the verification seed")
    parser.add_argument("--paths", type=int, default=None,
                        help="override the number of simulated paths")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        out_dir = args.out or _typed(
            _typed(cfg.get("output", {}), dict, "output").get("dir", "out"),
            str, "output.dir")
        if args.command == "evaluate":
            report = cmd_evaluate(cfg)
        elif args.command == "verify":
            report = cmd_verify(cfg, seed=args.seed, paths=args.paths)
        else:
            report = cmd_optimize(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    try:
        _write_report(report, out_dir, args.command)
    except ValueError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    if not args.quiet:
        print(json.dumps(report, sort_keys=True, indent=2))
    if args.command == "verify":
        if report["starved"]:
            print("verification starved: insufficient completed cycles",
                  file=sys.stderr)
            return EXIT_NUMERIC
        if not report["pass"]:
            return EXIT_VERIFY
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
