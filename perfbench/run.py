"""Benchmark of the levydam command line verbs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src``.  One
run serves one workload (see ``workloads.py``) from this single process and
prints, as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` over several
fresh interpreters, then one untimed warm-up report, then timed reports
through ``levydam.cli.main`` until the run's time is spent.  ``--trace 1``
instead alternates untraced and traced reports and gives the per-layer
metrics of one report (see ``tracing.py``), the import time of each module and
the tracing overhead.  Reports are written under ``perfbench/out``.
"""

import os
import sys
import time

T_START = time.monotonic()
# one thread per process for the BLAS and OpenMP pools, set before numpy loads
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_INTERPRETERS = 3
MIN_TIMED = 3
# The speed of a shared 2-core machine drifts by up to a factor of two within
# minutes: one verify report took 0.37-0.74 s and one fresh import
# 0.86-1.57 s within three minutes, and a fixed loop run beside them tracked
# the drift (correlation 0.83 with the report, 0.70 with the import).  So
# every set-up and report time is scaled by CAL_REF_S over the mean time of
# that loop just before and just after it, and reads in seconds at the speed
# where the loop takes CAL_REF_S.  Dividing out the drift halved the spread
# of report times (coefficient of variation 0.25 -> 0.13).
CAL_REF_S = 0.05
SETUP_CODE = ("import os, sys\n"
              "import levydam.cli\n"
              "levydam.cli.load_config(sys.argv[1])\n"
              "os._exit(0)\n")
MODULES = ("models", "scale", "exits", "costs", "simulate", "cli")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def fresh_interpreter(args: list) -> tuple:
    """Run a new interpreter; returns (wall seconds, completed process)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=120)
    return time.perf_counter() - t0, proc


def import_times() -> dict:
    """Seconds per levydam module from ``python -X importtime``: cumulative
    for the five library modules (their first third-party imports
    included); for ``cli`` what it adds on top of the package."""
    _, proc = fresh_interpreter(["-X", "importtime", "-c", "import levydam.cli"])
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip().startswith("levydam"):
            cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
    out = {m: cumulative[f"levydam.{m}"] for m in MODULES[:-1]}
    out["cli"] = cumulative["levydam.cli"] - cumulative["levydam"]
    return out


class Runner:
    def __init__(self, workload, seed: int, seconds: float):
        from levydam import cli

        self.cli = cli
        self.wl = workload
        self.seed = seed
        self.deadline = T_START + seconds
        self.out = OUT / workload.name
        self.out.mkdir(parents=True, exist_ok=True)
        self.cfg = workload.make_config(seed)
        self.cfg_path = self.out / "config.json"
        self.cfg_path.write_text(json.dumps(self.cfg, indent=2) + "\n")
        self.attempted = 0
        self.problems: list = []  # (attempt number or check name, messages)
        self.failed_ops: set = set()
        self.first_text = None

    def report(self, index: int) -> float:
        """One verb call through the package's entry point; returns its wall
        time.  A nonzero exit or a failed check marks the call failed."""
        argv = [self.wl.verb, "--config", str(self.cfg_path), "--out",
                str(self.out), "--quiet", *self.wl.extra_args(self.seed, index)]
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except Exception as exc:  # a crash fails this call, not the run
            traceback.print_exc()
            rc = repr(exc)
        elapsed = time.perf_counter() - t0
        problems = [f"exit code {rc}"] if rc != 0 else []
        if not problems:
            text = (self.out / f"{self.wl.verb}.json").read_text()
            try:
                problems = self.wl.check(self.wl.read_report(self.out), self.cfg)
            except (ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable report: {exc!r}"]
            if self.wl.paths is None:
                # same input every call: the report must not change
                if self.first_text is None:
                    self.first_text = text
                elif text != self.first_text:
                    problems.append("report differs from the first one")
        if problems:
            self.fail(self.attempted, problems)
        return elapsed

    def fail(self, where, problems: list):
        self.problems.append((where, problems))
        if isinstance(where, int):
            self.failed_ops.add(where)

    def heavy_check(self):
        """Checks too slow for every call, made once on the last report;
        a failure fails that call."""
        if self.wl.heavy is None or self.attempted in self.failed_ops:
            return
        problems = self.wl.heavy(self.wl.read_report(self.out), self.cfg)
        if problems:
            self.fail(self.attempted, problems)

    def time_left(self, estimate: float) -> bool:
        return time.monotonic() + estimate <= self.deadline


def calibration() -> float:
    """Wall time of a fixed mix of interpreted bytecode and small numpy
    operations, the mix the verbs spend their time in."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    a = np.linspace(-1.0, 1.0, 200)
    for _ in range(3_000):
        a = np.where(a > 0, a * 0.5, a + 1.0) + np.sqrt(np.abs(a))
    return time.perf_counter() - t0


def scaled(samples: list, cals: list) -> list:
    """Each sample, which ran between calibrations cals[i] and cals[i+1],
    in seconds at the speed where the calibration takes CAL_REF_S."""
    return [t * 2.0 * CAL_REF_S / (c0 + c1)
            for t, c0, c1 in zip(samples, cals, cals[1:])]


def run_untraced(r: Runner) -> dict:
    setups, cal_setup = [], [calibration()]
    for _ in range(SETUP_INTERPRETERS):
        dt, proc = fresh_interpreter(["-c", SETUP_CODE, str(r.cfg_path)])
        if proc.returncode != 0:
            raise RuntimeError(f"setup interpreter failed: {proc.stderr}")
        setups.append(dt)
        cal_setup.append(calibration())
    r.report(0)  # warm-up
    r.heavy_check()
    times, cals = [], [calibration()]
    while len(times) < MIN_TIMED or r.time_left(
            statistics.median(times) + cals[-1]):
        times.append(r.report(len(times) + 1))
        cals.append(calibration())
    for name, raw, cal in (("setup_s", setups, cal_setup),
                           ("report_s", times, cals)):
        print(f"{name} wall:", " ".join(f"{t:.3f}" for t in raw),
              "| calibration:", " ".join(f"{c:.4f}" for c in cal),
              file=sys.stderr)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "report_s": (statistics.median(scaled(times, cals)), "s"),
        "setup_s": (statistics.median(scaled(setups, cal_setup)), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def layer_values(tr, dt_report: float) -> dict:
    from levydam.models import CompoundPoissonDrift

    lm = tr.layer_metrics()
    count, total, own = lm["count"], lm["total_s"], lm["self_s"]
    mod_self = lm["module_self_s"]
    scale_eval = ("w", "wp", "z", "wbar")
    # computed from the returned records, not counted: every event of the
    # compound Poisson simulator is one arrival at the jump rate, and every
    # grid step of a live path is one path step
    path_steps = cp_events = 0
    for args, rec in tr.records:
        model, config = args[0], args[3]
        span = float(rec.cycle_length.sum())
        if isinstance(model, CompoundPoissonDrift):
            cp_events += round(model.rate * span)
        else:
            path_steps += round(span / config.time_step)
    sim_self = mod_self["simulate"]
    return {
        "models.eta_calls": count["models.LevyModel.eta"],
        "models.eta_s": total["models.LevyModel.eta"],
        "scale.builds": count["scale.ScaleFunctionSet.__init__"],
        "scale.build_s": total["scale.ScaleFunctionSet.__init__"],
        **{f"scale.{k}_calls": count[f"scale.ScaleFunctionSet.{k}"]
           for k in scale_eval},
        "scale.eval_s": sum(own[f"scale.ScaleFunctionSet.{k}"]
                            for k in scale_eval),
        "exits.quad_calls": count["exits.quad"],
        "exits.overshoot_laws": count["exits.OvershootLaw.__init__"],
        "exits.self_s": mod_self["exits"],
        "costs.evaluators": count["costs.PolicyEvaluator.__init__"],
        "costs.self_s": mod_self["costs"],
        "simulate.self_s": sim_self,
        "simulate.path_steps": path_steps,
        "simulate.ns_per_path_step": sim_self / path_steps * 1e9 if path_steps else 0.0,
        "simulate.cp_events": cp_events,
        "simulate.ns_per_event": sim_self / cp_events * 1e9 if cp_events else 0.0,
        "cli.config_s": total["cli.load_config"],
        "cli.write_s": total["cli._write_report"],
        "trace.report_s": dt_report,
    }


COUNT_METRICS = ("_calls", "builds", "laws", "evaluators", "path_steps",
                 "cp_events")


def run_traced(r: Runner) -> dict:
    from tracing import Tracer

    runs = [import_times() for _ in range(SETUP_INTERPRETERS)]
    imports = {m: statistics.median(t[m] for t in runs) for m in MODULES}
    r.report(0)  # warm-up
    r.heavy_check()
    # untraced and traced calls alternate, all on the first input, so that
    # drift of the machine hits both alike and the counts must repeat
    plain, traced = [], []
    while (len(plain) < 1 or len(traced) < 2
           or r.time_left(statistics.median(d["trace.report_s"] for d in traced))):
        if len(plain) <= len(traced):
            plain.append(r.report(0))
            continue
        tr = Tracer().install()
        try:
            t = r.report(0)
        finally:
            tr.restore()
        traced.append(layer_values(tr, t))
    counts = [{k: v for k, v in d.items() if k.endswith(COUNT_METRICS)}
              for d in traced]
    if any(c != counts[0] for c in counts[1:]):
        r.fail("trace", ["counts differ between traced reports"])
    metrics = {}
    for key in traced[0]:
        vals = [d[key] for d in traced]
        unit = ("count" if key.endswith(COUNT_METRICS)
                else "ns" if key.startswith("simulate.ns_") else "s")
        metrics[key] = (vals[0] if unit == "count" else statistics.median(vals),
                        unit)
    for mod, secs in imports.items():
        metrics[f"{mod}.import_s"] = (secs, "s")
    metrics["trace.overhead_s"] = (metrics["trace.report_s"][0]
                                   - statistics.median(plain), "s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "levydam" / "cli.py").is_file():
        print(f"no levydam sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    r = Runner(WORKLOADS[args.workload], args.seed, args.seconds)
    metrics = run_traced(r) if args.trace else run_untraced(r)

    import numpy
    import scipy

    for where, problems in r.problems:
        print(f"report {where}: {'; '.join(problems)}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "scipy": scipy.__version__},
    }))
    print(json.dumps({
        "correct": not r.problems,
        "attempted": r.attempted,
        "failed": len(r.failed_ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
