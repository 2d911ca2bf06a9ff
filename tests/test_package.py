import os
import re
import subprocess
import sys
import types
from pathlib import Path

import levydam

ROOT = Path(__file__).resolve().parents[1]


def test_star_import_binds_no_modules():
    ns = {}
    exec("from levydam import *", ns)
    modules = [k for k, v in ns.items() if isinstance(v, types.ModuleType)]
    assert modules == []


def test_all_names_exist_and_are_unique():
    assert len(set(levydam.__all__)) == len(levydam.__all__)
    for name in levydam.__all__:
        assert hasattr(levydam, name), name


def test_start_up_loads_neither_scipy_signal_nor_stats():
    # a fresh interpreter, so nothing pytest imported counts
    code = ("import sys\n"
            "import levydam.cli as cli\n"
            "from levydam import CONVOLUTION_SERIES, ScaleFunctionSet\n"
            "cfg = cli.load_config('configs/compound_poisson.json')\n"
            "ScaleFunctionSet(cli.build_model(cfg['model']), 0.5,\n"
            "                 method=CONVOLUTION_SERIES)\n"
            "print('\\n'.join(sys.modules))\n")
    src = str(Path(levydam.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "levydam.scale" in loaded
    assert [m for m in loaded
            if m.startswith(("scipy.signal", "scipy.stats"))] == []


def test_benchmark_tracer_installs_and_restores():
    # perfbench/tracing.py wraps functions and methods of the package by
    # name; a renamed one must fail here, not in a later traced benchmark run
    import importlib.util

    import levydam.cli  # noqa: F401  (the tracer wraps every module)
    from levydam import ScaleFunctionSet, brownian

    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = vars(ScaleFunctionSet)["w"]
    tracer = tracing.Tracer().install()
    try:
        assert vars(ScaleFunctionSet)["w"] is not original
        ScaleFunctionSet(brownian(1.0, 1.0), 0.5).w(1.0)
    finally:
        tracer.restore()
    assert vars(ScaleFunctionSet)["w"] is original
    count = tracer.layer_metrics()["count"]
    assert count["scale.ScaleFunctionSet.__init__"] == 1
    assert count["scale.ScaleFunctionSet.w"] == 1


def test_readme_library_quick_start_runs():
    # the README's documented API must keep working as written
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ns = {}
    exec(compile(block, "README.md", "exec"), ns)
    assert isinstance(ns["ev"], levydam.PolicyEvaluator)
