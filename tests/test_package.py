import ast
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


def _loaded_modules(code: str) -> list:
    """Modules in sys.modules after ``code`` runs in a fresh interpreter,
    so nothing pytest imported counts."""
    code += "\nprint('\\n'.join(sys.modules))\n"
    src = str(Path(levydam.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", "import sys\n" + code],
                          cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def _scipy(modules: list) -> list:
    return [m for m in modules if m == "scipy" or m.startswith("scipy.")]


def test_no_verb_loads_scipy_on_any_model_kind():
    # the package runs on numpy alone: evaluate and verify on every model
    # kind of the CLI load no scipy module; each builds an overshoot law,
    # and so cuts the jump tail, where the input has jumps
    loaded = _loaded_modules(
        "import levydam.cli as cli\n"
        f"specs = {MODEL_SPECS!r}\n"
        "cfg = cli.load_config('configs/compound_poisson.json')\n"
        "cfg['verification'].update(n_paths=20, time_step=0.01)\n"
        "zero = {'breakpoints': [0.0, 1.0], 'coeffs': [[0.0]]}\n"
        "cfg['costs'].update(g=zero, g_star=zero)\n"
        "cfg['alphas'] = []\n"
        "for spec in specs:\n"
        "    cfg['model'] = spec\n"
        "    cli.cmd_evaluate(cfg)\n"
        "    cli.cmd_verify(cfg)\n")
    assert "levydam.exits" in loaded and "levydam.simulate" in loaded
    assert _scipy(loaded) == []


def _imported_modules(tree):
    """(module, enclosing function) of every import statement in tree."""
    found = []

    def walk(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((alias.name, func) for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.append((child.module, func))
            walk(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func)

    walk(tree, None)
    return found


def test_package_depends_on_numpy_alone():
    # no module imports scipy but the exits.quad shim, which nothing in the
    # package calls; the declared run-time dependencies are numpy alone
    package = Path(levydam.__file__).resolve().parent
    scipy_imports = []
    for path in sorted(package.glob("*.py")):
        for module, func in _imported_modules(ast.parse(path.read_text())):
            if module.split(".")[0] == "scipy":
                scipy_imports.append((path.name, func, module))
    assert scipy_imports == [("exits.py", "quad", "scipy.integrate")]
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies = \[(.*?)^\]", text, re.S | re.M)
    assert re.findall(r'^\s*"([\w.-]+)', block.group(1), re.M) == ["numpy"]


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
    # wrapping exits.quad must not import scipy.integrate behind it
    loaded = _loaded_modules(
        "import importlib.util\n"
        "import levydam.cli\n"
        "spec = importlib.util.spec_from_file_location(\n"
        "    'perfbench_tracing', 'perfbench/tracing.py')\n"
        "tracing = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracing)\n"
        "tracing.Tracer().install().restore()\n")
    assert _scipy(loaded) == []


def test_readme_library_quick_start_runs():
    # the README's documented API must keep working as written
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ns = {}
    exec(compile(block, "README.md", "exec"), ns)
    assert isinstance(ns["ev"], levydam.PolicyEvaluator)


# one config model per kind of cli.build_model, the jump diffusion included
MODEL_SPECS = [
    {"kind": "brownian", "mu": 1.0, "sigma2": 1.0},
    {"kind": "brownian", "mu": 0.5, "sigma2": 1.0, "jump_rate": 0.8,
     "jump_mean": 0.5},
    {"kind": "compound_poisson", "zeta": 2.0, "rate": 1.0, "jump_mean": 1.0},
    {"kind": "gamma", "zeta": 1.0, "a": 3.0, "b": 2.0},
    {"kind": "inverse_gaussian", "zeta": 1.0, "sigma": 1.0, "c": 0.8},
]


def test_every_public_family_is_built_priced_and_simulated():
    # a family or jump law the CLI cannot build or the oracle cannot run
    # must not be public: every number the package prices has to be
    # checkable
    from levydam import cli

    classes = [obj for obj in map(vars(levydam).get, levydam.__all__)
               if isinstance(obj, type)]
    public = {obj for obj in classes if issubclass(obj, levydam.LevyModel)
              and obj is not levydam.LevyModel}
    jump_laws = {obj for obj in classes if obj.__name__.endswith("Jumps")}
    models = [cli.build_model(spec) for spec in MODEL_SPECS]
    assert public <= {type(model) for model in models}
    assert levydam.ExponentialJumps in jump_laws
    assert jump_laws <= {type(getattr(model, "jumps", None))
                         for model in models}
    policy = levydam.PolicyParams(lam=2.0, tau=0.5, M=2.0, V=4.0)
    zero = levydam.PiecewisePoly.zero()
    costs = levydam.CostSpec(0.0, 0.0, 0.0, zero, zero)
    config = levydam.PathConfig(time_step=1e-2, n_paths=5, seed=1)
    for model in models:
        ev = levydam.PolicyEvaluator(model, policy, costs)
        assert 0.0 < ev.fill_exit_lt(0.5) <= 1.0, model
        # past the fill the cycle needs the overshoot law
        assert 0.0 < ev.cycle_end_lt(0.5) <= 1.0, model
        records = levydam.run_policy_cycles(model, policy, costs, config)
        assert records.n_cycles > 0, model
