import os
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
