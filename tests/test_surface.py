"""What the benchmark relies on from the package.

`bench/tracer.py` names, per halfline module, the callables it rebinds;
a rename or a move in the package would silently drop them from the
per-layer report, so each pair is pinned here.  And `import halfline`
stays free of scipy, whose import alone costs more than the package's
whole set-up.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("_bench_tracer", _TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return [(m, name) for m, names in mod.LAYERS.items() for name in names]


@pytest.mark.parametrize("module,name", _layers())
def test_traced_name_resolves(module, name):
    mod = importlib.import_module(f"halfline.{module}")
    assert callable(getattr(mod, name, None))


def test_import_leaves_scipy_out():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, halfline; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
