"""The functions the benchmark tracer wraps must exist where it looks.

`bench/tracer.py` names, per halfline module, the callables it rebinds;
a rename or a move in the package would silently drop them from the
per-layer report, so each pair is pinned here.
"""

import importlib
import importlib.util
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
