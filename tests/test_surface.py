"""What the benchmark relies on from the package.

`bench/tracer.py` names, per halfline module, the callables it rebinds;
a rename or a move in the package would silently drop them from the
per-layer report, so each pair is pinned here.  And `import halfline`
stays free of scipy, whose import alone costs more than the package's
whole set-up, and free of BLAS-backed reductions, whose summation order
follows the BLAS thread count into the report bytes.
"""

import importlib
import importlib.util
import io
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "halfline"
_BLAS_CALL = re.compile(r"\bnp\.(vdot|dot|vecdot|matmul|inner|tensordot|linalg)\b")


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


def _matmul_lines(source):
    """Lines using @ or @= as an operator; a decorator's @ opens its line."""
    lines, line_start = [], True
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.OP and tok.string in ("@", "@=") and not line_start:
            lines.append(tok.start[0])
        if tok.type not in (tokenize.COMMENT, tokenize.INDENT, tokenize.DEDENT):
            line_start = tok.type in (tokenize.NEWLINE, tokenize.NL)
    return lines


def test_matmul_finder_skips_decorators():
    src = "@dataclass\nclass A:\n    @property\n    def f(self):\n        return a @ b\nc @= d\n"
    assert _matmul_lines(src) == [5, 6]


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_blas_reduction(path):
    source = path.read_text(encoding="utf-8")
    calls = [f"{n}: {line.strip()}" for n, line in enumerate(source.splitlines(), 1)
             if _BLAS_CALL.search(line)]
    assert calls == []
    assert _matmul_lines(source) == []
