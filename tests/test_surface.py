"""What the benchmark relies on from the package.

`bench/tracer.py` names, per halfline module, the callables it rebinds;
a rename or a move in the package would silently drop them from the
per-layer report, so each pair is pinned here, as is every name the
benchmark reads from the package's top level.  And `import halfline`
stays free of scipy, whose import alone costs more than the package's
whole set-up, and free of BLAS-backed reductions, whose summation order
follows the BLAS thread count into the report bytes.  Neither the
import nor a spectral ladder starts a thread or loads
``concurrent.futures``: the whole walk runs on the caller's thread, so
a forked child runs ladders as its parent does.
"""

import importlib
import importlib.util
import inspect
import io
import os
import re
import subprocess
import sys
import tokenize
import typing
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parents[1] / "bench"
_TRACER = _BENCH / "tracer.py"
_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "halfline"
_BLAS_CALL = re.compile(r"\bnp\.(vdot|dot|vecdot|matmul|inner|tensordot|linalg)\b")
_STATE_DIVISION = re.compile(r"\.values\s*/(?!/)")


def _layers():
    spec = importlib.util.spec_from_file_location("_bench_tracer", _TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return [(m, name) for m, names in mod.LAYERS.items() for name in names]


@pytest.mark.parametrize("module,name", _layers())
def test_traced_name_resolves(module, name):
    mod = importlib.import_module(f"halfline.{module}")
    assert callable(getattr(mod, name, None))


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_annotations_resolve(path):
    # Annotations are strings until a tool resolves them; each name they
    # use must resolve in the module that defines them.
    name = "halfline" if path.stem == "__init__" else f"halfline.{path.stem}"
    mod = importlib.import_module(name)
    defined = [obj for obj in vars(mod).values()
               if (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == mod.__name__]
    defined += [m for cls in defined if inspect.isclass(cls)
                for m in vars(cls).values() if inspect.isfunction(m)]
    unresolved = []
    for obj in defined:
        try:
            typing.get_type_hints(obj)
        except NameError as e:
            unresolved.append(f"{obj.__qualname__}: {e}")
    assert unresolved == []


def test_bench_names_resolve_at_top_level():
    # The benchmark imports the package as H and reads H.<name>.
    import halfline

    names = {name for path in _BENCH.glob("*.py")
             for name in re.findall(r"\bH\.(\w+)", path.read_text(encoding="utf-8"))}
    assert names
    assert sorted(n for n in names if not hasattr(halfline, n)) == []


def _python(code: str) -> str:
    """Run code in a fresh interpreter that imports this checkout's
    package; its stdout, or a failure if it errs or outlives 60 s."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=60,
    )
    return out.stdout.strip()


def test_import_leaves_scipy_out():
    assert _python(
        "import sys, halfline; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    ) == "[]"


def test_import_leaves_the_worker_pool_out():
    assert _python(
        "import sys, halfline; print('concurrent.futures' in sys.modules)"
    ) == "False"


def test_import_starts_no_thread():
    assert _python(
        "import threading, halfline; print([t.name for t in threading.enumerate()])"
    ) == "['MainThread']"


_LADDER = """
import halfline as H
from halfline.evolvers import spectral_ladder
g = H.make_grid(10.0, 1024)
phi = H.get_preset('xexp', g)
def walk():
    return spectral_ladder(phi, (0.4, 0.2), 1.0, (0.5, 1.0))
"""


def test_ladder_starts_no_thread():
    assert _python(_LADDER + """
import sys, threading
print(len(list(walk())), threading.active_count(), 'concurrent.futures' in sys.modules)
""") == "4 1 False"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_a_ladder():
    assert _python(_LADDER + """
import os, signal
list(walk())
pid = os.fork()
if pid == 0:
    signal.alarm(20)
    os._exit(0 if len(list(walk())) == 4 else 1)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
""") == "0"


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


def test_state_division_finder():
    found = [bool(_STATE_DIVISION.search(line)) for line in
             ("u.values /= n", "d.values / norm(d)", "v.values/2", "k = v.values // 2",
              "_scaled(v.values, s, out=v.values)")]
    assert found == [True, True, True, False, False]


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_state_divided_by_a_scalar(path):
    # A state is scaled by a real through grid._scaled alone: a product
    # of the float view with the reciprocal, the same numbers as numpy's
    # complex division without its cost.
    lines = [f"{n}: {line.strip()}"
             for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if _STATE_DIVISION.search(line)]
    assert lines == []
