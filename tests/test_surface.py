"""What the benchmark relies on from the package.

`bench/tracer.py` names, per halfline module, the callables it rebinds;
a rename or a move in the package would silently drop them from the
per-layer report, so each pair is pinned here, as is every name the
benchmark reads from the package's top level.  And `import halfline`
stays free of scipy, whose import alone costs more than the package's
whole set-up, and free of BLAS-backed reductions, whose summation order
follows the BLAS thread count into the report bytes.  It starts no
thread; the spectral ladder's worker starts with the first ladder and
holds neither the interpreter's exit nor a forked child.
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

_BENCH = Path(__file__).resolve().parents[1] / "bench"
_TRACER = _BENCH / "tracer.py"
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

# A multiplier that takes half a second, defined in a namespace of its
# own: one defined in __main__ would keep the whole script, open walks
# included, alive past shutdown from the worker's frame.
_SLOW = """
import time
def slow(*args):
    time.sleep(0.5)
    return free_flow(*args)
"""


def test_process_exits_after_ladders():
    # One walk run out, and one left open at its first state with its
    # next multiplier still on the worker when the interpreter exits, so
    # that the open walk is closed during shutdown.
    assert _python(_LADDER + f"""
import halfline.evolvers as ev
print(len(list(walk())))
ns = {{'free_flow': ev._free_flow}}
exec({_SLOW!r}, ns)
ev._free_flow = ns['slow']
w = walk()
next(w)
""") == "4"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_a_ladder():
    # The child inherits the parent's job queue but not its worker thread.
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
