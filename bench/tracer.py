"""Per-layer tracing of halfline from outside the package.

The layers are halfline's modules.  `Tracer.install` wraps the listed
public functions of each module and rebinds every halfline module
attribute that refers to one of them, so calls made inside the package
are counted as well as the benchmark's own.  `WaveFunction` is traced
through its `__init__`, which all modules share.

Each wrapped call is a span.  Its self time is its duration minus the
time of the traced calls made inside it, hooks included.
"""

from __future__ import annotations

import hashlib
import inspect
import os
import sys
import time
from importlib import import_module

LAYERS = {
    "evolvers": ("kernel_evolve", "spectral_evolve", "asymptotic_evolve",
                 "remainder_norm", "limit_group_V"),
    "grid": ("inner", "norm", "sample_at", "shift_sample", "reflect_sample",
             "indicator_project", "boundary_defect", "WaveFunction"),
    "limit_dynamics": ("kraus_apply", "comp_state_evolve", "mult_expectation_limit",
                       "shift_V", "reflect_W", "destruction_time", "comp_semigroup_check"),
    "observables": ("expectation", "comp_expectation_limit"),
    "harness": ("sweep_theorem1", "sweep_weak_decay", "sweep_expectations",
                "sweep_prop2", "divergence_probe", "evaluate_checks", "emit_report"),
    "presets": ("get_preset",),
}

# Calls whose distinct inputs are counted, and the arguments that make
# up an input besides the wave function itself.
DISTINCT = {
    "evolvers.spectral_evolve": lambda a: (a["p"].epsilon, a["p"].b, a["p"].t),
    "limit_dynamics.comp_state_evolve": lambda a: (a["b"], a["t"]),
}


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    out = []
    for mod, fns in LAYERS.items():
        for fn in fns:
            out += [(f"{mod}.{fn}.calls", "count"), (f"{mod}.{fn}.self_s", "s")]
    out += [(f"{key}.distinct_ratio", "ratio") for key in DISTINCT]
    out += [("harness.emit_report.bytes", "B"), ("trace.overhead_pct", "%")]
    return out


class Tracer:
    def __init__(self) -> None:
        self.calls = {f"{m}.{f}": 0 for m, fns in LAYERS.items() for f in fns}
        self.self_s = dict.fromkeys(self.calls, 0.0)
        self.distinct = dict.fromkeys(DISTINCT, 0)
        self.report_bytes = 0
        self._seen: dict[str, set] = {k: set() for k in DISTINCT}
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def next_round(self) -> None:
        """Distinct inputs are counted within one round."""
        for s in self._seen.values():
            s.clear()

    def _span(self, key: str, fn, pre=None, post=None):
        stack = self._stack

        def traced(*args, **kwargs):
            h0 = time.perf_counter()
            try:
                if pre is not None:
                    pre(args, kwargs)
                stack.append(0.0)
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    self.calls[key] += 1
                    self.self_s[key] += dt - stack.pop()
                if post is not None:
                    post(args, kwargs)
                return result
            finally:
                # the hooks are tracing cost, not the caller's own work
                if stack:
                    stack[-1] += time.perf_counter() - h0

        traced.__wrapped__ = fn
        return traced

    def _distinct_hook(self, key: str, fn):
        sig = inspect.signature(fn)
        extra = DISTINCT[key]

        def pre(args, kwargs):
            a = sig.bind(*args, **kwargs).arguments
            digest = hashlib.blake2b(memoryview(a["phi"].values), digest_size=16).digest()
            seen = self._seen[key]
            k = (digest,) + extra(a)
            if k not in seen:
                seen.add(k)
                self.distinct[key] += 1

        return pre

    def _bytes_hook(self, fn):
        sig = inspect.signature(fn)

        def post(args, kwargs):
            a = sig.bind(*args, **kwargs).arguments
            for path in (a.get("csv_path"), a.get("json_path")):
                if path is not None:
                    self.report_bytes += os.path.getsize(path)

        return post

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "halfline" or name.startswith("halfline.")]
        for mod, fns in LAYERS.items():
            home = import_module(f"halfline.{mod}")
            for fn in fns:
                key = f"{mod}.{fn}"
                orig = getattr(home, fn)
                if isinstance(orig, type):
                    init = orig.__init__
                    self._restore.append((orig, "__init__", init))
                    orig.__init__ = self._span(key, init)
                    continue
                pre = self._distinct_hook(key, orig) if key in DISTINCT else None
                post = self._bytes_hook(orig) if key == "harness.emit_report" else None
                wrapped = self._span(key, orig, pre, post)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._restore.append((m, attr, orig))
                            setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-round counts and self times, distinct ratios over the run."""
        out: dict[str, float] = {}
        for key in self.calls:
            out[f"{key}.calls"] = self.calls[key] / rounds
            out[f"{key}.self_s"] = self.self_s[key] / rounds
        for key, n in self.distinct.items():
            out[f"{key}.distinct_ratio"] = n / self.calls[key] if self.calls[key] else 0.0
        out["harness.emit_report.bytes"] = self.report_bytes / rounds
        return out
