"""Benchmark for halfline: claim sweeps, engine evolves and limit objects.

    python3 bench/run.py --workload claim-sweeps --seed 1 --seconds 20 --trace 0

Runs the named workload in whole rounds for --seconds and, interleaved
with it in the same process, each of the other two for its companion
share of --seconds, so that every end-to-end metric is reported on every
run.  Every output is checked.
With --trace 1 only the named workload runs: one warm-up round, then
untraced for half the time, then traced for as many rounds, and the
per-layer metrics and the tracing overhead are reported instead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The environment of the run is
printed before it and kept, with the metrics, in bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPEATS = 7
# Share of --seconds a workload gets when it runs as a companion: enough
# rounds for a steady median (a sweep pass takes about 2.6 s, a round of
# engine evolves 1.5 s, a limit table 0.5 s on a 2-core machine).
# Machine speed drifts by +-20 % over 30-60 s on a shared host, so rounds
# are interleaved: every metric samples the whole run, not one stretch.
COMPANION_SHARE = {"claim-sweeps": 1.0, "engine-evolves": 0.4, "limit-objects": 0.4}
WORKLOAD_NAMES = tuple(COMPANION_SHARE)

END_TO_END = (
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("sweep_thm1_s", "s"), ("sweep_weak_s", "s"), ("sweep_thm3_s", "s"),
    ("sweep_thm5_s", "s"), ("sweep_prop2_inflow_s", "s"),
    ("sweep_prop2_outflow_s", "s"), ("sweep_thm2_s", "s"),
    ("evolve_spectral_s", "s"), ("evolve_asymptotic_s", "s"), ("evolve_both_s", "s"),
    ("limit_evals_per_s", "1/s"),
)


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith(("OPENBLAS_", "OMP_"))},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "numba": has_numba,
    }


def setup_seconds(workload: str) -> list[float]:
    """Cold set-up times, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def run_interleaved(plan: list[tuple[object, float]]) -> list[int]:
    """Whole rounds of several workloads, each until it has had its
    seconds; the next round goes to the one furthest behind its share.
    Returns the rounds run per workload."""
    spent = [0.0] * len(plan)
    rounds = [0] * len(plan)
    while True:
        behind = [s / secs for s, (_, secs) in zip(spent, plan)]
        i = min(range(len(plan)), key=behind.__getitem__)
        if behind[i] >= 1.0:
            return rounds
        t0 = time.perf_counter()
        plan[i][0].run_round()
        spent[i] += time.perf_counter() - t0
        rounds[i] += 1


def op_seconds(wl) -> float:
    return sum(sum(ts) for ts in wl.times.values())


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not (SRC / "halfline" / "__init__.py").is_file():
        print(f"error: no halfline sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import halfline

    if Path(halfline.__file__).resolve().parent != SRC / "halfline":
        print(f"error: imported halfline from {halfline.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    run_dir = OUT / args.workload
    main_wl = workloads.WORKLOADS[args.workload](args.seed, run_dir)
    ran = [main_wl]
    metrics: dict[str, float]
    units: dict[str, str]

    if args.trace == 0:
        setup_samples = setup_seconds(args.workload)
        ran += [workloads.WORKLOADS[name](args.seed, OUT / f"{args.workload}.{name}")
                for name in WORKLOAD_NAMES if name != args.workload]
        for wl in ran:
            wl.prepare()
        run_interleaved([(wl, args.seconds * (1.0 if wl is main_wl else COMPANION_SHARE[wl.name]))
                         for wl in ran])
        metrics = {"setup_s": statistics.median(setup_samples),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        for wl in ran:
            metrics.update(wl.metrics())
        units = dict(END_TO_END)
    else:
        main_wl.prepare()
        main_wl.run_round()  # warm, so both phases compare warm rounds
        warm = op_seconds(main_wl)
        [n] = run_interleaved([(main_wl, args.seconds / 2.0)])
        untraced = op_seconds(main_wl) - warm
        tr = tracing.Tracer()
        tr.install()
        try:
            for _ in range(n):
                tr.next_round()
                main_wl.run_round()
        finally:
            tr.uninstall()
        traced = op_seconds(main_wl) - warm - untraced
        metrics = tr.metrics(rounds=n)
        metrics["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
        units = dict(tracing.per_layer_names())

    for wl in ran:
        wl.final_checks()
    failures = [f for wl in ran for f in wl.failures]
    errors = [e for wl in ran for e in wl.errors]
    for line in failures + errors:
        print(f"check: {line}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": sum(wl.attempted for wl in ran),
        "failed": sum(wl.failed for wl in ran),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    run_dir.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, failures=failures, errors=errors,
                  op_seconds={wl.name: dict(wl.times) for wl in ran})
    (run_dir / f"run-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
