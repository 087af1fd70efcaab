"""Time one cold set-up of a workload in a fresh interpreter.

Set-up is importing halfline, then the workload's `prepare`: building
its grids and presets and making its first, cold call.  The benchmark's
own modules are imported untimed in between.  Prints the seconds.

    python3 bench/setup_probe.py claim-sweeps
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    t0 = time.perf_counter()
    import halfline  # noqa: F401

    t_import = time.perf_counter() - t0
    import workloads

    wl = workloads.WORKLOADS[sys.argv[1]](0, HERE / "out" / "setup-probe")
    t0 = time.perf_counter()
    wl.prepare()
    print(repr(t_import + time.perf_counter() - t0))
