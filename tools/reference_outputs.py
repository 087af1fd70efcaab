"""Write the reference outputs of this checkout into one directory.

    python3 tools/reference_outputs.py OUT

Runs ``python -m halfline.cli`` on this checkout's own ``src/``, one
child process per run with ``OPENBLAS_NUM_THREADS=1``, from inside OUT:

* the seven acceptance sweeps (thm1, weak, thm3, thm5, prop2 at b = +1
  and -1, thm2) on the reference grid, and weak on the same config
  against the test vectors bump23 (a second compact support) and xexp
  (support ending at 68 % of the grid), each with its reports in
  ``sweep_<name>/``;
* ``evolve`` of xexp at eps = 0.1, t = 1 on the reference grid: the
  spectral and asymptotic engines at b = +1 and -1, the kernel engine
  and both engines at b = +1, each with its wave in ``evolve_<name>.csv``;
* ``limit`` of bump12 and of xexp at b = 1, t = 1.5, and its edge
  paths: bump12 at b = 1, t = 0 (the shift by zero) and t = 2.5 (alpha
  0, no profile), bump23 at b = 2, t = 2.2.

Each run keeps its stdout and stderr as ``<name>.stdout`` and
``<name>.stderr``.  Paths in the outputs are relative to OUT, so the
trees of two checkouts compare file by file with
``tools/report_drift.py``.

Exit status: 0 when every run exits 0, 1 when any does not (its outputs
are kept), 2 on a usage error or an OUT that is not empty.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

THM1 = ("--b", "1", "--times", "0.5,1,2", "--eps", "0.2,0.1,0.05,0.025")
EXPECT = ("--b", "1", "--times", "1.5", "--eps", "0.2,0.1,0.05,0.025")
PROP2 = ("--times", "0.25,0.5,1", "--eps", "0.1,0.05,0.025,0.0125,0.00625")
EVOLVE = ("evolve", "--preset", "xexp", "--epsilon", "0.1", "--t", "1")

# name -> argv of one CLI run; the sweep configs are those of the acceptance gate.
SWEEPS = {
    "thm1": ("thm1", *THM1),
    "weak": ("weak", *THM1),
    "weak_bump23": ("weak", *THM1, "--g", "bump23"),
    "weak_xexp": ("weak", *THM1, "--g", "xexp"),
    "thm3": ("thm3", *EXPECT),
    "thm5": ("thm5", *EXPECT),
    "prop2_inflow": ("prop2", "--b", "1", *PROP2),
    "prop2_outflow": ("prop2", "--b", "-1", *PROP2),
    "thm2": ("thm2", "--b", "1", "--times", "1.5", "--eps", "0.1"),
}
RUNS = {
    **{f"sweep_{name}": ("sweep", "--claim", claim, "--preset", "xexp", *rest,
                         "--out-dir", f"sweep_{name}")
       for name, (claim, *rest) in SWEEPS.items()},
    **{f"evolve_{engine}_{tag}": (*EVOLVE, "--engine", engine, "--b", b,
                                  "--out", f"evolve_{engine}_{tag}.csv")
       for engine, b, tag in (("spectral", "1", "b1"), ("spectral", "-1", "bm1"),
                              ("kernel", "1", "b1"), ("both", "1", "b1"),
                              ("asymptotic", "1", "b1"), ("asymptotic", "-1", "bm1"))},
    **{f"limit_{name}": ("limit", "--preset", preset, "--b", b, "--t", t)
       for name, preset, b, t in (("bump12", "bump12", "1", "1.5"),
                                  ("xexp", "xexp", "1", "1.5"),
                                  ("bump12_t0", "bump12", "1", "0"),
                                  ("bump12_t2.5", "bump12", "1", "2.5"),
                                  ("bump23_b2", "bump23", "2", "2.2"))},
}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/reference_outputs.py OUT", file=sys.stderr)
        return 2
    out = Path(argv[0])
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        print(f"error: {out} must be an empty directory or absent", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    failed = 0
    for name, args in RUNS.items():
        run = subprocess.run([sys.executable, "-m", "halfline.cli", *args], cwd=out, env=env,
                             capture_output=True, text=True)
        (out / f"{name}.stdout").write_text(run.stdout, encoding="ascii")
        (out / f"{name}.stderr").write_text(run.stderr, encoding="ascii")
        print(f"{name}: exit {run.returncode}")
        failed += run.returncode != 0
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
