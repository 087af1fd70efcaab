"""Self-test of the benchmark's checks.

Each check gets the program's real output, which it must accept, and a
deliberately corrupted copy, which it must reject.  Exits 1 if any
check accepts a corruption or rejects the real output.

    python3 bench/selftest.py
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import numpy as np

    import halfline as H

    import checks
    import workloads as W

    results = []

    def expect(name: str, fails: list[str], reject: bool) -> None:
        ok = bool(fails) == reject
        results.append(ok)
        verdict = "rejects" if fails else "accepts"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}" + (f" ({fails[0]})" if fails else ""))

    # Sweeps: the real thm1 and thm2 reports, then corrupted copies.
    out = HERE / "out" / "selftest"
    out.mkdir(parents=True, exist_ok=True)
    sweeps = {key: (claim, cfg) for key, claim, cfg in W.SWEEPS}
    texts = {}
    for key in ("thm1", "thm2"):
        claim, cfg = sweeps[key]
        sc = H.SweepConfig(preset="xexp", L=W.REF_L, N=W.REF_N, **cfg)
        records, chk = H.run_claim(claim, sc)
        H.emit_report(records, out / f"{key}.csv", out / f"{key}.json", chk)
        texts[key] = ((out / f"{key}.csv").read_text(), (out / f"{key}.json").read_text())
        full = dict(cfg, L=W.REF_L, N=W.REF_N)
        expect(f"{key} report as written", checks.check_sweep(claim, full, *texts[key]), reject=False)

    thm1_cfg = dict(sweeps["thm1"][1], L=W.REF_L, N=W.REF_N)
    csv, js = texts["thm1"]
    lines = csv.split("\n")
    cols = lines[5].split(",")
    cols[5] = f"{float(cols[5]) * (1 + 1e-12):.16e}"
    expect("thm1 csv with one value perturbed by 1e-12",
           checks.check_sweep("thm1", thm1_cfg, "\n".join(lines[:5] + [",".join(cols)] + lines[6:]), js),
           reject=True)
    expect("thm1 csv with a row dropped",
           checks.check_sweep("thm1", thm1_cfg, "\n".join(lines[:-2] + [""]), js), reject=True)

    # The last remainder row has no successor, so only the rung
    # recomputation can see a change to it.
    last = max(i for i, ln in enumerate(lines) if ",remainder," in ln)
    cols = lines[last].split(",")
    v = float(cols[5]) + 1e-5
    prev = [ln for ln in lines[:last] if ",remainder," in ln and ln.split(",")[2] == cols[2]][-1]
    cols[5], cols[6] = f"{v:.16e}", f"{v / float(prev.split(',')[5]):.16e}"
    expect("thm1 last-rung remainder off by 1e-5",
           checks.check_sweep("thm1", thm1_cfg, "\n".join(lines[:last] + [",".join(cols)] + lines[last + 1:]), js),
           reject=True)
    expect("thm1 verdicts with one check failing",
           checks.check_sweep("thm1", thm1_cfg, csv, js.replace('"all_pass": true', '"all_pass": false')),
           reject=True)

    thm2_cfg = dict(sweeps["thm2"][1], L=W.REF_L, N=W.REF_N)
    csv2, js2 = texts["thm2"]
    row = next(ln for ln in csv2.split("\n") if ",probe_one_minus_alpha," in ln)
    cols = row.split(",")
    cols[5] = f"{float(cols[5]) + 1e-5:.16e}"
    expect("thm2 absorbed mass off by 1e-5",
           checks.check_sweep("thm2", thm2_cfg, csv2.replace(row, ",".join(cols)), js2), reject=True)

    # Limit objects: one table entry.
    lim = W.LimitObjects(0, out)
    lim.prepare()
    name, b, t, tau = "bump12", 1.0, 1.2, 0.5
    entry = lim.entry(name, b, t, tau)
    band = np.where(lim.grid.x <= b * t, lim.presets[name].values, 0.0)
    diff = entry.pop("double_reflection").values - band
    entry["double_reflection_defect"] = float(np.sqrt(lim.grid.h * np.sum(np.abs(diff) ** 2)))
    expect("limit entry as computed", checks.check_limit_entry(name, b, t, entry, lim.grid.h), reject=False)
    for field, change in (("alpha", 1e-5), ("completeness_defect", 2e-6),
                          ("destruction_time", 2 * lim.grid.h), ("composition_defect", 2e-4),
                          ("wold_upper", 1e-2)):
        bad = dict(entry, **{field: entry[field] + change})
        expect(f"limit entry with {field} off by {change:g}",
               checks.check_limit_entry(name, b, t, bad, lim.grid.h), reject=True)

    # Engines: the kernel-vs-spectral readout, a spectral readout, the
    # asymptotic form and the sine mode.
    ev = W.EngineEvolves(0, out)
    ev.prepare()
    p = H.EvolutionParams(epsilon=0.15, b=1.0, t=1.1)
    uk = H.kernel_evolve(ev.phi_r, p)
    us = H.spectral_evolve(ev.phi_r, p)
    expect("both readout as computed", checks.check_both(W.both_readout(uk, us), "both"), reject=False)
    scaled = H.WaveFunction(uk.grid, 1.01 * uk.values)
    expect("both readout with the kernel state scaled by 1.01",
           checks.check_both(W.both_readout(scaled, us), "both"), reject=True)

    p = H.EvolutionParams(epsilon=0.05, b=1.0, t=1.0)
    u, readout = ev.single("spectral", p)
    expect("spectral readout as computed", checks.check_spectral(readout, "spectral"), reject=False)
    expect("spectral readout with norm off by 1e-8",
           checks.check_spectral(dict(readout, norm=readout["norm"] + 1e-8), "spectral"), reject=True)

    u, _ = ev.single("asymptotic", p)
    args = (ev.closed_form, W.REF_L, p.epsilon, p.b, p.t)
    expect("asymptotic form as computed", checks.check_asymptotic(u.values, *args), reject=False)
    bumped = u.values.copy()
    bumped[3000] += 1e-5
    expect("asymptotic form with one node off by 1e-5", checks.check_asymptotic(bumped, *args), reject=True)

    k = 37
    init = checks.sine_mode(W.REF_L, W.REF_N, k, p.epsilon, p.b)
    u = H.spectral_evolve(H.WaveFunction(ev.grid, init), p).values
    expect("sine mode as evolved",
           checks.check_sine_mode(u, init, W.REF_L, k, p.epsilon, p.b, p.t), reject=False)
    expect("sine mode with a phase error of 1e-9",
           checks.check_sine_mode(u * np.exp(1e-9j), init, W.REF_L, k, p.epsilon, p.b, p.t), reject=True)

    print(f"{sum(results)}/{len(results)} self-test cases behave")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
