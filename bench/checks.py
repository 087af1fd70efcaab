"""Checks made apart from halfline: closed forms, an independent sine
transform, and properties the method must have.

Nothing here compares against a saved copy of earlier output.  Every
check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import json
import math

import numpy as np
import scipy.fft

XEXP_AMPLITUDE = math.sqrt(8.0) / (math.pi / 2.0) ** 0.25
ARCH_LO = {"bump12": 1.0, "bump23": 2.0}
SUPPORT_START = {"xexp": 0.0, **ARCH_LO}
# sup |phi|^2: A^2 y^2 exp(-2 y^2) peaks at y^2 = 1/2; the arches at 2.
PEAK_DENSITY = {"xexp": XEXP_AMPLITUDE ** 2 * 0.5 * math.exp(-1.0), "bump12": 2.0, "bump23": 2.0}


def _xexp_curvature() -> float:
    """sup |phi''| of xexp, phi'' = A exp(-y^2) (4 y^3 - 6 y), on a fine mesh."""
    y = np.linspace(0.0, 8.0, 800001)
    return float(np.max(np.abs(XEXP_AMPLITUDE * np.exp(-y * y) * (4 * y ** 3 - 6 * y))))


XEXP_CURVATURE = _xexp_curvature()

# The divergence probe walks a halving ladder of this many rungs.
PROBE_RUNGS = 4

CSV_HEADER = "preset,b,t,epsilon,metric,value,ratio"

# Tolerances.  RUNG_TOL covers the O(h^2) = 3.7e-7 error of the
# program's linear interpolation against the closed forms used here
# (measured below 1.5e-7 on the reference grid).
RUNG_TOL = 1e-6
MASS_TOL = 1e-6
COMPLETENESS_TOL = 1e-6
COMPOSITION_TOL = 1e-4
DOUBLE_REFLECTION_TOL = 1e-3
CROSS_TOL = 1e-3
KERNEL_NORM_TOL = 1e-3
SPECTRAL_NORM_TOL = 1e-9
SINE_MODE_TOL = 1e-12
BOUNDARY_REL_TOL = 1e-4


def nodes(L: float, N: int) -> np.ndarray:
    return (np.arange(N, dtype=np.float64) + 0.5) * (L / N)


def profile(name: str, y) -> np.ndarray:
    """Closed-form preset profile at positions y, zero for y < 0."""
    y = np.asarray(y, dtype=np.float64)
    if name == "xexp":
        return np.where(y >= 0.0, XEXP_AMPLITUDE * y * np.exp(-y * y), 0.0)
    lo = ARCH_LO[name]
    arch = math.sqrt(2.0) * np.sin(np.pi * (y - lo))
    return np.where((y >= lo) & (y <= lo + 1.0), arch, 0.0)


def mass_below(name: str, c: float) -> float:
    """Exact mass of a unit preset on [0, c]."""
    if name == "xexp":
        # |phi|^2 = A^2 y^2 exp(-2 y^2); substitute w = sqrt(2) y.
        w = math.sqrt(2.0) * max(c, 0.0)
        return math.erf(w) - 2.0 / math.sqrt(math.pi) * w * math.exp(-w * w)
    s = min(max(c - ARCH_LO[name], 0.0), 1.0)
    return s - math.sin(2.0 * math.pi * s) / (2.0 * math.pi)


def dst_evolve(values: np.ndarray, L: float, eps: float, b: float, t: float) -> np.ndarray:
    """Viscous flow by a type-II sine transform, independent of halfline.

    Midpoint samples of sin(k pi x / L), k = 1..N, are exactly the
    DST-II basis, so gauge, transform, multiply by exp(-i eps t xi^2)
    and transform back with DST-III (scipy's idst of type 2).
    """
    n = values.shape[0]
    x = nodes(L, n)
    v = np.exp(-0.5j * b / eps * x) * values
    xi = np.arange(1, n + 1) * (math.pi / L)
    w = scipy.fft.idst(scipy.fft.dst(v, type=2) * np.exp(-1j * eps * t * xi * xi), type=2)
    return np.exp(1j * (b * b * t / (4.0 * eps) + 0.5 * b / eps * x)) * w


def _inner(h: float, f: np.ndarray, g: np.ndarray) -> complex:
    return complex(h * np.sum(np.conj(f) * g))


def _norm(h: float, f: np.ndarray) -> float:
    return math.sqrt(h * float(np.sum(f.real ** 2 + f.imag ** 2)))


def probe_ladder(cfg: dict) -> tuple[float, ...]:
    return tuple(cfg["eps"][0] * 0.5 ** j for j in range(PROBE_RUNGS))


def expected_rows(claim: str, cfg: dict) -> int:
    """Rows a sweep writes: one per metric and rung, plus thm1's
    per-eps supremum and thm2's two summary rows."""
    n_eps, n_t = len(cfg["eps"]), len(cfg["times"])
    if claim == "thm1":
        return n_eps * (n_t + 1)
    if claim == "thm2":
        return 2 * PROBE_RUNGS + 2
    per_rung = {"weak": 1, "thm3": 1, "thm5": 2, "prop2": 3 if cfg["b"] > 0 else 1}
    return n_eps * n_t * per_rung[claim]


def rung_values(claim: str, cfg: dict, eps: float, t: float) -> dict[str, float]:
    """Metric values of one sweep rung, recomputed from closed forms and
    dst_evolve.  Sweeps evolve the xexp preset."""
    L, N, b = cfg["L"], cfg["N"], cfg["b"]
    h = L / N
    x = nodes(L, N)
    phi = profile("xexp", x).astype(np.complex128)
    u = dst_evolve(phi, L, eps, b, t)
    moved = np.where(x + b * t <= L, profile("xexp", x + b * t), 0.0)
    if claim == "thm1":
        two_wave = moved - np.exp(1j * b / eps * x) * profile("xexp", b * t - x)
        return {"remainder": _norm(h, u - two_wave)}
    if claim == "weak":
        g = profile("bump12", x)
        return {"weak[bump12]": abs(_inner(h, g, u - moved))}
    if claim == "thm3":
        d = profile("bump12", x)
        d = d / _norm(h, d)
        lim = abs(_inner(h, d, moved)) ** 2
        return {"gap[projector]": abs(abs(_inner(h, d, u)) ** 2 - lim)}
    if claim == "thm5":
        mirrored = np.where(x <= b * t, profile("xexp", b * t - x), 0.0)
        lim_density = moved ** 2 + mirrored ** 2
        dens = u.real ** 2 + u.imag ** 2
        out = {}
        for kind, f in (("indicator", np.where(x <= b * t, 1.0, 0.0)),
                        ("sigmoid", 1.0 / (1.0 + np.exp(-4.0 * (x - 2.0))))):
            out[f"gap[{kind}]"] = abs(h * float(np.sum(f * dens)) - h * float(np.sum(f * lim_density)))
        return out
    if claim == "prop2":
        strong = _norm(h, u - moved)
        out = {"strong_gap": strong}
        if b > 0:
            out["weak_gap[xexp]"] = abs(_inner(h, phi, u - moved))
            out["stall_defect"] = abs(strong ** 2 - mass_below("xexp", b * t))
        return out
    if claim == "thm2":
        return {"probe_gap_sq": _norm(h, u - moved) ** 2}
    raise ValueError(f"no rung oracle for claim {claim!r}")


def parse_csv(text: str) -> tuple[list[dict], list[str]]:
    lines = text.split("\n")
    if lines[-1] != "":
        return [], ["csv does not end with a newline"]
    lines = lines[:-1]
    if not lines or lines[0] != CSV_HEADER:
        return [], [f"csv header is {lines[0] if lines else ''!r}"]
    rows, errors = [], []
    for i, line in enumerate(lines[1:], start=2):
        cols = line.split(",")
        if len(cols) != 7:
            errors.append(f"csv line {i} has {len(cols)} columns")
            continue
        try:
            rows.append({
                "preset": cols[0], "b": float(cols[1]), "t": float(cols[2]),
                "epsilon": float(cols[3]), "metric": cols[4],
                "value": float(cols[5]),
                "ratio": None if cols[6] == "" else float(cols[6]),
            })
        except ValueError:
            errors.append(f"csv line {i} has a non-numeric field")
    return rows, errors


def check_sweep(claim: str, cfg: dict, csv_text: str, json_text: str) -> list[str]:
    """Row count, ratio chains, verdicts, absorbed mass and one rung."""
    rows, fails = parse_csv(csv_text)
    if fails:
        return fails
    want = expected_rows(claim, cfg)
    if len(rows) != want:
        fails.append(f"{claim}: {len(rows)} rows, config implies {want}")
    ladder = probe_ladder(cfg) if claim == "thm2" else tuple(cfg["eps"])
    last: dict[tuple, float] = {}
    for r in rows:
        if r["epsilon"] not in ladder or r["t"] not in cfg["times"] or r["b"] != cfg["b"]:
            fails.append(f"{claim}: row off the configured ladder: {r}")
        key = (r["preset"], r["b"], r["t"], r["metric"])
        prev = last.get(key)
        want_ratio = None if prev in (None, 0.0) else r["value"] / prev
        if r["ratio"] != want_ratio:
            fails.append(f"{claim}: {r['metric']} at eps={r['epsilon']} has ratio "
                         f"{r['ratio']!r}, value/previous is {want_ratio!r}")
        last[key] = r["value"]

    try:
        verdicts = json.loads(json_text)
    except json.JSONDecodeError as e:
        return fails + [f"{claim}: verdict json unreadable: {e}"]
    if verdicts.get("all_pass") is not True or not all(c.get("pass") for c in verdicts.get("checks", [])):
        fails.append(f"{claim}: a verdict failed")
    if verdicts.get("n_records") != len(rows):
        fails.append(f"{claim}: verdicts count {verdicts.get('n_records')} records, csv has {len(rows)}")

    by_key = {(r["metric"], r["t"], r["epsilon"]): r["value"] for r in rows}
    b, t_last = cfg["b"], max(cfg["times"])
    if claim == "thm2":
        lost = mass_below("xexp", b * t_last)
        got = by_key.get(("probe_one_minus_alpha", t_last, cfg["eps"][0]))
        if got is None or abs(got - lost) > MASS_TOL:
            fails.append(f"thm2: absorbed mass {got!r}, closed form {lost!r}")
    if claim == "prop2" and b > 0:
        for t in cfg["times"]:
            lost = mass_below("xexp", b * t)
            for e in cfg["eps"]:
                s = by_key.get(("strong_gap", t, e))
                d = by_key.get(("stall_defect", t, e))
                # stall_defect = |strong^2 - lost|, so lost is one of s^2 -+ d
                if s is None or d is None or min(abs(s * s - d - lost), abs(s * s + d - lost)) > MASS_TOL:
                    fails.append(f"prop2: absorbed mass at t={t} eps={e} misses closed form {lost!r}")

    e_rung = ladder[-1]
    for metric, want_v in rung_values(claim, cfg, e_rung, t_last).items():
        got = by_key.get((metric, t_last, e_rung))
        if got is None or abs(got - want_v) > RUNG_TOL:
            fails.append(f"{claim}: {metric} at eps={e_rung} t={t_last} is {got!r}, "
                         f"sine-transform recomputation gives {want_v!r}")
    return fails


def check_asymptotic(values: np.ndarray, closed_form, L: float, eps: float, b: float, t: float) -> list[str]:
    """Two-wave form against its closed form from preset_function.

    Linear interpolation errs by at most h^2/8 sup|phi''| inside the
    grid and 3h^2/8 sup|phi''| on the extrapolated half cells, per
    wave; the tolerance is the sum over both waves.
    """
    N = values.shape[0]
    h = L / N
    x = nodes(L, N)

    def on_grid(y):
        return np.where((y >= 0.0) & (y <= L), closed_form(y), 0.0)

    want = on_grid(x + b * t) - np.exp(1j * b / eps * x) * on_grid(b * t - x)
    err = float(np.max(np.abs(values - want)))
    tol = 0.75 * h * h * XEXP_CURVATURE + 1e-13
    if not err <= tol:
        return [f"asymptotic eps={eps} b={b} t={t}: sup error {err:.3e} above O(h^2) bound {tol:.3e}"]
    return []


def check_spectral(readout: dict, label: str) -> list[str]:
    fails = []
    if not abs(readout["norm"] - 1.0) <= SPECTRAL_NORM_TOL:
        fails.append(f"{label}: |norm-1| = {abs(readout['norm'] - 1.0):.3e}")
    if not readout["boundary"] <= BOUNDARY_REL_TOL * readout["peak"]:
        fails.append(f"{label}: boundary {readout['boundary']:.3e} against peak {readout['peak']:.3e}")
    return fails


def check_both(readout: dict, label: str) -> list[str]:
    fails = []
    if not readout["cross_gap"] <= CROSS_TOL:
        fails.append(f"{label}: kernel-spectral gap {readout['cross_gap']:.3e}")
    if not abs(readout["norm_kernel"] - 1.0) <= KERNEL_NORM_TOL:
        fails.append(f"{label}: kernel |norm-1| = {abs(readout['norm_kernel'] - 1.0):.3e}")
    if not abs(readout["norm_spectral"] - 1.0) <= SPECTRAL_NORM_TOL:
        fails.append(f"{label}: spectral |norm-1| = {abs(readout['norm_spectral'] - 1.0):.3e}")
    return fails


def sine_mode(L: float, N: int, k: int, eps: float, b: float) -> np.ndarray:
    """Gauged sine mode e^(i b x / 2 eps) sqrt(2/L) sin(k pi x / L)."""
    x = nodes(L, N)
    return np.exp(0.5j * b / eps * x) * math.sqrt(2.0 / L) * np.sin(k * math.pi / L * x)


def check_sine_mode(values: np.ndarray, initial: np.ndarray, L: float, k: int,
                    eps: float, b: float, t: float) -> list[str]:
    """The gauged mode is an eigenvector: it picks up the phase
    exp(i (b^2 t / 4 eps - eps t (k pi / L)^2))."""
    phase = b * b * t / (4.0 * eps) - eps * t * (k * math.pi / L) ** 2
    err = _norm(L / values.shape[0], values - np.exp(1j * phase) * initial)
    if not err <= SINE_MODE_TOL:
        return [f"sine mode k={k} eps={eps} b={b} t={t}: error {err:.3e}"]
    return []


def check_limit_entry(name: str, b: float, t: float, out: dict, h: float) -> list[str]:
    """One row of the limit table against closed forms and the
    properties the limit objects must have."""
    label = f"limit {name} b={b} t={t}"
    fails = []
    below = mass_below(name, b * t)
    if not abs(out["alpha"] - (1.0 - below)) <= MASS_TOL:
        fails.append(f"{label}: alpha {out['alpha']!r}, closed form {1.0 - below!r}")
    if not out["completeness_defect"] <= COMPLETENESS_TOL:
        fails.append(f"{label}: completeness defect {out['completeness_defect']:.3e}")
    # alpha is the shift-branch mass, clipped to [0, 1]
    if not abs(out["alpha"] - min(out["p_shift"], 1.0)) <= 1e-12:
        fails.append(f"{label}: p_shift {out['p_shift']!r} differs from alpha {out['alpha']!r}")
    s0 = SUPPORT_START[name]
    front = b * out["destruction_time"]
    if not (s0 - 1e-12 <= front <= s0 + h + 1e-12):
        fails.append(f"{label}: destruction front {front!r} not within h of {s0}")
    if name == "bump12" and b == 1.0 and not abs(out["destruction_time"] - 1.0) <= h:
        fails.append(f"{label}: destruction time {out['destruction_time']!r} not within h of 1")
    # closed bands split the mass at the cut, up to the one cell the cut sits in
    slack = h * PEAK_DENSITY[name] + MASS_TOL
    if not abs(out["wold_upper"] - (1.0 - below)) <= slack:
        fails.append(f"{label}: upper band mass {out['wold_upper']!r}, closed form {1.0 - below!r}")
    if not abs(out["wold_lower"] - below) <= slack:
        fails.append(f"{label}: lower band mass {out['wold_lower']!r}, closed form {below!r}")
    if not out["double_reflection_defect"] <= DOUBLE_REFLECTION_TOL:
        fails.append(f"{label}: W(t)W(t) misses the band projection by {out['double_reflection_defect']:.3e}")
    if not out["composition_defect"] <= COMPOSITION_TOL:
        fails.append(f"{label}: composition defect {out['composition_defect']:.3e}")
    return fails
