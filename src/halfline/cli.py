"""Command line front end: evolve, limit, sweep.

Options come from flags, from a flat JSON config file, or both; flags
win.  Exit codes: 0 success, 2 invalid input, refused configuration or
a grid too large for memory, 3 a sweep ran but its verdict failed,
1 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .evolvers import (
    EvolutionParams,
    asymptotic_evolve,
    kernel_evolve,
    spectral_evolve,
)
from .grid import WaveFunction, boundary_value, make_grid, mass, norm
from .harness import CLAIMS, SweepConfig, emit_report, require_inside, run_claim
from .limit_dynamics import (
    comp_state_evolve,
    destruction_time,
    kraus_apply,
    wold_projectors,
)
from .presets import PRESET_NAMES, REFERENCE_L, REFERENCE_N, get_preset

ENGINES = ("spectral", "kernel", "asymptotic", "both")

_CONFIG_KEYS = {
    "evolve": ("preset", "L", "N", "epsilon", "b", "t", "engine", "out"),
    "limit": ("preset", "L", "N", "b", "t"),
    "sweep": ("claim", "preset", "L", "N", "b", "times", "eps", "out_dir", "g"),
}

_REQUIRED = {
    "evolve": ("preset", "epsilon", "b", "t"),
    "limit": ("preset", "b", "t"),
    "sweep": ("claim", "preset", "b", "times", "eps"),
}


def _number(key: str, val) -> float:
    """Convert one option value, refusing anything that is not a number."""
    if not isinstance(val, bool):
        try:
            return float(val)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValidationError(f"--{key} expects a number, got {val!r}")


def _parse_floats(key: str, val) -> tuple[float, ...]:
    if isinstance(val, str):
        val = [p for p in val.split(",") if p.strip()]
    if isinstance(val, (list, tuple)):
        return tuple(_number(key, v) for v in val)
    raise ValidationError(f"--{key} expects a comma list of numbers, got {val!r}")


def _load_config(path: str, command: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as e:
        raise ValidationError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ValidationError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ValidationError(f"config {path} must be a flat JSON object")
    allowed = set(_CONFIG_KEYS[command])
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ValidationError(
            f"config {path} has unknown keys for {command}: {', '.join(unknown)}"
        )
    return raw


def _resolve(args: argparse.Namespace, command: str) -> dict:
    """Merge flag values over config file values and check required ones."""
    merged: dict = {}
    if args.config is not None:
        merged.update(_load_config(args.config, command))
    for key in _CONFIG_KEYS[command]:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            merged[key] = flag_val
    for key in _REQUIRED[command]:
        if merged.get(key) is None:
            raise ValidationError(f"missing required option --{key.replace('_', '-')}")
    merged.setdefault("L", REFERENCE_L)
    merged.setdefault("N", REFERENCE_N)
    for key in ("L", "N", "b", "epsilon", "t"):
        if merged.get(key) is not None:
            merged[key] = _number(key, merged[key])
    if not merged["N"].is_integer():
        raise ValidationError(f"--N expects an integer, got {merged['N']!r}")
    merged["N"] = int(merged["N"])
    args.N = merged["N"]  # what main names if the grid does not fit in memory
    for key in ("times", "eps"):
        if merged.get(key) is not None:
            merged[key] = _parse_floats(key, merged[key])
    return merged


def _fmt(v: float) -> str:
    return f"{v:.16e}"


def _print_result(pairs: list[tuple[str, object]], as_json: bool) -> None:
    if as_json:
        out = {}
        for k, v in pairs:
            out[k] = float(v) if isinstance(v, (int, float, np.floating)) and not isinstance(v, bool) else v
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        for k, v in pairs:
            if isinstance(v, bool) or not isinstance(v, (int, float, np.floating)):
                print(f"{k}={v}")
            else:
                print(f"{k}={_fmt(float(v))}")


def _dump_wave(u: WaveFunction, path: str) -> None:
    lines = ["x,re,im"]
    for x, v in zip(u.grid.x, u.values):
        lines.append(f"{x:.16e},{v.real:.16e},{v.imag:.16e}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def cmd_evolve(args: argparse.Namespace) -> int:
    opt = _resolve(args, "evolve")
    engine = opt.get("engine") or "spectral"
    if engine not in ENGINES:
        raise ValidationError(f"unknown engine {engine!r}, expected one of {ENGINES}")
    grid = make_grid(opt["L"], opt["N"])
    phi = get_preset(opt["preset"], grid)
    p = EvolutionParams(epsilon=opt["epsilon"], b=opt["b"], t=opt["t"])
    require_inside(phi, p.b, p.t)
    pairs: list[tuple[str, object]] = [
        ("engine", engine), ("preset", opt["preset"]),
        ("L", opt["L"]), ("N", opt["N"]),
        ("epsilon", p.epsilon), ("b", p.b), ("t", p.t),
    ]
    if engine == "both":
        uk = kernel_evolve(phi, p)
        us = spectral_evolve(phi, p)
        gap = norm(WaveFunction(grid, uk.values - us.values))
        pairs += [
            ("norm_kernel", norm(uk)), ("norm_spectral", norm(us)),
            ("cross_gap", gap), ("boundary", abs(boundary_value(us))),
        ]
        u = us
    else:
        run = {"spectral": spectral_evolve, "kernel": kernel_evolve,
               "asymptotic": asymptotic_evolve}[engine]
        u = run(phi, p)
        pairs += [
            ("norm", norm(u)), ("boundary", abs(boundary_value(u))),
            ("peak", float(np.max(np.abs(u.values)))),
        ]
    if opt.get("out"):
        _dump_wave(u, opt["out"])
        pairs.append(("out", str(opt["out"])))
    _print_result(pairs, args.json)
    return 0


def cmd_limit(args: argparse.Namespace) -> int:
    opt = _resolve(args, "limit")
    grid = make_grid(opt["L"], opt["N"])
    phi = get_preset(opt["preset"], grid)
    b, t = opt["b"], opt["t"]
    require_inside(phi, b, t)
    ks = kraus_apply(phi, b, t)
    st = comp_state_evolve(phi, b, t)
    wp = wold_projectors(grid, b, t)
    pairs = [
        ("preset", opt["preset"]), ("L", opt["L"]), ("N", opt["N"]),
        ("b", b), ("t", t),
        ("p_shift", ks.p_shift), ("p_reflect", ks.p_reflect),
        ("completeness_defect", ks.completeness_defect),
        ("alpha", st.alpha), ("singular_weight", st.singular_weight),
        ("destruction_time", destruction_time(phi, b)),
        ("wold_upper", mass(wp.upper(phi))),
        ("wold_lower", mass(wp.lower(phi))),
    ]
    _print_result(pairs, args.json)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    opt = _resolve(args, "sweep")
    cfg = SweepConfig(
        preset=opt["preset"], L=opt["L"], N=opt["N"], b=opt["b"],
        times=opt["times"], eps=opt["eps"],
    )
    claim = opt["claim"]
    records, checks = run_claim(claim, cfg, g_name=opt.get("g") or "bump12")
    out_dir = Path(opt.get("out_dir") or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{claim}.csv"
    json_path = out_dir / f"{claim}.json"
    verdicts = emit_report(records, csv_path, json_path, checks)
    for c in verdicts["checks"]:
        print(f"check {c['name']}: {'pass' if c['pass'] else 'FAIL'}")
    print(f"report={csv_path}")
    print(f"verdicts={json_path}")
    return 0 if verdicts["all_pass"] else 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfline",
        description="Viscous transport on the half line and its limit dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--preset", help=f"initial profile, one of {PRESET_NAMES}")
        sp.add_argument("--L", type=float, help="interval length (default 40)")
        sp.add_argument("--N", type=int, help="cell count, power of two (default 65536)")
        sp.add_argument("--b", type=float, help="drift coefficient")
        sp.add_argument("--config", help="flat JSON file with option values")
        sp.add_argument("--json", action="store_true", help="print JSON instead of key=value")

    pe = sub.add_parser("evolve", help="run one evolution and report its invariants")
    common(pe)
    pe.add_argument("--epsilon", type=float, help="viscosity")
    pe.add_argument("--t", type=float, help="evolution time")
    pe.add_argument("--engine", choices=ENGINES, help="which route (default spectral)")
    pe.add_argument("--out", help="write the final wave to this CSV path")
    pe.set_defaults(func=cmd_evolve)

    pl = sub.add_parser("limit", help="limit objects at one time: branches, state, stopping")
    common(pl)
    pl.add_argument("--t", type=float, help="evolution time")
    pl.set_defaults(func=cmd_limit)

    ps = sub.add_parser("sweep", help="run a viscosity ladder for one claim keyword")
    common(ps)
    ps.add_argument("--claim", choices=CLAIMS, help="which statement to exercise")
    ps.add_argument("--times", help="comma list of times, e.g. 0.5,1,2")
    ps.add_argument("--eps", help="strictly decreasing comma list of viscosities")
    ps.add_argument("--out-dir", dest="out_dir", help="directory for CSV/JSON reports")
    ps.add_argument("--g", help="test vector preset for weak sweeps (default bump12)")
    ps.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: a grid of N={args.N} cells does not fit in memory", file=sys.stderr)
        return 2
    except Exception as e:  # pragma: no cover
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
