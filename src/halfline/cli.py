"""Command line front end: evolve, limit, sweep.

Options come from flags, from a flat JSON config file, or both; flags
win.  Exit codes: 0 success, 2 invalid input (an output path that
cannot be written included), refused configuration or a grid too large
for memory, 3 a sweep ran but its verdict failed, 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .evolvers import (
    EvolutionParams,
    asymptotic_evolve,
    kernel_evolve,
    spectral_evolve,
)
from .grid import WaveFunction, _adopt, boundary_value, make_grid, mass, norm
from .harness import CLAIMS, WEAK_G, SweepConfig, emit_report, require_inside, run_claim
from .limit_dynamics import destruction_time, kraus_apply, wold_projectors
from .presets import PRESET_NAMES, REFERENCE_L, REFERENCE_N, get_preset

ENGINES = ("spectral", "kernel", "asymptotic", "both")

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


def _integer(key: str, val) -> int:
    """Convert one option value to an integer, exact for an int or digits."""
    n = _number(key, val)
    if not n.is_integer():
        raise ValidationError(f"--{key} expects an integer, got {val!r}")
    try:
        return int(val)  # exact above 2^53
    except ValueError:  # a float string, "1024.0" or "1e3"
        return int(n)


def _parse_floats(key: str, val) -> tuple[float, ...]:
    if isinstance(val, str):
        val = [p for p in val.split(",") if p.strip()]
    if isinstance(val, (list, tuple)):
        return tuple(_number(key, v) for v in val)
    raise ValidationError(f"--{key} expects a comma list of numbers, got {val!r}")


def _text(key: str, val) -> str:
    if isinstance(val, str) and val:
        return val
    raise ValidationError(f"--{key} expects a non-empty string, got {val!r}")


_READERS = {
    "L": _number, "b": _number, "epsilon": _number, "t": _number,
    "N": _integer, "times": _parse_floats, "eps": _parse_floats,
    "preset": _text, "g": _text, "out": _text, "out_dir": _text,
}


def _load_config(path: str, command: str, allowed) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as e:
        raise ValidationError(f"cannot read config {path}: {e}") from e
    except (ValueError, RecursionError) as e:  # bad JSON or UTF-8, too deep, an int too long
        raise ValidationError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ValidationError(f"config {path} must be a flat JSON object")
    unknown = sorted(set(raw).difference(allowed))
    if unknown:
        raise ValidationError(
            f"config {path} has unknown keys for {command}: {', '.join(unknown)}"
        )
    return raw


def _resolve(args: argparse.Namespace, command: str) -> dict:
    """Merge flag values over config file values, check required ones and
    read each value through its reader; engine and claim are checked where used.

    A config file may set any option of the command's parser, the
    parser's own dests, except --config itself and --json.
    """
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "func", "config", "json")}
    merged = {} if args.config is None else _load_config(args.config, command, flags)
    merged.update((k, v) for k, v in flags.items() if v is not None)
    for key in _REQUIRED[command]:
        if merged.get(key) is None:
            raise ValidationError(f"missing required option --{key.replace('_', '-')}")
    merged = {"L": REFERENCE_L, "N": REFERENCE_N, **merged}
    for key, val in merged.items():
        if key in _READERS and val is not None:
            merged[key] = _READERS[key](key.replace("_", "-"), val)
    args.N = merged["N"]  # main names args.N if the grid does not fit
    return merged


def _print_result(pairs: list[tuple[str, object]], as_json: bool) -> None:
    """Print reals in a 17-digit format and anything else, N included, as is."""
    if as_json:
        print(json.dumps(dict(pairs), indent=2, sort_keys=True))
    else:
        for k, v in pairs:
            print(f"{k}={v:.16e}" if isinstance(v, float) else f"{k}={v}")


@contextmanager
def _writing(path):
    """Refuse, as invalid input, an output path that cannot be written."""
    try:
        yield
    except OSError as e:
        raise ValidationError(f"cannot write {e.filename or path}: {e.strerror or e}") from e


def _dump_wave(u: WaveFunction, path: str) -> None:
    lines = ["x,re,im"]
    for x, v in zip(u.grid.x, u.values):
        lines.append(f"{x:.16e},{v.real:.16e},{v.imag:.16e}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def cmd_evolve(args: argparse.Namespace) -> int:
    opt = _resolve(args, "evolve")
    engine = "spectral" if opt.get("engine") is None else opt["engine"]
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
        gap = norm(_adopt(grid, uk.values - us.values))
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
    if opt.get("out") is not None:
        with _writing(opt["out"]):
            _dump_wave(u, opt["out"])
        pairs.append(("out", opt["out"]))
    _print_result(pairs, args.json)
    return 0


def cmd_limit(args: argparse.Namespace) -> int:
    opt = _resolve(args, "limit")
    grid = make_grid(opt["L"], opt["N"])
    phi = get_preset(opt["preset"], grid)
    b, t = opt["b"], opt["t"]
    require_inside(phi, b, t)
    st = kraus_apply(phi, b, t)
    wp = wold_projectors(grid, b, t)
    pairs = [
        ("preset", opt["preset"]), ("L", opt["L"]), ("N", opt["N"]),
        ("b", b), ("t", t),
        ("p_shift", st.p_shift), ("p_reflect", st.p_reflect),
        ("completeness_defect", st.completeness_defect),
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
    records, checks = run_claim(claim, cfg, g_name=opt.get("g"))
    out_dir = Path("." if opt.get("out_dir") is None else opt["out_dir"])
    csv_path = out_dir / f"{claim}.csv"
    json_path = out_dir / f"{claim}.json"
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
        verdicts = emit_report(records, csv_path, json_path, checks)
    for c in verdicts["checks"]:
        print(f"check {c['name']}: {'pass' if c['pass'] else 'FAIL'}")
    print(f"report={csv_path}")
    print(f"verdicts={json_path}")
    return 0 if verdicts["all_pass"] else 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse's refusals take main's one error: path
        raise ValidationError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="halfline",
        description="Viscous transport on the half line and its limit dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--preset", help=f"initial profile, one of {PRESET_NAMES}")
        sp.add_argument("--L", help="interval length (default 40)")
        sp.add_argument("--N", help="cell count, power of two (default 65536)")
        sp.add_argument("--b", help="drift coefficient")
        sp.add_argument("--config", help="flat JSON file with option values")

    pe = sub.add_parser("evolve", help="run one evolution and report its invariants")
    common(pe)
    pe.add_argument("--epsilon", help="viscosity")
    pe.add_argument("--t", help="evolution time")
    pe.add_argument("--engine", help=f"which route, one of {ENGINES} (default spectral)")
    pe.add_argument("--out", help="write the final wave to this CSV path")
    pe.set_defaults(func=cmd_evolve)

    pl = sub.add_parser("limit", help="limit objects at one time: branches, state, stopping")
    common(pl)
    pl.add_argument("--t", help="evolution time")
    pl.set_defaults(func=cmd_limit)
    for sp in (pe, pl):
        sp.add_argument("--json", action="store_true", help="print JSON instead of key=value")

    ps = sub.add_parser("sweep", help="run a viscosity ladder for one claim keyword")
    common(ps)
    ps.add_argument("--claim", help=f"which statement to exercise, one of {CLAIMS}")
    ps.add_argument("--times", help="comma list of times, e.g. 0.5,1,2")
    ps.add_argument("--eps", help="strictly decreasing comma list of viscosities")
    ps.add_argument("--out-dir", dest="out_dir", help="directory for CSV/JSON reports")
    ps.add_argument("--g", help=f"test vector preset for weak sweeps (default {WEAK_G})")
    ps.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
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
