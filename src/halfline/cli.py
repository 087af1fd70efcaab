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
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ResolutionWarning, ValidationError
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


# option -> (reader, the commands that take it, default, help), in --help
# order.  A None reader keeps the value as given: engine and claim are
# checked where they are used.  A False default makes a flag with no value.
_ALL = ("evolve", "limit", "sweep")
_OPTIONS = {
    "preset": (_text, _ALL, None, f"initial profile, one of {PRESET_NAMES}"),
    "L": (_number, _ALL, REFERENCE_L, "interval length"),
    "N": (_integer, _ALL, REFERENCE_N, "cell count, power of two"),
    "b": (_number, _ALL, None, "drift coefficient"),
    "config": (None, _ALL, None, "flat JSON file with option values"),
    "epsilon": (_number, ("evolve",), None, "viscosity"),
    "t": (_number, ("evolve", "limit"), None, "evolution time"),
    "engine": (None, ("evolve",), "spectral", f"which route, one of {ENGINES}"),
    "out": (_text, ("evolve",), None, "write the final wave to this CSV path"),
    "json": (None, ("evolve", "limit"), False, "print JSON instead of key=value"),
    "claim": (None, ("sweep",), None, f"which statement to exercise, one of {CLAIMS}"),
    "times": (_parse_floats, ("sweep",), None, "comma list of times, e.g. 0.5,1,2"),
    "eps": (_parse_floats, ("sweep",), None, "strictly decreasing comma list of viscosities"),
    "out_dir": (_text, ("sweep",), ".", "directory for CSV/JSON reports"),
    "g": (_text, ("sweep",), None, f"test vector preset for weak sweeps (default {WEAK_G})"),
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
        raise ValidationError(f"config {path} has unknown keys for {command}: {', '.join(unknown)}")
    return raw


def _resolve(args: argparse.Namespace) -> dict:
    """Merge flag values over config file values, check required ones, read
    each given value through its reader and give every other its default.

    A config file may set any option of the command except --config and
    --json.  A null there, like an absent flag, leaves the option not given.
    """
    keys = [k for k, o in _OPTIONS.items() if args.command in o[1] and k not in ("config", "json")]
    given = {} if args.config is None else _load_config(args.config, args.command, keys)
    given.update((k, getattr(args, k)) for k in keys if getattr(args, k) is not None)
    for key in _COMMANDS[args.command][2].split():
        if given.get(key) is None:
            raise ValidationError(f"missing required option --{key.replace('_', '-')}")
    opt = {}
    for key in keys:
        reader, _, default, _ = _OPTIONS[key]
        val = given.get(key)
        opt[key] = default if val is None else reader(key.replace("_", "-"), val) if reader else val
    args.N = opt["N"]  # main names args.N if the grid does not fit
    return opt


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
    opt = _resolve(args)
    engine = opt["engine"]
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
        u = {"spectral": spectral_evolve, "kernel": kernel_evolve,
             "asymptotic": asymptotic_evolve}[engine](phi, p)
        pairs += [
            ("norm", norm(u)), ("boundary", abs(boundary_value(u))),
            ("peak", float(np.max(np.abs(u.values)))),
        ]
    if opt["out"] is not None:
        with _writing(opt["out"]):
            _dump_wave(u, opt["out"])
        pairs.append(("out", opt["out"]))
    _print_result(pairs, args.json)
    return 0


def cmd_limit(args: argparse.Namespace) -> int:
    opt = _resolve(args)
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
    opt = _resolve(args)
    cfg = SweepConfig(
        preset=opt["preset"], L=opt["L"], N=opt["N"], b=opt["b"],
        times=opt["times"], eps=opt["eps"],
    )
    claim = opt["claim"]
    records, checks = run_claim(claim, cfg, g_name=opt["g"])
    out_dir = Path(opt["out_dir"])
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


# command -> (run, help, required options)
_COMMANDS = {
    "evolve": (cmd_evolve, "run one evolution and report its invariants", "preset epsilon b t"),
    "limit": (cmd_limit, "limit objects at one time: branches, state, stopping", "preset b t"),
    "sweep": (cmd_sweep, "run a viscosity ladder for one claim keyword", "claim preset b times eps")
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse's refusals take main's one error: path
        raise ValidationError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="halfline",
                     description="Viscous transport on the half line and its limit dynamics")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, about, _) in _COMMANDS.items():
        sp = sub.add_parser(command, help=about)
        for key, (_, commands, default, text) in _OPTIONS.items():
            if command in commands:
                shown = "" if default is None or default is False else f" (default {default})"
                sp.add_argument(f"--{key.replace('_', '-')}", help=text + shown,
                                action="store_true" if default is False else "store")
    return parser


def _run(argv: list[str] | None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command][0](args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: a grid of N={args.N} cells does not fit in memory", file=sys.stderr)
        return 2
    except Exception as e:  # pragma: no cover
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    """Run one command; print its ResolutionWarnings as warning: lines unless it was refused."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResolutionWarning)
        rc = _run(argv)
    for w in caught:
        if not issubclass(w.category, ResolutionWarning):  # shown as if never recorded
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
        elif rc in (0, 3):
            print(f"warning: {w.message}", file=sys.stderr)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
