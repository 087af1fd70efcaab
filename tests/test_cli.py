import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import halfline.cli as cli
from halfline.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _cli_process(argv, cwd=None, **env):
    """Run the CLI in a child interpreter on this checkout's sources."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-m", "halfline.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)


def parse_kv(out):
    pairs = {}
    for line in out.splitlines():
        key, _, val = line.partition("=")
        try:
            pairs[key] = float(val)
        except ValueError:
            pairs[key] = val
    return pairs


SMALL = ("--L", "10", "--N", "1024")


def test_evolve_spectral(capsys):
    rc, out, err = run_cli(
        capsys, "evolve", "--preset", "xexp", *SMALL,
        "--epsilon", "0.3", "--b", "1", "--t", "0.5",
    )
    assert rc == 0 and err == ""
    kv = parse_kv(out)
    assert kv["engine"] == "spectral"
    assert kv["norm"] == pytest.approx(1.0, abs=1e-10)
    assert kv["boundary"] < 1e-3


def test_evolve_both_routes_agree(capsys):
    rc, out, _ = run_cli(
        capsys, "evolve", "--preset", "xexp", *SMALL,
        "--epsilon", "0.3", "--b", "1", "--t", "0.5", "--engine", "both",
    )
    assert rc == 0
    kv = parse_kv(out)
    assert kv["cross_gap"] == pytest.approx(4.7364352171127731e-04, rel=1e-9)
    assert kv["norm_kernel"] == pytest.approx(1.0, abs=1e-5)
    assert kv["norm_spectral"] == pytest.approx(1.0, abs=1e-10)


def test_evolve_out_file_deterministic(capsys, tmp_path):
    dumps = []
    for tag in ("a", "b"):
        path = tmp_path / f"{tag}.csv"
        rc, out, _ = run_cli(
            capsys, "evolve", "--preset", "xexp", *SMALL,
            "--epsilon", "0.3", "--b", "1", "--t", "0.5", "--out", str(path),
        )
        assert rc == 0
        assert parse_kv(out)["out"] == str(path)
        dumps.append(path.read_bytes())
    assert dumps[0] == dumps[1]
    header, first = dumps[0].decode("ascii").splitlines()[:2]
    assert header == "x,re,im"
    assert len(first.split(",")) == 3


def test_evolve_json_output(capsys):
    rc, out, _ = run_cli(
        capsys, "evolve", "--preset", "xexp", *SMALL,
        "--epsilon", "0.3", "--b", "1", "--t", "0.5", "--json",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["preset"] == "xexp"
    assert doc["norm"] == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize(
    "argv",
    [
        ("evolve", "--preset", "nosuch", "--epsilon", "0.3", "--b", "1", "--t", "0.5"),
        ("evolve", "--preset", "xexp", "--epsilon", "1e-6", "--b", "1", "--t", "0.5"),
        ("evolve", "--preset", "xexp", "--b", "1", "--t", "0.5"),
        ("evolve", "--preset", "xexp", "--epsilon", "0.3", "--b", "0", "--t", "0.5"),
        ("limit", "--preset", "bump12", "--b", "-1", "--t", "1.0"),
        ("sweep", "--claim", "thm1", "--preset", "xexp", "--b", "1",
         "--times", "0.5,x", "--eps", "0.3"),
        ("evolve", "--config", {"L": "abc", "N": 1024},
         "--preset", "xexp", "--epsilon", "0.3", "--b", "1", "--t", "0.5"),
        ("evolve", "--config", {"N": 4096.7},
         "--preset", "xexp", "--epsilon", "0.3", "--b", "1", "--t", "0.5"),
        # transport that reaches the far wall, or carries mass across it
        ("evolve", "--preset", "xexp", "--epsilon", "0.3", "--b", "-1", "--t", "12"),
        ("evolve", "--preset", "xexp", "--epsilon", "0.3", "--b", "-1", "--t", "9.5"),
        ("limit", "--preset", "xexp", "--b", "1", "--t", "9.5"),
        # a config value of the wrong JSON type, read as a flag would be
        ("limit", "--config", {"preset": 5, "N": 1024}, "--b", "1", "--t", "1"),
        ("evolve", "--config", {"preset": ["xexp"], "N": 1024},
         "--epsilon", "0.3", "--b", "1", "--t", "0.5"),
        ("evolve", "--config", {"out": 5, "N": 1024},
         "--preset", "xexp", "--epsilon", "0.3", "--b", "1", "--t", "0.5"),
        ("sweep", "--config", {"claim": ["thm1"], "N": 1024},
         "--preset", "xexp", "--b", "1", "--times", "0.5", "--eps", "0.3"),
        ("sweep", "--config", {"out_dir": 5, "N": 1024},
         "--claim", "thm1", "--preset", "xexp", "--b", "1", "--times", "0.5", "--eps", "0.3"),
        ("sweep", "--config", {"g": 7, "N": 1024},
         "--claim", "weak", "--preset", "xexp", "--b", "1", "--times", "0.5", "--eps", "0.3"),
        # an empty string is refused, not read as an absent option
        ("evolve", "--preset", "xexp", "--epsilon", "0.3", "--b", "1", "--t", "0.5",
         "--out", ""),
        ("evolve", "--config", {"out": "", "L": 10, "N": 1024},
         "--preset", "xexp", "--epsilon", "0.3", "--b", "1", "--t", "0.5"),
        ("sweep", "--claim", "weak", "--preset", "xexp", "--b", "1", "--times", "0.5",
         "--eps", "0.3", "--g", ""),
        ("sweep", "--config", {"g": "", "L": 10, "N": 1024},
         "--claim", "weak", "--preset", "xexp", "--b", "1", "--times", "0.5", "--eps", "0.3"),
        ("sweep", "--claim", "thm1", "--preset", "xexp", "--b", "1", "--times", "0.5",
         "--eps", "0.3", "--out-dir", ""),
        ("sweep", "--config", {"out_dir": "", "L": 10, "N": 1024},
         "--claim", "thm1", "--preset", "xexp", "--b", "1", "--times", "0.5", "--eps", "0.3"),
        # a sine mode number is ASCII digits with nothing after them
        ("limit", "--preset", "sine-mode-\u0661", "--b", "1e-9", "--t", "1e-9"),
        ("limit", "--preset", "sine-mode-1\n", "--b", "1e-9", "--t", "1e-9"),
        # a list option with no number in it
        ("sweep", "--claim", "thm1", "--preset", "xexp", "--b", "1", "--times", "0.5",
         "--eps", ","),
    ],
)
def test_invalid_input_exits_2(capsys, tmp_path, argv):
    if "--config" in argv:
        # The bad value sits in the config file; grid flags would override it.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(argv[2]))
        argv = (*argv[:2], str(cfg), *argv[3:])
    else:
        argv = (*argv, *SMALL)
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == ""
    [line] = err.splitlines()
    assert line.startswith("error:")


def test_evolve_at_t0_keeps_the_rung_gate(capsys):
    rc, out, err = run_cli(capsys, "evolve", "--preset", "xexp", "--epsilon", "1e-9",
                           "--b", "1", "--t", "0", "--N", "1024")
    assert rc == 2
    assert err.startswith("error:") and "points per wavelength" in err


@pytest.mark.parametrize("command", [("evolve", "--epsilon", "0.1"), ("limit",)])
@pytest.mark.parametrize("from_config", [False, True], ids=["flag", "config"])
def test_grid_beyond_memory_exits_2(capsys, monkeypatch, tmp_path, command, from_config):
    # Refused by a stand-in for the allocation: no test allocates the grid.
    def no_memory(L, N):
        raise MemoryError

    monkeypatch.setattr(cli, "make_grid", no_memory)
    n = 2 ** 40
    if from_config:
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"N": n}))
        grid = ("--config", str(cfg))
    else:
        grid = ("--N", str(n))
    rc, out, err = run_cli(capsys, *command, "--preset", "xexp", "--b", "1", "--t", "1", *grid)
    assert rc == 2
    assert err.startswith("error:") and f"N={n}" in err


# Above 2^53 a float would round N: the first to an even N, the second to
# 2^53 itself, a power of two.
@pytest.mark.parametrize("n", [12345678901234567, 9007199254740993])
@pytest.mark.parametrize("from_config", [False, True], ids=["flag", "config"])
def test_integer_N_stays_exact(capsys, tmp_path, n, from_config):
    if from_config:
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"N": n}))
        grid = ("--config", str(cfg))
    else:
        grid = ("--N", str(n))
    rc, out, err = run_cli(capsys, "limit", "--preset", "xexp", "--b", "1", "--t", "1", *grid)
    assert rc == 2 and out == ""
    assert err == f"error: N must be a power of two, got {n}\n"


def test_unwritable_output_exits_2(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    runs = (
        (("evolve", "--preset", "xexp", *SMALL, "--epsilon", "0.3", "--b", "1", "--t", "0.5",
          "--out", str(blocker / "wave.csv")), blocker / "wave.csv"),
        (("sweep", "--claim", "thm1", "--preset", "xexp", *SMALL, "--b", "1",
          "--times", "0.5", "--eps", "0.3", "--out-dir", str(blocker / "reports")),
         blocker / "reports"),
        (("sweep", "--claim", "thm1", "--preset", "xexp", *SMALL, "--b", "1",
          "--times", "0.5", "--eps", "0.3", "--out-dir", str(blocker)), blocker),
    )
    for argv, path in runs:
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 2
        assert err.startswith(f"error: cannot write {path}:")
    assert blocker.read_text() == "not a directory\n"


@pytest.mark.parametrize(
    "argv,cause",
    [
        (("evolve", "--preset", "xexp", "--epsilon", "1e308", "--b", "1", "--t", "1",
          "--N", "1024"), "eps*t=1.000e+308"),
        (("evolve", "--preset", "xexp", "--epsilon", "0.1", "--b", "1", "--t", "1",
          "--L", "1e300"), "grid norm 0.000e+00 on L=1e+300, N=65536"),
        (("limit", "--preset", "xexp", "--b", "1", "--t", "1", "--L", "1e300"),
         "grid norm 0.000e+00 on L=1e+300, N=65536"),
        (("evolve", "--preset", "xexp", "--epsilon", "1e200", "--b", "1", "--t", "1",
          "--N", "1024", "--engine", "kernel"), "kernel_evolve at eps*t=1.000e+200"),
        (("evolve", "--preset", "xexp", "--epsilon", "50", "--b", "1", "--t", "1",
          "--N", "1024", "--engine", "both"), "kernel_evolve at eps*t=5.000e+01"),
        # b / eps overflows: refused before the underresolution warning.
        (("evolve", "--preset", "xexp", "--epsilon", "1e-320", "--b", "1", "--t", "1",
          "--engine", "asymptotic"), "k=inf"),
        # b * b overflows in the un-gauge phase, though b t = 1 and b / eps = 1.
        (("evolve", "--preset", "xexp", "--epsilon", "1e300", "--b", "1e300",
          "--t", "1e-300"), "un-gauge phase b^2*t/(4*eps) overflows"),
        # bump12 misses norm 1 by 1.5e-5 on this grid: refused as a preset,
        # before the limit maps ask for a unit vector.
        (("limit", "--preset", "bump12", "--b", "1", "--t", "1.5", "--N", "1024"),
         "preset 'bump12' has grid norm 1.000e+00 on L=40, N=1024"),
        # argparse's own refusals and the choices: no usage block
        (("evolve", "--preset", "xexp", "--epsilon", "0.1", "--b", "1", "--t", "1",
          "--N", "abc"), "--N expects a number, got 'abc'"),
        (("evolve", "--preset", "xexp", "--epsilon", "0.1", "--b", "1", "--t", "1",
          "--N", "1024", "--engine", "warp"), "unknown engine 'warp'"),
        (("sweep", "--claim", "nope", "--preset", "xexp", "--b", "1", "--times", "1",
          "--eps", "0.3", "--N", "1024"), "unknown claim 'nope'"),
        ((), "the following arguments are required: command"),
        (("sweep", "--claim", "thm1", "--preset", "xexp", "--b", "1", "--times", "1",
          "--eps", "0.3", "--N", "1024", "--json"), "unrecognized arguments: --json"),
        # L/N underflows to 0, or k pi / L overflows: refused before any sampling.
        (("limit", "--preset", "sine-mode-1", "--L", "5e-324", "--N", "64", "--b", "1",
          "--t", "0.5"), "cells of width L/N underflow to 0 at L=5e-324, N=64"),
        (("limit", "--preset", "sine-mode-1", "--L", "1e-320", "--N", "64", "--b", "1",
          "--t", "0.5"), "sine mode 1 has wavenumber k*pi/L = inf on L=1e-320"),
        # the first massive node over b overflows
        (("limit", "--preset", "bump23", "--b", "5e-324", "--t", "1e-9", "--N", "4096"),
         "destruction time x/b overflows at x=2.00684, b=5e-324"),
        # a list option with no number in it
        (("sweep", "--claim", "thm1", "--preset", "xexp", "--b", "1", "--times", "1",
          "--eps", ",", "--N", "1024"), "the viscosity ladder must be nonempty"),
        # the claims on limit states refuse an outflow drift where the state is built
        *[(("sweep", "--claim", claim, "--preset", "xexp", "--b", "-1", "--times", "1.5",
            "--eps", "0.3", "--L", "20", "--N", "1024"),
           "error: inflow regime requires b > 0, got -1.0") for claim in ("thm3", "thm5", "thm2")],
    ],
)
def test_refusal_prints_only_its_error_line(argv, cause):
    # In a child process, so that numpy warnings reach stderr as a user sees them.
    run = _cli_process(argv)
    assert run.returncode == 2 and run.stdout == ""
    [line] = run.stderr.splitlines()
    assert line.startswith("error:") and cause in line


def test_argparse_errors_exit_2(capsys):
    for argv in (["evolve", "--engine", "warp"], [], ["limit", "--N"]):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 2 and out == ""
        [line] = err.splitlines()
        assert line.startswith("error:")


@pytest.mark.parametrize("command,choices", [("limit", ()), ("evolve", cli.ENGINES),
                                             ("sweep", cli.CLAIMS)])
def test_help_exits_0_and_names_the_choices(capsys, command, choices):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert exc.value.code == 0
    assert all(repr(c) in out for c in choices)


# Each numeric option reads the same from a flag's string as from a
# config's number or string; N as an integer or an integral float.
PARITY = {
    "evolve": {"preset": "xexp", "L": 10, "b": 1, "epsilon": 0.3, "t": 0.5},
    "sweep": {"claim": "weak", "preset": "xexp", "L": 10, "b": 1,
              "times": [0.5, 1], "eps": [0.3, 0.15]},
}


@pytest.mark.parametrize("command", sorted(PARITY))
def test_options_read_alike_from_flags_and_config(capsys, tmp_path, command):
    def text(v):
        return ",".join(map(str, v)) if isinstance(v, list) else str(v)

    opts = PARITY[command]
    tail = ("--out-dir", str(tmp_path)) if command == "sweep" else ()
    runs = [[x for k, v in opts.items() for x in (f"--{k}", text(v))] + ["--N", n]
            for n in ("1024", "1024.0")]
    for cfg_opts in (opts, {k: text(v) for k, v in opts.items()}):
        for n in ("1024", 1024, 1024.0, "1024.0"):
            cfg = tmp_path / f"c{len(runs)}.json"
            cfg.write_text(json.dumps({**cfg_opts, "N": n}))
            runs.append(["--config", str(cfg)])
    if command == "sweep":
        cfg = tmp_path / "list.json"
        cfg.write_text(json.dumps({**opts, "N": 1024, "times": ["0.5", "1"]}))
        runs.append(["--config", str(cfg)])
    seen = {run_cli(capsys, command, *argv, *tail) for argv in runs}
    [(rc, out, err)] = seen
    assert rc == 0 and err == ""


def test_sweep_takes_no_json_flag(capsys, tmp_path):
    # --json shapes the key=value lines of evolve and limit; a sweep prints
    # check lines and writes its reports, so it refuses the flag.
    rc, out, err = run_cli(
        capsys, "sweep", "--claim", "thm1", "--preset", "xexp", *SMALL, "--b", "1",
        "--times", "0.5", "--eps", "0.3", "--out-dir", str(tmp_path), "--json",
    )
    assert rc == 2 and out == ""
    assert err == "error: unrecognized arguments: --json\n"
    assert list(tmp_path.iterdir()) == []


def test_unknown_config_key_exits_2(capsys, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"preset": "xexp", "viscosity": 0.3}))
    rc, _, err = run_cli(
        capsys, "evolve", "--config", str(cfg),
        "--epsilon", "0.3", "--b", "1", "--t", "0.5",
    )
    assert rc == 2
    assert "viscosity" in err
    # a config file that is not there, and a value of the wrong JSON type
    missing = tmp_path / "missing.json"
    rc, out, err = run_cli(capsys, "limit", "--config", str(missing),
                           "--preset", "xexp", "--b", "1", "--t", "1")
    assert rc == 2 and out == ""
    assert err.startswith(f"error: cannot read config {missing}:")
    cfg.write_text(json.dumps({"times": 5}))
    rc, out, err = run_cli(capsys, "sweep", "--config", str(cfg), "--claim", "thm1",
                           "--preset", "xexp", "--b", "1", "--eps", "0.3")
    assert rc == 2 and out == ""
    assert err == "error: --times expects a comma list of numbers, got 5\n"


@pytest.mark.parametrize("text", [
    b"{", b"[1, 2]", b'{"N": 1024', b'{"preset": "\xff"}',
    b'{"N": 1' + b"0" * 5000 + b"}", b'{"N": ' + b"[" * 100000 + b"]" * 100000 + b"}",
], ids=["truncated", "list", "unclosed", "utf8", "long-int", "deep"])
def test_malformed_config_file_exits_2(capsys, tmp_path, text):
    cfg = tmp_path / "c.json"
    cfg.write_bytes(text)
    rc, out, err = run_cli(capsys, "limit", "--config", str(cfg),
                           "--preset", "xexp", "--b", "1", "--t", "1")
    assert rc == 2 and out == ""
    [line] = err.splitlines()
    assert line.startswith(f"error: config {cfg}")


def _every_option(command, tmp_path):
    """A config for command that sets every option of its parser."""
    grid = {"preset": "xexp", "L": 10, "N": 1024, "b": 1.0}
    if command == "evolve":
        return {**grid, "epsilon": 0.3, "t": 0.5, "engine": "spectral",
                "out": str(tmp_path / "wave.csv")}
    if command == "limit":
        return {**grid, "t": 1.5}
    return {**grid, "claim": "weak", "times": "0.5", "eps": "0.3,0.15",
            "out_dir": str(tmp_path), "g": "bump12"}


@pytest.mark.parametrize("command", ["evolve", "limit", "sweep"])
def test_config_may_set_every_option(capsys, tmp_path, command):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_every_option(command, tmp_path)))
    rc, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert rc == 0 and err == ""


@pytest.mark.parametrize("command", ["evolve", "limit", "sweep"])
def test_config_refuses_the_json_flag(capsys, tmp_path, command):
    # --json shapes what is printed, not what is run: it is a flag only.
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({**_every_option(command, tmp_path), "json": True}))
    rc, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "unknown keys" in err and "json" in err


@pytest.mark.parametrize("command", [("evolve", "--epsilon", "0.3", "--t", "0.5"),
                                     ("limit", "--t", "1.5")], ids=["evolve", "limit"])
def test_N_prints_as_an_exact_integer(capsys, command):
    argv = (*command, "--preset", "xexp", "--b", "1", *SMALL)
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert "N=1024" in out.splitlines()
    rc, out, _ = run_cli(capsys, *argv, "--json")
    assert rc == 0
    n = json.loads(out)["N"]
    assert n == 1024 and type(n) is int


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(
        {"preset": "xexp", "L": 10, "N": 1024, "epsilon": 0.5, "b": 1.0, "t": 0.25}
    ))
    rc, out, _ = run_cli(capsys, "evolve", "--config", str(cfg), "--epsilon", "0.3")
    assert rc == 0
    kv = parse_kv(out)
    assert kv["epsilon"] == 0.3
    assert kv["t"] == 0.25
    assert kv["N"] == 1024.0


def test_limit_reports_exact_split(capsys):
    rc, out, _ = run_cli(
        capsys, "limit", "--preset", "bump12", "--L", "20", "--N", "4096",
        "--b", "1", "--t", "1.5",
    )
    assert rc == 0
    kv = parse_kv(out)
    assert kv["alpha"] + kv["singular_weight"] == 1.0
    assert kv["p_shift"] + kv["p_reflect"] == pytest.approx(1.0, abs=1e-4)
    assert kv["p_shift"] == pytest.approx(0.5, abs=1e-3)
    assert kv["completeness_defect"] < 1e-4
    assert kv["wold_upper"] + kv["wold_lower"] == pytest.approx(1.0, abs=1e-6)
    assert kv["destruction_time"] == pytest.approx(1.0, abs=20.0 / 4096)


def test_limit_builds_one_state(capsys, monkeypatch):
    # All five limit values come from one state: one shift, one
    # reflection and one check that the preset is a unit vector.
    import halfline.grid as grid
    import halfline.limit_dynamics as limit_dynamics

    blends, units = [], []
    real_blend, real_unit = grid._slice_blend, limit_dynamics.require_unit
    monkeypatch.setattr(grid, "_slice_blend",
                        lambda u, a, step: blends.append((a, step)) or real_blend(u, a, step))
    monkeypatch.setattr(limit_dynamics, "require_unit",
                        lambda u, who: units.append(who) or real_unit(u, who))
    rc, _, _ = run_cli(capsys, "limit", "--preset", "bump12", "--L", "20", "--N", "4096",
                       "--b", "1", "--t", "1.5")
    assert rc == 0
    assert blends == [(1.5, 1), (1.5, -1)]
    assert units == ["kraus_apply"]


def test_sweep_passes_and_writes_reports(capsys, tmp_path):
    rc, out, _ = run_cli(
        capsys, "sweep", "--claim", "thm1", "--preset", "xexp",
        "--L", "20", "--N", "4096", "--b", "1",
        "--times", "0.5,1.0", "--eps", "0.3,0.15,0.075",
        "--out-dir", str(tmp_path),
    )
    assert rc == 0
    assert "check decreasing:sup_remainder: pass" in out
    assert "check halved:sup_remainder: pass" in out
    csv_path = tmp_path / "thm1.csv"
    json_path = tmp_path / "thm1.json"
    assert csv_path.exists() and json_path.exists()
    assert json.loads(json_path.read_text())["all_pass"] is True
    assert csv_path.read_text().count("\n") == 1 + 3 * 3


def test_sweep_failed_verdict_exits_3(capsys, tmp_path):
    rc, out, _ = run_cli(
        capsys, "sweep", "--claim", "thm1", "--preset", "xexp",
        "--L", "20", "--N", "4096", "--b", "1",
        "--times", "0.5,1.0", "--eps", "0.3,0.15",
        "--out-dir", str(tmp_path),
    )
    assert rc == 3
    assert "check halved:sup_remainder: FAIL" in out
    # the report is still written for inspection
    assert (tmp_path / "thm1.csv").exists()
    assert json.loads((tmp_path / "thm1.json").read_text())["all_pass"] is False


def test_sweep_claim_choice_is_validated(capsys, tmp_path):
    # An unknown claim is refused first, whether or not a test vector is
    # named beside it, so the error blames the claim and not --g.
    argv = ["sweep", "--claim", "thm9", "--preset", "xexp", "--b", "1",
            "--times", "1.0", "--eps", "0.3", "--out-dir", str(tmp_path)]
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"g": "bump12"}))
    for extra in ((), ("--g", "bump12"), ("--config", str(cfg))):
        rc, out, err = run_cli(capsys, *argv, *extra)
        assert rc == 2 and out == "", extra
        [line] = err.splitlines()
        assert line.startswith("error: unknown claim 'thm9'"), extra


@pytest.mark.parametrize("from_config", [False, True], ids=["flag", "config"])
def test_sweep_g_outside_weak_exits_2(capsys, tmp_path, from_config):
    # --g names the weak sweep's test vector; any other claim refuses it
    # rather than run without it.
    argv = ["sweep", "--claim", "thm1", "--preset", "xexp", *SMALL, "--b", "1",
            "--times", "0.5", "--eps", "0.3", "--out-dir", str(tmp_path)]
    if from_config:
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"g": "nosuch"}))
        argv += ["--config", str(cfg)]
    else:
        argv += ["--g", "nosuch"]
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == ""
    [line] = err.splitlines()
    assert line.startswith("error: --g") and "'thm1'" in line
    assert not (tmp_path / "thm1.csv").exists()


# N = 16384 is the smallest grid on which OpenBLAS (0.3.31) split a dot
# product over its threads; below it a BLAS-backed reduction passes too.
THREAD_RUNS = (
    ("sweep", "--claim", "thm1", "--preset", "xexp", "--N", "16384", "--b", "1",
     "--times", "0.5,1,2", "--eps", "0.2,0.1,0.05,0.025", "--out-dir", "."),
    ("sweep", "--claim", "prop2", "--preset", "xexp", "--N", "16384", "--b", "1",
     "--times", "0.25,0.5,1", "--eps", "0.1,0.05,0.025,0.0125,0.00625", "--out-dir", "."),
    ("evolve", "--preset", "xexp", "--N", "16384", "--epsilon", "0.2", "--b", "1",
     "--t", "1", "--engine", "both", "--out", "wave.csv"),
)


def _run_at_threads(tmp_path, threads):
    """stdout of each THREAD_RUNS command and the bytes of every file they
    wrote, all at one BLAS thread count."""
    d = tmp_path / f"threads{threads}"
    d.mkdir()
    env = {"OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads)}
    stdout = []
    for argv in THREAD_RUNS:
        out = _cli_process(argv, cwd=d, **env)
        assert out.returncode == 0, out.stderr
        stdout.append(out.stdout)
    return stdout, {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def test_reports_byte_stable_across_blas_threads(tmp_path):
    (out1, files1), (out2, files2) = _run_at_threads(tmp_path, 1), _run_at_threads(tmp_path, 2)
    assert sorted(files1) == ["prop2.csv", "prop2.json", "thm1.csv", "thm1.json", "wave.csv"]
    differ = [argv[0:3] for argv, a, b in zip(THREAD_RUNS, out1, out2) if a != b]
    differ += [name for name in files1 if files1[name] != files2.get(name)]
    assert differ == []


# The refusal contract as a property: argument lists drawn from values a
# grid can carry and from edge values, always on a grid of at most 4096
# cells, so that no draw reaches the MemoryError path.
_EDGE = ("nan", "inf", "-inf", "-0", "5e-324", "1e300")


def _numbers(*plain):
    return st.sampled_from(plain * 4 + _EDGE)


def _ladder(*plain, reverse=False):
    """Comma lists, mostly in the order a sweep accepts."""
    return st.lists(_numbers(*plain), min_size=1, max_size=3, unique=True).map(
        lambda v: ",".join(sorted(v, key=float, reverse=reverse)))


_PRESETS = st.sampled_from(("xexp", "bump12", "bump23", "sine-mode-1") * 3
                           + ("sine-mode-40", "sine-mode-x", "spline"))
_OPTIONS = {
    "--N": _numbers("8", "64", "1024", "4096", "1000"),
    "--preset": _PRESETS,
    "--L": _numbers("10", "20", "40"),
    "--b": _numbers("1", "-1", "0.5", "2"),
    "--epsilon": _numbers("0.3", "0.1", "1e-5"),
    "--t": _numbers("0", "0.5", "1.5", "3"),
    "--engine": st.sampled_from(cli.ENGINES * 3 + ("warp",)),
    "--out": st.just("wave.csv"),
    "--claim": st.sampled_from(cli.CLAIMS * 3 + ("thm9",)),
    "--times": _ladder("0.5", "1", "1.5"),
    "--eps": _ladder("0.3", "0.15", "0.1", reverse=True),
    "--out-dir": st.just("reports"),
}
_COMMANDS = {
    "evolve": ("--N", "--preset", "--L", "--b", "--epsilon", "--t", "--engine", "--out"),
    "limit": ("--N", "--preset", "--L", "--b", "--t"),
    "sweep": ("--N", "--preset", "--L", "--b", "--claim", "--times", "--eps", "--out-dir"),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [command]
    for opt in _COMMANDS[command]:
        # --N always, so that no default reference grid is built; any
        # other option now and then left out
        if opt == "--N" or draw(st.sampled_from((True,) * 15 + (False,))):
            argv.append(f"{opt}={draw(_OPTIONS[opt])}")
    if command == "sweep" and draw(st.sampled_from((False,) * 3 + (True,))):
        argv.append(f"--g={draw(_PRESETS)}")
    if command != "sweep" and draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
def test_any_argument_list_exits_0_2_or_3(monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2, 3), err.getvalue()
    if rc == 2:
        [line] = err.getvalue().splitlines()
        assert line.startswith("error:")
