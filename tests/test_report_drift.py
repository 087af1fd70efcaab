import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_drift.py"


def _drift(old, new):
    return subprocess.run([sys.executable, str(TOOL), str(old), str(new)],
                          capture_output=True, text=True, timeout=60)


def _tree(root, peak, ratio):
    (root / "thm1").mkdir(parents=True)
    (root / "thm1" / "thm1.csv").write_text(
        f"preset,b,t,epsilon,metric,value,ratio\nxexp,1,1,0.2,remainder,0.5,\n"
        f"xexp,1,1,0.1,remainder,0.25,{ratio}\n")
    (root / "thm1" / "thm1.json").write_text('{"all_pass": true, "checks": [{"last": 0.25}]}\n')
    (root / "evolve.txt").write_text(f"engine=spectral\nnorm=1\npeak={peak}\n")
    (root / "thm1.stdout").write_text("check halved:sup_remainder: pass\nreport=thm1/thm1.csv\n")


def test_identical_trees_exit_0(tmp_path):
    _tree(tmp_path / "a", "1.5", "0.5")
    _tree(tmp_path / "b", "1.5", "0.5")
    run = _drift(tmp_path / "a", tmp_path / "b")
    assert run.returncode == 0
    assert run.stdout.splitlines()[-1] == "byte-identical"
    assert all(line.endswith(": identical") for line in run.stdout.splitlines()[:-1])


def test_moved_values_report_their_largest_movement(tmp_path):
    _tree(tmp_path / "a", "1.5", "0.5")
    _tree(tmp_path / "b", "1.5000000000000004", "0.5000000000000001")
    run = _drift(tmp_path / "a", tmp_path / "b")
    assert run.returncode == 1
    lines = dict(line.split(": ", 1) for line in run.stdout.splitlines()[:-1])
    assert lines["evolve.txt"].startswith("max_abs=4.44e-16 at peak; max_rel=2.96e-16 at peak")
    assert lines["thm1/thm1.csv"].startswith("max_abs=1.11e-16 at row 2 ratio")
    assert lines["thm1/thm1.json"] == "identical"


def test_missing_file_and_changed_text_differ(tmp_path):
    _tree(tmp_path / "a", "1.5", "0.5")
    _tree(tmp_path / "b", "1.5", "0.5")
    (tmp_path / "b" / "evolve.txt").write_text("engine=kernel\nnorm=1\npeak=1.5\n")
    (tmp_path / "b" / "thm1" / "thm1.json").unlink()
    run = _drift(tmp_path / "a", tmp_path / "b")
    assert run.returncode == 1
    lines = dict(line.split(": ", 1) for line in run.stdout.splitlines()[:-1])
    assert lines["evolve.txt"] == "differs in text at engine: 'spectral' -> 'kernel'"
    assert lines["thm1/thm1.json"].startswith("only in ")
    assert _drift(tmp_path / "a", tmp_path / "nowhere").returncode == 2
