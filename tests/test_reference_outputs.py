import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "reference_outputs.py"


def _run(*argv):
    return subprocess.run([sys.executable, str(TOOL), *map(str, argv)],
                          capture_output=True, text=True, timeout=60)


def test_usage_errors_exit_2_and_write_nothing(tmp_path):
    for argv in ((), (tmp_path / "a", tmp_path / "b")):
        run = _run(*argv)
        assert run.returncode == 2
        assert run.stderr == "usage: python3 tools/reference_outputs.py OUT\n"
    # A tree left from an earlier run would mix into the new one.
    (tmp_path / "stale.stdout").write_text("old\n")
    run = _run(tmp_path)
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr == f"error: {tmp_path} must be an empty directory or absent\n"
    assert [p.name for p in tmp_path.iterdir()] == ["stale.stdout"]
    assert not (tmp_path / "a").exists()
