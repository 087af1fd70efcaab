"""The CI workflow stays in step with the repository.

The workflow cannot run without network, so its steps are checked as
text: the Tier-1 step runs the Tier-1 command, and every script a step
runs with python exists.
"""

import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

_ROOT = Path(__file__).resolve().parents[1]
_WORKFLOW = _ROOT / ".github" / "workflows" / "tier1.yml"
TIER1 = "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors"
# The base commit's checkout, where the drift step runs that commit's own tools.
BASE = "$RUNNER_TEMP/base/"
_SCRIPT = re.compile(r"""\bpython3?\s+"?([^\s"]+\.py)\b""")


def _steps():
    return yaml.safe_load(_WORKFLOW.read_text(encoding="utf-8"))["jobs"]["tier1"]["steps"]


def test_tier1_step_runs_the_tier1_command():
    [step] = [s for s in _steps() if s.get("name") == "Tier-1 tests"]
    assert step["run"].strip() == TIER1


def test_tier1_job_has_a_timeout():
    job = yaml.safe_load(_WORKFLOW.read_text(encoding="utf-8"))["jobs"]["tier1"]
    assert isinstance(job["timeout-minutes"], int) and job["timeout-minutes"] > 0


def test_every_python_script_a_step_runs_exists():
    scripts = [path for s in _steps() for path in _SCRIPT.findall(s.get("run", ""))]
    assert len(scripts) >= 5
    for path in scripts:
        rel = path.removeprefix(BASE)
        assert "$" not in rel, path
        assert (_ROOT / rel).is_file(), path


def test_script_finder():
    run = ('python tools/a.py "$X"\npython "$RUNNER_TEMP/base/tools/b.py" out\n'
           'python3 bench/c.py\npython -m pip install -e ".[test]"\npython -c "import d"\n')
    assert _SCRIPT.findall(run) == ["tools/a.py", "$RUNNER_TEMP/base/tools/b.py", "bench/c.py"]
