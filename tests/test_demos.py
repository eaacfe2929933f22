"""Every script under demos/, and the README's library quickstart, runs to
completion on small arguments."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lifelong_bandits

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"

ARGS = {
    "federated_votes.py": ["--clients", "3", "--steps", "20"],
    "lifelong_regret.py": ["--tasks", "3", "--steps", "20"],
    "lookup_tables.py": ["--steps", "20"],
    "offline_recovery.py": ["--seeds", "2", "--n", "10"],
}


def test_every_demo_is_covered():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(ARGS)


@pytest.mark.parametrize("name", sorted(ARGS))
def test_demo_runs(name):
    src = str(Path(lifelong_bandits.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH", "")) if p)
    result = subprocess.run(
        [sys.executable, str(DEMOS / name), *ARGS[name]],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout


def test_readme_quickstart_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out
