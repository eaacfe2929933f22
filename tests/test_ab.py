"""The in-process A/B script runs A/A on the working tree, and fails when
the two trees take different actions."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
AB = ROOT / "tools" / "ab.py"


def run_ab(parent):
    return subprocess.run(
        [
            sys.executable, str(AB),
            "--parent", str(parent),
            "--kinds", "baseline_oracle",
            "--seeds", "0",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_a_a_on_one_seed_of_one_kind():
    result = run_ab(ROOT)
    assert result.returncode == 0, result.stderr
    header, row = result.stdout.splitlines()
    assert header.split() == ["kind", "seeds", "parent", "ms", "change", "ms", "ratio", "A/A"]
    kind, seeds, *numbers = row.split()
    assert (kind, seeds) == ("baseline_oracle", "1")
    assert all(float(x) > 0 for x in numbers)


def test_a_parent_that_takes_other_actions_fails(tmp_path):
    package = tmp_path / "src" / "lifelong_bandits"
    source = ROOT / "src" / "lifelong_bandits"
    shutil.copytree(source, package, ignore=shutil.ignore_patterns("__pycache__"))
    # a 499-point grid: the same seed's actions are other grid indices
    environment = package / "environment.py"
    text = environment.read_text(encoding="utf-8")
    environment.write_text(text.replace("_1D = 500", "_1D = 499"), encoding="utf-8")
    result = run_ab(tmp_path)
    assert result.returncode == 1
    assert "baseline_oracle: outcomes differ at seeds [0]" in result.stderr
