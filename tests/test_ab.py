"""The in-process A/B script runs A/A on the working tree, times a layer
into a JSON file, fails when the two trees take different actions, and
rejects bad seeds and config pairs up front."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
AB = ROOT / "tools" / "ab.py"
SWEEP = ROOT / "tools" / "sweep_outputs.py"


def run_ab(parent, kinds="baseline_oracle", *args):
    return subprocess.run(
        [
            sys.executable, str(AB),
            "--parent", str(parent),
            "--kinds", kinds,
            "--seeds", "0",
            *args,
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


def test_one_layer_on_one_seed_writes_its_ratios(tmp_path):
    out = tmp_path / "bench.json"
    result = run_ab(ROOT, "trace.parse", "--out", str(out))
    assert result.returncode == 0, result.stderr
    bench = json.loads(out.read_text())
    machine = {"nproc", "python", "numpy", "scipy", "blas", "blas_threads"}
    assert machine <= set(bench["machine"])
    assert bench["seeds"] == [0] and set(bench["units"]) == {"trace.parse"}
    unit = bench["units"]["trace.parse"]
    assert unit["seeds"] == 1 and unit["parent_ms"] > 0 and unit["change_ms"] > 0
    for key in ("ratio", "aa"):
        assert 0 < unit[f"{key}_p25"] <= unit[key] <= unit[f"{key}_p75"]


@pytest.mark.parametrize(
    "tool, args, message",
    [
        (AB, ["--parent", "HEAD", "--seeds", "5-3"], "reversed range '5-3'"),
        (AB, ["--parent", "HEAD", "--seeds", "0-3,2"], "a seed repeats in '0-3,2'"),
        (AB, ["--parent", "HEAD", "--seeds", ","], "no seeds in ','"),
        (SWEEP, ["--out", "unused", "--set", "lam"], "expected KEY=VALUE, got 'lam'"),
    ],
    ids=["reversed", "repeated", "empty", "pair"],
)
def test_bad_seeds_and_pairs_are_usage_errors(tool, args, message):
    # these used to die with a traceback (IndexError, ValueError) or time
    # a seed twice
    result = subprocess.run(
        [sys.executable, str(tool), *args], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 2
    assert message in result.stderr and "Traceback" not in result.stderr
