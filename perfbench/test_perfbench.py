"""Smoke test of the benchmark and unit tests of its failure counting.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from lifelong_bandits.harness import ExperimentResult, build_config, run_experiment  # noqa: E402

DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in DEFINITION["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DEFINITION["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    if trace and workload == "fixed-kernel":
        assert metrics["group_lasso.fit.calls"] == 0
        assert metrics["cli.main.s"] > 0
    if trace and workload == "offline":
        assert metrics["gp_ucb.select.calls"] == 0


def _result(config, failures, traces=None):
    return ExperimentResult(
        config=config, digest=config.digest(), traces=traces or {}, summary=None,
        recovery=None, curve=None, votes=None, failures=failures,
    )


def test_harness_failures_count_as_failed_seeds(tmp_path):
    config = build_config("lifelong", {"seeds": "0,1,2,", "m": "2", "n": "5"})
    found = checks.check_run(
        _result(config, [(0, "RuntimeError: boom"), (2, "DataError: bad")]), tmp_path, {}
    )
    # seed 1 is not listed as failed, but it wrote no trace
    assert found.attempted == 3
    assert sorted(found.failed) == [0, 1, 2]
    assert found.failed[0] == "harness: RuntimeError: boom"
    assert found.failed[1].startswith("trace:")
    summary = run.summarize_checks([found])
    assert (summary["attempted"], summary["failed"]) == (3, 3)


def test_only_the_failed_seed_counts_when_the_others_check_out(tmp_path):
    written = run_experiment(
        build_config("lifelong", {"seeds": "0,", "m": "2", "n": "5", "out": str(tmp_path)})
    )
    config = build_config("lifelong", {"seeds": "0,1,", "m": "2", "n": "5"})
    found = checks.check_run(_result(config, [(1, "RuntimeError: boom")], written.traces), tmp_path, {})
    assert found.failed == {1: "harness: RuntimeError: boom"}
    assert len(found.final_regrets) == 1


def test_a_broken_trace_fails_its_seed(tmp_path):
    result = run_experiment(
        build_config("lifelong", {"seeds": "0,", "m": "2", "n": "5", "out": str(tmp_path)})
    )
    path = tmp_path / "trace_seed0.csv"
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[3] = repr(float(cells[3]) + 1.0)  # cumulative no longer the prefix sum
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    found = checks.check_run(result, tmp_path, {})
    assert list(found.failed) == [0]
    assert "prefix sum" in found.failed[0]


def test_a_traced_output_that_differs_fails_its_seed(tmp_path):
    pairs = {"seeds": "0,1,", "m": "2", "n": "5"}
    result = run_experiment(build_config("lifelong", dict(pairs, out=str(tmp_path / "a"))))
    run_experiment(build_config("lifelong", dict(pairs, out=str(tmp_path / "b"))))
    check = checks.RunCheck()
    checks.compare_outputs(tmp_path / "a", tmp_path / "b", result.config, check)
    assert check.failed == {}
    with open(tmp_path / "b" / "trace_seed1.csv", "a") as fh:
        fh.write("\n")
    checks.compare_outputs(tmp_path / "a", tmp_path / "b", result.config, check)
    assert list(check.failed) == [1]
