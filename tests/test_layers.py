"""The per-layer timing script runs end to end with one repeat."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "tools" / "layers.py"


def test_layer_script_one_repeat(tmp_path):
    out = tmp_path / "bench.json"
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, str(LAYERS), "--out", str(out), "--repeats", "1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert time.perf_counter() - start < 10.0
    bench = json.loads(out.read_text())
    assert {"nproc", "python", "numpy", "blas", "blas_threads"} <= set(bench["machine"])
    layers = bench["layers"]
    assert layers["group_lasso.pooled_offline_warm"]["warm"]
    for name in (
        "group_lasso.pooled_learned",
        "group_lasso.pooled_offline",
        "group_lasso.pooled_offline_warm",
    ):
        newton, apg = layers[name]["newton"], layers[name]["apg_only"]
        assert newton["method"] == "newton" and newton["newton_steps"] > 0
        assert apg["method"] == "apg" and apg["newton_steps"] == 0
        assert newton["converged"] and apg["converged"]
        assert newton["apg_iterations"] < apg["apg_iterations"]
        assert apg["us_per_iteration"] > 0 and newton["us_per_iteration"] > 0
        per_call = apg["us_per_iteration"] * apg["apg_iterations"]
        assert per_call == pytest.approx(apg["us_per_call"], rel=1e-3)
    seed = layers["group_lasso.lifelong_seed"]
    assert seed["fits"] == seed["newton_fits"] == 19 and seed["converged"]
    assert len(seed["rows_per_task"]) == 20 and seed["rows_per_task"][-1] < 10
    assert seed["newton_steps"] > 0 and seed["newton_attempts"] >= seed["fits"]
    assert layers["group_lasso.client_fit"]["method"] == "path"
    clients = layers["federated.client_fits"]
    assert (clients["clients"], clients["rows"], clients["path_fits"]) == (20, 10, 20)
    design = layers["selection.design"]
    learned, offline = design["learned_20th_task"], design["offline_seed_setup"]
    assert (learned["tasks"], offline["m_values"], offline["n"]) == (20, 30, 10)
    assert learned["append_us"] > 0 and offline["sweep_us"] > 0
    assert [layers[k]["d"] for k in ("gp_ucb.step_d5", "gp_ucb.step_d50")] == [5, 50]
    lockstep = [layers[k] for k in ("gp_ucb.lockstep_d5", "gp_ucb.lockstep_d50")]
    assert [(g["d"], g["tasks"]) for g in lockstep] == [(5, 20), (50, 20)]
    mixed = layers["gp_ucb.lockstep_mixed"]
    assert mixed["tasks"] == 20 and mixed["kernels"] > 1 and 5 <= mixed["d"] <= 50
    assert all(g["us_per_task_step"] > 0 for g in lockstep + [mixed])
    assert layers["trace"]["steps"] == 2000
    assert all(layers["trace"][k] > 0 for k in ("write_us", "parse_us", "summarize_us"))
    # every time carries its quartiles beside its median
    times = dict(timed_entries(layers))
    assert len(times) == 27
    for key, (p25, median, p75) in times.items():
        assert 0 < p25 <= median <= p75, key


def timed_entries(tree, path=""):
    """(path, (p25, median, p75)) for every time in the layer tree."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from timed_entries(value, f"{path}{key}.")
        elif f"{key}_p25" in tree:
            yield path + key, (tree[f"{key}_p25"], value, tree[f"{key}_p75"])
