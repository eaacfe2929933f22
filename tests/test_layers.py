"""The per-layer timing script runs end to end with one repeat."""

import json
import subprocess
import sys
import time
from pathlib import Path

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
    for name in ("group_lasso.pooled_learned", "group_lasso.pooled_offline"):
        newton, apg = layers[name]["newton"], layers[name]["apg_only"]
        assert newton["method"] == "newton" and newton["newton_steps"] > 0
        assert apg["method"] == "apg" and apg["newton_steps"] == 0
        assert newton["converged"] and apg["converged"]
        assert newton["apg_iterations"] < apg["apg_iterations"]
    assert layers["group_lasso.client_fit"]["method"] == "path"
    design = layers["selection.design"]
    learned, offline = design["learned_20th_task"], design["offline_seed_setup"]
    assert (learned["tasks"], offline["m_values"], offline["n"]) == (20, 30, 10)
    assert learned["fresh_us"] > 0 and learned["append_us"] > 0
    assert offline["per_m_us"] > 0 and offline["sweep_us"] > 0
    assert [layers[k]["d"] for k in ("gp_ucb.step_d5", "gp_ucb.step_d50")] == [5, 50]
    assert layers["trace"]["steps"] == 2000
    assert all(layers["trace"][k] > 0 for k in ("write_us", "parse_us", "summarize_us"))
