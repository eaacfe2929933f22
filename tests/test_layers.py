"""The per-layer timing script runs end to end with one repeat, and its
``apg_only`` baselines never see the Newton hand-off."""

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from lifelong_bandits import group_lasso

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
        # a time per iteration only where every iteration is an APG one
        assert apg["us_per_iteration"] > 0 and "us_per_iteration" not in newton
        per_call = apg["us_per_iteration"] * apg["apg_iterations"]
        assert per_call == pytest.approx(apg["us_per_call"], rel=1e-3)
    seed = layers["group_lasso.lifelong_seed"]
    assert seed["fits"] == seed["newton_fits"] == 19 and seed["converged"]
    assert len(seed["rows_per_task"]) == 20 and seed["rows_per_task"][-1] < 10
    assert seed["newton_steps"] > 0 and seed["newton_attempts"] >= seed["fits"]
    sweep = layers["group_lasso.offline_seed"]
    assert sweep["fits"] == 29 and sweep["rows_per_task"] == [10] * 30 and sweep["converged"]
    assert 0 < sweep["newton_fits"] <= sweep["newton_attempts"] and sweep["us_per_seed"] > 0
    wide = layers["group_lasso.pooled_p2000"]
    assert (wide["tasks"], wide["rows"], wide["p"]) == (2, 8, 2000)
    assert wide["newton"]["method"] == "newton" and wide["newton"]["converged"]
    assert layers["group_lasso.client_fit"]["method"] == "path"
    clients = layers["federated.client_fits"]
    assert (clients["clients"], clients["rows"], clients["path_fits"]) == (20, 10, 20)
    design = layers["selection.design"]
    learned, offline = design["learned_seed"], design["offline_seed_setup"]
    assert (learned["tasks"], offline["m_values"], offline["n"]) == (20, 30, 10)
    assert learned["build_us"] > 0 and offline["sweep_us"] > 0
    assert [layers[k]["d"] for k in ("gp_ucb.step_d5", "gp_ucb.step_d50")] == [5, 50]
    lockstep = [layers[k] for k in ("gp_ucb.lockstep_d5", "gp_ucb.lockstep_d50")]
    assert [(g["d"], g["tasks"]) for g in lockstep] == [(5, 20), (50, 20)]
    mixed = layers["gp_ucb.lockstep_mixed"]
    assert mixed["tasks"] == 20 and mixed["kernels"] > 1 and 5 <= mixed["d"] <= 50
    assert all(g["us_per_task_step"] > 0 for g in lockstep + [mixed])
    trace = layers["trace"]
    assert trace["steps"] == 2000
    assert all(trace[k] > 0 for k in ("write_us", "parse_us", "summarize_us", "parse_peak_kb"))
    outputs = layers["harness.outputs"]
    assert set(outputs) == {"baseline_oracle", "federated"}
    for kind in outputs.values():
        assert kind["steps"] == 2000 and kind["text_us"] > 0
        # a trace's 68 000 bytes, which the summary shares
        assert kind["held_bytes"] == 68_000
        assert all(0 < count < 2000 for count in kind["distinct"])
    # every time carries its quartiles beside its median
    times = dict(timed_entries(layers))
    assert len(times) == 28
    for key, (p25, median, p75) in times.items():
        assert 0 < p25 <= median <= p75, key


def timed_entries(tree, path=""):
    """(path, (p25, median, p75)) for every time in the layer tree."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from timed_entries(value, f"{path}{key}.")
        elif f"{key}_p25" in tree:
            yield path + key, (tree[f"{key}_p25"], value, tree[f"{key}_p75"])


@pytest.fixture
def layers(monkeypatch):
    """tools/layers.py as a module; the BLAS thread count it would set for a
    fresh process is set here only for the test's duration."""
    if not any(os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    spec = importlib.util.spec_from_file_location("layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "build, prefix_lam",
    [("learned_fit", 0.5 / np.sqrt(19)), ("offline_warm_fit", 0.25)],
    ids=["learned_fit", "offline_warm_fit"],
)
def test_apg_only_warm_start_comes_from_an_apg_only_prefix_fit(
    layers, build, prefix_lam, monkeypatch
):
    design, lam, start = getattr(layers, build)()
    starts = {}
    fit = layers.fit_group_lasso

    def recording(fitted, lam, x0=None):
        if fitted.m == design.m:
            starts.setdefault(group_lasso.HANDOFF_MAP_NORM > 0.0, []).append(x0)
        return fit(fitted, lam, x0=x0)

    monkeypatch.setattr(layers, "fit_group_lasso", recording)
    for handoff in (True, False):
        layers.time_pooled_fit(design, lam, start, 1, handoff=handoff)
    expected = {}
    for handoff in (True, False):
        threshold = group_lasso.HANDOFF_MAP_NORM if handoff else 0.0
        with mock.patch.object(group_lasso, "HANDOFF_MAP_NORM", threshold):
            coeffs, _ = fit(design.prefix(design.m - 1), prefix_lam)
        expected[handoff] = group_lasso.padded_warm_start(coeffs, design, lam)
    # the two prefix fits end at different points, so the starts tell them apart
    assert expected[True].tobytes() != expected[False].tobytes()
    assert set(starts) == {True, False}
    for handoff, x0s in starts.items():
        assert len(x0s) == 3  # the warm-up, the timed run and the reported one
        assert all(x0.tobytes() == expected[handoff].tobytes() for x0 in x0s)
