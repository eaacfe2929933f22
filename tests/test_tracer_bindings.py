"""The benchmark's tracer against the package's live bindings.

``perfbench/tracing.py`` replaces package functions at the bindings their
callers use (``harness.run_lifelong``, ``federated.client_fit`` ...), so a
binding that is renamed or dropped breaks the traced benchmark. This test
installs the tracer, runs one tiny experiment of each runner through the
harness (and the baseline through the CLI), calls ``federated.client_fit``
directly, since no runner calls it any more, and checks the spans and that
uninstalling puts every binding back. The tracer counts a fit as warm
only when ``x0`` reaches ``fit_group_lasso`` as a keyword, so the lifelong
run must report warm fits.
"""

import importlib.util
from pathlib import Path

import numpy as np

from lifelong_bandits import cli, environment, features, federated, gp_ucb, harness
from lifelong_bandits import lifelong, selection

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# every namespace the tracer patches
OWNERS = (
    cli,
    federated,
    harness,
    lifelong,
    selection,
    environment.SyntheticEnvironment,
    environment.TaskView,
    features.FeatureAtlas,
    gp_ucb.GpUcb,
    harness.RegretTrace,
)

# bindings no package code calls any more; the tracer still wraps them
# (``run_federated`` fits its clients through ``federated.client_fits``)
KEPT_FOR_THE_TRACER = (
    (harness, "recovery_trial"),
    (lifelong, "design_from_tasks"),
    (federated, "design_from_tasks"),
    (federated, "client_fit"),
    (federated, "learn_kernel"),
)


def load_tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def bindings():
    return {(id(owner), name): value for owner in OWNERS for name, value in vars(owner).items()}


def test_tracer_spans_every_runner_and_restores_every_binding(tmp_path, capsys):
    before = bindings()
    tracer = load_tracer_class()()
    tracer.install()
    try:
        for owner, name in KEPT_FOR_THE_TRACER:
            assert vars(owner)[name] is not before[(id(owner), name)]
        spans = {}
        for kind, pairs in (
            ("lifelong", {"m": "2", "n": "10"}),
            ("federated", {"m": "2", "n": "10"}),
            ("offline", {"m_values": "1,2"}),
        ):
            start = len(tracer.spans)
            pairs = {**pairs, "seeds": "3,", "out": str(tmp_path / kind)}
            harness.run_experiment(harness.build_config(kind, pairs))
            spans[kind] = tracer.spans[start:]
            if kind == "lifelong":
                # read before any other kind's fits count
                lifelong_warm_ratio = tracer.metrics()["group_lasso.fit.warm_ratio"]
        start = len(tracer.spans)
        argv = ["baseline", "--seeds", "3,", "--out", str(tmp_path / "baseline")]
        assert cli.main(argv + ["--override", "m=1", "--override", "n=10"]) == 0
        spans["baseline"] = tracer.spans[start:]
        start = len(tracer.spans)
        phi = np.random.default_rng(0).standard_normal((6, 3))
        federated.client_fit(phi, phi @ [1.0, 0.0, 0.0], 0.1, 0.25)
        spans["client_fit"] = tracer.spans[start:]
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())

    def names(kind):
        return {span[0] for span in spans[kind]}

    for kind in ("lifelong", "federated", "offline", "baseline"):
        assert "harness.run" in names(kind)
        assert "harness.config" in names(kind)
    runner = {"lifelong": "lifelong.run", "federated": "federated.run", "baseline": "lifelong.run"}
    for kind, name in runner.items():
        assert "harness.trace_write" in names(kind)
        # the runner span takes the seed from the runner's seed= keyword
        assert {span[4] for span in spans[kind] if span[0] == name} == {3}
    assert names("client_fit") == {"federated.client_fit"}
    assert "group_lasso.fit" in names("offline")
    # the tracer sees a warm start only as fit_group_lasso's x0 keyword
    assert lifelong_warm_ratio > 0
    assert "cli.main" in names("baseline")
    assert "baseline_oracle: 1/1 seeds" in capsys.readouterr().out
