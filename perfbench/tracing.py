"""Spans and counters around the calls into each package module.

The wrappers live here, in the benchmark, not in the package: ``Tracer``
replaces each public function at the binding its caller actually uses
(``selection.fit_group_lasso``, ``lifelong.learn_kernel``,
``federated.client_fit``, ``GpUcb.select`` ...), because patching only the
defining module would miss callers that imported the name.

A span records its name, start, end, parent span and experiment seed; the
runner spans set the seed, so every span of one seed shares it. Spans stay
in memory until ``save`` writes them once. A layer's self time is its span
durations minus the time its direct child spans cover.
"""

from __future__ import annotations

import json
import os
import statistics
import weakref
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from lifelong_bandits import (
    cli,
    environment,
    features,
    federated,
    gp_ucb,
    harness,
    lifelong,
    selection,
)

# name of each per-layer metric and its unit, in report order
LAYER_METRICS = {
    "features.concat_many.calls": "count",
    "features.concat_many.rows": "count",
    "features.concat_many.s": "s",
    "environment.build.s": "s",
    "environment.observe.calls": "count",
    "gp_ucb.select.calls": "count",
    "gp_ucb.select.s": "s",
    "gp_ucb.select.us_p50": "us",
    "gp_ucb.select.us_p99": "us",
    "gp_ucb.observe.calls": "count",
    "gp_ucb.observe.s": "s",
    "gp_ucb.dim_mean": "dims",
    "gp_ucb.agents": "count",
    "group_lasso.fit.calls": "count",
    "group_lasso.fit.s": "s",
    "group_lasso.fit.iters": "count",
    "group_lasso.fit.iters_p50": "count",
    "group_lasso.fit.iters_max": "count",
    "group_lasso.fit.us_per_iter": "us",
    "group_lasso.fit.converged_ratio": "share",
    "group_lasso.fit.warm_ratio": "share",
    "selection.design.calls": "count",
    "selection.design.s": "s",
    "selection.design.rows": "count",
    "selection.design.new_rows_ratio": "share",
    "selection.learn_kernel.calls": "count",
    "selection.fallback_ratio": "share",
    "selection.kernel_size_mean": "groups",
    "lifelong.run.calls": "count",
    "lifelong.run.self_s": "s",
    "federated.run.self_s": "s",
    "federated.client_fit.calls": "count",
    "federated.client_fit.s": "s",
    "federated.vote_failed_ratio": "share",
    "federated.replay_observes": "count",
    "harness.config.s": "s",
    "harness.trace_write.s": "s",
    "harness.trace_bytes": "bytes",
    "harness.summarize.s": "s",
    "harness.run.self_s": "s",
    "harness.outputs_identical": "share",
    "cli.main.s": "s",
    "trace.overhead_s": "s",
}


def _ratio(part: float, whole: float) -> float:
    """A share; 0 when its base is 0 (the matching .calls metric says so)."""
    return part / whole if whole else 0.0


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


class Tracer:
    """Installs the wrappers, collects spans and counts, and removes itself."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, seed]
        self.counts: Counter = Counter()
        self.samples: defaultdict = defaultdict(list)
        self.seed: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._runner: str | None = None
        self._selected_agents: weakref.WeakSet = weakref.WeakSet()
        self._seen_blocks: dict[int, object] = {}
        self._seen_seed: int | None = None

    # -- wrapping ---------------------------------------------------------

    def _replace(self, owner, attr: str, make) -> None:
        inner = getattr(owner, attr)
        self._undo.append((owner, attr, inner))
        setattr(owner, attr, make(inner))

    def _span(self, owner, attr: str, name: str, after=None, seed_of=None) -> None:
        """Wrap ``owner.attr`` in a span; ``after(args, kwargs, result)`` counts."""
        tracer = self

        def make(inner):
            def wrapper(*args, **kwargs):
                outer_seed, outer_runner = tracer.seed, tracer._runner
                if seed_of is not None:
                    tracer.seed = seed_of(args, kwargs)
                    tracer._runner = name
                record = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.seed]
                tracer._stack.append(len(tracer.spans))
                tracer.spans.append(record)
                record[1] = perf_counter()
                try:
                    result = inner(*args, **kwargs)
                finally:
                    record[2] = perf_counter()
                    tracer._stack.pop()
                    tracer.seed, tracer._runner = outer_seed, outer_runner
                if after is not None:
                    after(args, kwargs, result)
                return result

            return wrapper

        self._replace(owner, attr, make)

    def _count(self, owner, attr: str, name: str) -> None:
        counts = self.counts

        def make(inner):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        self._replace(owner, attr, make)

    def install(self) -> "Tracer":
        by_kw = lambda args, kwargs: kwargs["seed"]  # noqa: E731
        self._span(features.FeatureAtlas, "concat_many", "features.concat_many",
                   after=self._after_concat)
        self._span(environment.SyntheticEnvironment, "__init__", "environment.build")
        self._count(environment.TaskView, "observe", "environment.observe.calls")
        self._span(gp_ucb.GpUcb, "__init__", "gp_ucb.agent", after=self._after_agent)
        self._span(gp_ucb.GpUcb, "select", "gp_ucb.select", after=self._after_select)
        self._span(gp_ucb.GpUcb, "observe", "gp_ucb.observe", after=self._after_observe)
        self._span(selection, "fit_group_lasso", "group_lasso.fit", after=self._after_fit)
        for module in (lifelong, federated, selection):
            self._span(module, "design_from_tasks", "selection.design", after=self._after_design)
            self._span(module, "learn_kernel", "selection.learn_kernel", after=self._after_learn)
        self._span(federated, "client_fit", "federated.client_fit", after=self._after_vote)
        self._span(harness, "run_lifelong", "lifelong.run", seed_of=by_kw)
        self._span(harness, "run_baseline", "lifelong.run", seed_of=by_kw)
        self._span(harness, "run_federated", "federated.run", seed_of=by_kw)
        self._span(harness, "recovery_trial", "selection.recovery_trial",
                   seed_of=lambda args, kwargs: args[5])
        self._span(harness, "summarize", "harness.summarize")
        self._span(harness.RegretTrace, "save", "harness.trace_write", after=self._after_save)
        for module in (harness, cli):
            self._span(module, "build_config", "harness.config")
            self._span(module, "run_experiment", "harness.run")
        self._span(cli, "main", "cli.main")
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, inner = self._undo.pop()
            setattr(owner, attr, inner)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- counters filled after a wrapped call returns ---------------------

    def _after_concat(self, args, kwargs, result) -> None:
        self.counts["features.concat_many.rows"] += result.shape[0]

    def _after_agent(self, args, kwargs, result) -> None:
        self.samples["gp_ucb.dim"].append(args[0].state.dim)

    def _after_select(self, args, kwargs, result) -> None:
        self._selected_agents.add(args[0])

    def _after_observe(self, args, kwargs, result) -> None:
        # the federated runner replays a client's buffered exploration into
        # the fresh agent before that agent's first select
        if self._runner == "federated.run" and args[0] not in self._selected_agents:
            self.counts["federated.replay_observes"] += 1

    def _after_fit(self, args, kwargs, result) -> None:
        report = result[1]
        self.samples["group_lasso.iters"].append(report.iterations)
        self.counts["group_lasso.converged"] += report.converged
        self.counts["group_lasso.warm"] += kwargs.get("x0") is not None

    def _after_design(self, args, kwargs, result) -> None:
        # a block is new the first time this seed's fits see its array;
        # holding the arrays keeps their ids from being reused
        if self._seen_seed != self.seed:
            self._seen_blocks, self._seen_seed = {}, self.seed
        for X, _ in args[1]:
            rows = len(X)
            self.counts["selection.design.rows"] += rows
            if id(X) not in self._seen_blocks:
                self._seen_blocks[id(X)] = X
                self.counts["selection.design.new_rows"] += rows

    def _after_learn(self, args, kwargs, result) -> None:
        self.counts["selection.fallback"] += result.fallback
        self.samples["selection.kernel_size"].append(len(result.estimate.selected))

    def _after_vote(self, args, kwargs, result) -> None:
        self.counts["federated.vote_failed"] += result.failed

    def _after_save(self, args, kwargs, result) -> None:
        self.counts["harness.trace_bytes"] += os.path.getsize(args[1])

    # -- results ----------------------------------------------------------

    def _by_name(self) -> tuple[dict, dict]:
        """Per span name: list of durations and total self time."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        durations: defaultdict = defaultdict(list)
        self_time: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            durations[name].append(end - start)
            self_time[name] += end - start - child_time[i]
        return durations, self_time

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric the spans and counters define.

        ``harness.outputs_identical`` and ``trace.overhead_s`` come from the
        caller, which knows the reference digests and the untraced time.
        """
        dur, self_s = self._by_name()
        c = self.counts
        total = lambda name: sum(dur[name])  # noqa: E731
        select_us = [d * 1e6 for d in dur["gp_ucb.select"]]
        iters = self.samples["group_lasso.iters"]
        fits = len(iters)
        dims = self.samples["gp_ucb.dim"]
        sizes = self.samples["selection.kernel_size"]
        votes = len(dur["federated.client_fit"])

        return {
            "features.concat_many.calls": len(dur["features.concat_many"]),
            "features.concat_many.rows": c["features.concat_many.rows"],
            "features.concat_many.s": total("features.concat_many"),
            "environment.build.s": total("environment.build"),
            "environment.observe.calls": c["environment.observe.calls"],
            "gp_ucb.select.calls": len(select_us),
            "gp_ucb.select.s": total("gp_ucb.select"),
            "gp_ucb.select.us_p50": _percentile(select_us, 50),
            "gp_ucb.select.us_p99": _percentile(select_us, 99),
            "gp_ucb.observe.calls": len(dur["gp_ucb.observe"]),
            "gp_ucb.observe.s": total("gp_ucb.observe"),
            "gp_ucb.dim_mean": statistics.fmean(dims) if dims else 0.0,
            "gp_ucb.agents": len(dims),
            "group_lasso.fit.calls": fits,
            "group_lasso.fit.s": total("group_lasso.fit"),
            "group_lasso.fit.iters": sum(iters),
            "group_lasso.fit.iters_p50": statistics.median(iters) if iters else 0,
            "group_lasso.fit.iters_max": max(iters, default=0),
            "group_lasso.fit.us_per_iter": _ratio(total("group_lasso.fit") * 1e6, sum(iters)),
            "group_lasso.fit.converged_ratio": _ratio(c["group_lasso.converged"], fits),
            "group_lasso.fit.warm_ratio": _ratio(c["group_lasso.warm"], fits),
            "selection.design.calls": len(dur["selection.design"]),
            "selection.design.s": total("selection.design"),
            "selection.design.rows": c["selection.design.rows"],
            "selection.design.new_rows_ratio": _ratio(
                c["selection.design.new_rows"], c["selection.design.rows"]
            ),
            "selection.learn_kernel.calls": len(sizes),
            "selection.fallback_ratio": _ratio(c["selection.fallback"], len(sizes)),
            "selection.kernel_size_mean": statistics.fmean(sizes) if sizes else 0.0,
            "lifelong.run.calls": len(dur["lifelong.run"]),
            "lifelong.run.self_s": self_s["lifelong.run"],
            "federated.run.self_s": self_s["federated.run"],
            "federated.client_fit.calls": votes,
            "federated.client_fit.s": total("federated.client_fit"),
            "federated.vote_failed_ratio": _ratio(c["federated.vote_failed"], votes),
            "federated.replay_observes": c["federated.replay_observes"],
            "harness.config.s": total("harness.config"),
            "harness.trace_write.s": total("harness.trace_write"),
            "harness.trace_bytes": c["harness.trace_bytes"],
            "harness.summarize.s": total("harness.summarize"),
            "harness.run.self_s": self_s["harness.run"],
            "cli.main.s": total("cli.main"),
        }

    def save(self, path) -> None:
        """Write every span once, as one JSON object per line."""
        with open(path, "w") as fh:
            for name, start, end, parent, seed in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "seed": seed}
                ) + "\n")
