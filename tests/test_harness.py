"""Config resolution, trace files, summaries, and the experiment runner."""

import numpy as np
import pytest

from lifelong_bandits.environment import LookupTable, uniform_grid
from lifelong_bandits.errors import ConfigError, DataError
from lifelong_bandits.harness import (
    ExperimentConfig,
    RegretTrace,
    SummaryTable,
    build_config,
    parse_pairs,
    run_experiment,
    summarize,
)
from lifelong_bandits.lifelong import run_baseline
from lifelong_bandits.environment import SyntheticEnvironment, SyntheticSpec


class TestConfig:
    def test_defaults_match_reference_setup(self):
        cfg = build_config("lifelong")
        assert (cfg.m, cfg.n, cfg.p, cfg.support_size) == (20, 100, 50, 5)
        assert (cfg.lam, cfg.omega, cfg.nu, cfg.lam_ucb) == (0.5, 0.25, 10.0, 0.1)
        assert cfg.noise == 0.1 and cfg.norm_bound == 10.0 and cfg.beta_min == 0.5
        assert cfg.seeds == tuple(range(20))

    def test_offline_defaults(self):
        cfg = build_config("offline")
        assert (cfg.m, cfg.n, cfg.lam, cfg.omega) == (30, 10, 0.25, 0.25)

    def test_federated_defaults(self):
        cfg = build_config("federated")
        assert (cfg.lam, cfg.alpha) == (0.2, 0.25)

    def test_round_trip_preserves_config_and_digest(self):
        cfg = build_config("lifelong", {"m": "7", "seeds": "3,1,4"})
        again = build_config(None, parse_pairs(cfg.serialize()))
        assert again == cfg
        assert again.digest() == cfg.digest()

    def test_digest_stable_under_reordering(self):
        text_a = "kind = lifelong\nm = 5\nn = 30\n"
        text_b = "n = 30\nkind = lifelong\n\n# comment\nm = 5\n"
        a = build_config(None, parse_pairs(text_a))
        assert a.digest() == build_config(None, parse_pairs(text_b)).digest()

    def test_digest_changes_with_content(self):
        a = build_config("lifelong", {"m": "5"})
        b = build_config("lifelong", {"m": "6"})
        assert a.digest() != b.digest()

    def test_seed_count_expands(self):
        assert build_config("lifelong", {"seeds": "4"}).seeds == (0, 1, 2, 3)

    def test_seed_list_is_literal(self):
        assert build_config("lifelong", {"seeds": "7,2"}).seeds == (7, 2)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigError):
            build_config("lifelong", {"seeds": ""})
        with pytest.raises(ConfigError):
            build_config("lifelong", {"seeds": "0"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            build_config("lifelong", {"velocity": "3"})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            build_config("warmup")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            build_config("lifelong", {"m": "many"})

    def test_lookup_requires_table(self):
        with pytest.raises(ConfigError):
            build_config("lookup")

    def test_offline_rejects_table(self):
        # the offline sweep draws synthetic tasks, so a table would be named
        # in the config and its digest without being read
        with pytest.raises(ConfigError, match="table"):
            build_config("offline", {"table": "t.csv"})

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_pairs("kind lifelong\n")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("support_size", "60"),
            ("noise", "-1"),
            ("beta_min", "5"),
            ("lam_ucb", "0"),
            ("nu", "-1"),
            ("grid", "1"),
            ("solver_tol", "0"),
            ("omega", "-1"),
            ("schedule", "custom"),
            ("seeds", "0,0"),
            ("seeds", "-1,"),
            ("lam", "-1"),
            ("solver_max_iter", "0"),
            ("solver_max_iter", "-5"),
            ("lam", "nan"),
            ("noise", "nan"),
            ("omega", "inf"),
            ("nu", "inf"),
            ("p", "1"),
        ],
    )
    def test_values_that_fail_every_seed_rejected_up_front(self, key, value):
        # each of these but p=1 (the default 5-group support cannot fit in
        # one group) used to pass config resolution and then fail every
        # seed, or run every seed twice or to no effect (non-finite floats)
        with pytest.raises(ConfigError):
            build_config("lifelong", {key: value})

    @pytest.mark.parametrize(
        "key, value", [("noise", "-1"), ("p", "0"), ("family", "cosine1d"), ("m", "3")]
    )
    def test_lookup_values_that_fail_every_seed_rejected_up_front(self, tmp_path, key, value):
        # a lookup run skips the synthetic spec; these used to fail every seed
        pairs = {**lookup_pairs(tmp_path), "seeds": "0,1", key: value}
        with pytest.raises(ConfigError):
            run_experiment(build_config(pairs=pairs))

    @pytest.mark.parametrize("m_values", ["0,3", "-2", "3,1,0"])
    def test_offline_m_value_below_one_rejected_up_front(self, m_values):
        # these used to pass config resolution and then fail every seed
        with pytest.raises(ConfigError):
            build_config("offline", {"m_values": m_values})

    def test_offline_m_values_keep_their_order_and_repeats(self, tmp_path):
        pairs = {
            "kind": "offline",
            "p": "8",
            "support_size": "2",
            "norm_bound": "5.0",
            "n": "8",
            "m_values": "3,1,3",
            "seeds": "0,1",
            "out": str(tmp_path),
        }
        result = run_experiment(build_config(pairs=pairs))
        assert result.curve.m_values == (3, 1, 3)
        assert [row[0] for row in result.recovery[0]] == [3, 1, 3]
        assert result.recovery[0][0] == result.recovery[0][2]
        lines = (tmp_path / "recovery_seed1.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["3", "1", "3"]

    def test_baseline_kind_contradicting_its_kernel_rejected(self):
        with pytest.raises(ConfigError):
            build_config("baseline_oracle", {"baseline_kernel": "full"})
        with pytest.raises(ConfigError):
            build_config("baseline_full", {"baseline_kernel": "oracle"})
        assert build_config("baseline_full").baseline_kernel == "full"

    @pytest.mark.parametrize(
        "kind, digest",
        [
            ("offline", "c66c7be91be5387e"),
            ("lifelong", "c72c69414064e1e9"),
            ("lookup", "6a50074c39e21762"),
            ("federated", "37e0123b3352dda1"),
            ("baseline_oracle", "dd6da9b82ec41612"),
            ("baseline_full", "386c831f6853acbd"),
        ],
    )
    def test_default_config_text_is_pinned(self, kind, digest):
        # the golden-output test skips config.resolved.txt (it holds the
        # output path), so the canonical text of each kind's defaults is
        # pinned here through its digest
        pairs = {"table": "t.csv"} if kind == "lookup" else {}
        assert build_config(kind, pairs).digest()[:16] == digest


def lookup_pairs(tmp_path):
    """Config pairs of a small lookup run on a saved 49-point 2-d table."""
    # one [low, high] row per axis
    grid = uniform_grid(np.array([[0.0, 1.0], [0.0, 1.0]]), 7)
    assert len(np.unique(grid, axis=0)) == 49
    rng = np.random.default_rng(3)
    vals = np.stack([rng.uniform(size=len(grid)) for _ in range(2)], axis=1)
    path = tmp_path / "table.csv"
    LookupTable(["x1", "x2"], ["a", "b"], grid, vals).save(path)
    return {
        "kind": "lookup",
        "table": str(path),
        "p": "9",
        "n": "10",
        "seeds": "0,",
        "omega": "0.3",
        "lam": "0.05",
    }


def make_trace(values, task_len=None):
    inst = np.asarray(values, dtype=float)
    n = len(inst)
    per = task_len or n
    return RegretTrace(
        step=np.arange(1, n + 1),
        task=np.repeat(np.arange(1, n // per + 1), per),
        instantaneous=inst,
        cumulative=np.cumsum(inst),
        kernel_size=np.full(n, 5),
        recovered=np.full(n, -1),
        explored=np.zeros(n, dtype=int),
    )


class TestTrace:
    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(0)
        trace = make_trace(rng.uniform(size=12), task_len=4)
        again = RegretTrace.from_text(trace.to_text())
        assert np.array_equal(again.instantaneous, trace.instantaneous)
        assert np.array_equal(again.cumulative, trace.cumulative)
        assert again.to_text() == trace.to_text()

    def test_prefix_sum_enforced(self):
        with pytest.raises(DataError):
            RegretTrace(
                step=np.array([1, 2]),
                task=np.array([1, 1]),
                instantaneous=np.array([1.0, 1.0]),
                cumulative=np.array([1.0, 3.0]),
                kernel_size=np.array([5, 5]),
                recovered=np.array([-1, -1]),
                explored=np.array([0, 0]),
            )

    def test_bad_header_rejected(self):
        with pytest.raises(DataError):
            RegretTrace.from_text("a,b,c\n1,2,3\n")

    def test_from_record(self):
        spec = SyntheticSpec(p=6, support_size=2, norm_bound=5.0, beta_min=0.5)
        env = SyntheticEnvironment(spec, n_tasks=2, master_seed=0, grid_points=40)
        record = run_baseline(env, "oracle", m=2, n=9, seed=0)
        trace = RegretTrace.from_record(record)
        assert len(trace.step) == 18
        assert list(trace.task[:9]) == [1] * 9
        assert np.all(trace.kernel_size == 2)
        assert np.all(trace.recovered == 1)


class TestSummarize:
    def test_single_trace(self):
        trace = make_trace([1.0, 2.0, 3.0])
        table = summarize([trace])
        assert np.array_equal(table.mean_cumulative, trace.cumulative)
        assert np.all(table.se_cumulative == 0.0)

    def test_two_constant_traces(self):
        a = make_trace([2.0, 2.0])
        b = make_trace([6.0, 6.0])
        table = summarize([a, b])
        assert list(table.mean_instantaneous) == [4.0, 4.0]
        # sample stdev of {2, 6} is 2*sqrt(2); SE over 2 runs halves the gap
        assert table.se_instantaneous[0] == pytest.approx(2.0)
        assert list(table.mean_cumulative) == [4.0, 8.0]
        assert table.se_cumulative[1] == pytest.approx(4.0)

    def test_order_invariance(self):
        rng = np.random.default_rng(1)
        traces = [make_trace(rng.uniform(size=6)) for _ in range(5)]
        fwd = summarize(traces)
        rev = summarize(traces[::-1])
        assert fwd.to_text() == rev.to_text()

    def test_ragged_rejected(self):
        with pytest.raises(DataError):
            summarize([make_trace([1.0, 2.0]), make_trace([1.0, 2.0, 3.0])])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            summarize([])


def tiny_lifelong_pairs(out=None, kind="lifelong"):
    pairs = {
        "kind": kind,
        "p": "6",
        "support_size": "2",
        "norm_bound": "5.0",
        "m": "3",
        "n": "12",
        "grid": "40",
        "seeds": "0,1",
        "lam": "0.1",
    }
    if out:
        pairs["out"] = str(out)
    return pairs


class TestRunExperiment:
    @pytest.mark.parametrize("kind", ["lifelong", "federated", "baseline_oracle"])
    @pytest.mark.parametrize("lam_ucb", ["1e-300", "1e-150", "1e160", "1e150"])
    def test_extreme_lam_ucb_fails_up_front_or_completes(self, tmp_path, kind, lam_ucb):
        # these used to complete without a failure on a posterior gone NaN
        # (1e-300), fail some seeds at run time (1e-150) or fail every seed
        # with OverflowError (1e160)
        pairs = {**tiny_lifelong_pairs(tmp_path, kind), "lam_ucb": lam_ucb}
        try:
            config = build_config(pairs=pairs)
        except ConfigError:
            assert not any(tmp_path.iterdir())
            return
        result = run_experiment(config)
        assert not result.failures
        assert all(np.isfinite(trace.cumulative).all() for trace in result.traces.values())

    @pytest.mark.parametrize("kind", ["lifelong", "federated", "baseline_oracle"])
    @pytest.mark.parametrize(
        "key, value",
        [
            ("n", "1"),
            ("grid", "2"),
            ("lam", "0"),
            ("lam", "1e9"),
            ("omega", "1e9"),
            ("nu", "1e300"),
            ("solver_max_iter", "1"),
            ("lam_policy", "theory"),
        ],
    )
    def test_edge_values_complete_every_seed(self, tmp_path, kind, key, value):
        # config resolution accepts these, so no seed may fail at run time
        pairs = {"kind": kind, "m": "4", "n": "20", "seeds": "0,1", "out": str(tmp_path)}
        result = run_experiment(build_config(pairs={**pairs, key: value}))
        assert not result.failures
        assert all(np.isfinite(trace.cumulative).all() for trace in result.traces.values())

    def test_offline_single_observation_completes_every_seed(self, tmp_path):
        pairs = {"kind": "offline", "n": "1", "seeds": "0,1", "out": str(tmp_path)}
        assert not run_experiment(build_config(pairs=pairs)).failures

    def test_lifelong_writes_expected_files(self, tmp_path):
        result = run_experiment(build_config(pairs=tiny_lifelong_pairs(tmp_path)))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.resolved.txt",
            "summary.csv",
            "trace_seed0.csv",
            "trace_seed1.csv",
        ]
        assert not result.failures
        assert set(result.traces) == {0, 1}
        loaded = RegretTrace.load(tmp_path / "trace_seed0.csv")
        assert loaded.to_text() == result.traces[0].to_text()

    def test_byte_identical_across_runs(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        run_experiment(build_config(pairs=tiny_lifelong_pairs(a_dir)))
        run_experiment(build_config(pairs=tiny_lifelong_pairs(b_dir)))
        for name in ("trace_seed0.csv", "trace_seed1.csv", "summary.csv"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_summary_recomputable_from_files(self, tmp_path):
        run_experiment(build_config(pairs=tiny_lifelong_pairs(tmp_path)))
        traces = [
            RegretTrace.load(tmp_path / f"trace_seed{s}.csv") for s in (0, 1)
        ]
        assert summarize(traces).to_text() == (tmp_path / "summary.csv").read_text()

    def test_offline_writes_curve(self, tmp_path):
        pairs = {
            "kind": "offline",
            "p": "8",
            "support_size": "2",
            "norm_bound": "5.0",
            "n": "8",
            "m_values": "2,6",
            "seeds": "0,1,2",
            "out": str(tmp_path),
        }
        result = run_experiment(build_config(pairs=pairs))
        assert (tmp_path / "recovery_curve.csv").exists()
        assert (tmp_path / "recovery_seed0.csv").exists()
        assert result.curve.trials == 3
        assert len(result.curve.rates) == 2
        assert all(0.0 <= r <= 1.0 for r in result.curve.rates)

    def test_federated_writes_votes(self, tmp_path):
        pairs = tiny_lifelong_pairs(tmp_path, kind="federated")
        pairs["seeds"] = "0,"
        result = run_experiment(build_config(pairs=pairs))
        text = (tmp_path / "votes_seed0.csv").read_text()
        assert text.splitlines()[0] == "task,indices,server,failed"
        assert len(text.splitlines()) == 4
        assert result.votes and len(result.votes[0]) == 3

    def test_baseline_kinds_share_tasks_across_methods(self):
        pairs = tiny_lifelong_pairs()
        oracle = run_experiment(build_config(pairs={**pairs, "kind": "baseline_oracle"}))
        naive = run_experiment(build_config(pairs={**pairs, "kind": "baseline_full"}))
        assert set(oracle.traces) == set(naive.traces)
        assert np.all(oracle.traces[0].kernel_size == 2)
        assert np.all(naive.traces[0].kernel_size == 6)

    def test_lookup_kind_runs_from_table(self, tmp_path):
        result = run_experiment(build_config(pairs=lookup_pairs(tmp_path)))
        trace = result.traces[0]
        assert len(trace.step) == 20
        assert np.all(trace.recovered == -1)

    def test_lookup_table_read_once_per_run(self, tmp_path, monkeypatch):
        loads = []
        load = LookupTable.load.__func__

        def counting_load(cls, path):
            loads.append(path)
            return load(cls, path)

        monkeypatch.setattr(LookupTable, "load", classmethod(counting_load))
        result = run_experiment(build_config(pairs={**lookup_pairs(tmp_path), "seeds": "0,1,2,3"}))
        assert sorted(result.traces) == [0, 1, 2, 3]
        assert len(loads) == 1

    def test_missing_table_fails_before_any_output(self, tmp_path):
        out = tmp_path / "out"
        pairs = {**lookup_pairs(tmp_path), "table": str(tmp_path / "absent.csv"), "out": str(out)}
        with pytest.raises(ConfigError, match="absent.csv"):
            run_experiment(build_config(pairs=pairs))
        assert not out.exists()

    @pytest.mark.parametrize("content", [b"x1,x2,a\n0.5,half,1.0\n", b"\xff\xfe\x00\x81"])
    def test_malformed_table_fails_before_any_output(self, tmp_path, content):
        out = tmp_path / "out"
        pairs = {**lookup_pairs(tmp_path), "out": str(out)}
        (tmp_path / "table.csv").write_bytes(content)
        with pytest.raises(DataError):
            run_experiment(build_config(pairs=pairs))
        assert not out.exists()


class TestTheoryOptIns:
    def test_lam_ucb_theory_resolves_against_horizon(self):
        config = build_config("lifelong", {"lam_ucb": "theory", "n": "50"})
        assert config.lam_ucb == pytest.approx(1.04)
        # the stored value is the resolved number, so round-trips are exact
        assert build_config(None, parse_pairs(config.serialize())) == config

    def test_lam_ucb_theory_with_bad_horizon_rejected(self):
        with pytest.raises(ConfigError):
            build_config("lifelong", {"lam_ucb": "theory", "n": "soon"})

    def test_theory_lam_policy_accepted(self):
        config = build_config("lifelong", {"lam_policy": "theory"})
        assert config.lam_policy == "theory"
