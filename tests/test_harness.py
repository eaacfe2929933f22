"""Config resolution, trace files, summaries, and the experiment runner."""

import tempfile
import time
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lifelong_bandits import group_lasso, harness, selection
from lifelong_bandits.environment import LookupTable, uniform_grid
from lifelong_bandits.errors import ConfigError, DataError
from lifelong_bandits.harness import (
    ExperimentConfig,
    ExperimentResult,
    RegretTrace,
    SummaryTable,
    _csv,
    build_config,
    parse_pairs,
    run_experiment,
    summarize,
)
from lifelong_bandits.lifelong import run_baseline
from lifelong_bandits.environment import SyntheticEnvironment, SyntheticSpec
from oracles import row_csv


class TestConfig:
    def test_defaults_match_reference_setup(self):
        cfg = build_config("lifelong")
        assert (cfg.m, cfg.n, cfg.p, cfg.support_size) == (20, 100, 50, 5)
        assert (cfg.lam, cfg.omega, cfg.nu, cfg.lam_ucb) == (0.5, 0.25, 10.0, 0.1)
        assert cfg.noise == 0.1 and cfg.norm_bound == 10.0 and cfg.beta_min == 0.5
        assert cfg.seeds == tuple(range(20))

    def test_offline_defaults(self):
        cfg = build_config("offline")
        assert (cfg.n, cfg.lam, cfg.omega) == (10, 0.25, 0.25)
        assert cfg.m_values == tuple(range(1, 31))

    def test_federated_defaults(self):
        cfg = build_config("federated")
        assert (cfg.lam, cfg.alpha) == (0.2, 0.25)

    def test_round_trip_preserves_config_and_digest(self):
        cfg = build_config("lifelong", {"m": "7", "seeds": "3,1,4"})
        again = build_config(None, parse_pairs(cfg.serialize()))
        assert again == cfg
        assert again.digest() == cfg.digest()

    @pytest.mark.parametrize("seeds", ["3,", "0,"])
    def test_single_seed_round_trips(self, seeds):
        # a bare integer is a count, so a single seed must keep its comma
        cfg = build_config("lifelong", {"seeds": seeds})
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
        # retired keys: meta_data, and the solver's own tol and max_iter
        for key in ("meta_data", "solver_tol", "solver_max_iter"):
            with pytest.raises(ConfigError, match="unknown config key"):
                build_config("lifelong", {key: "1"})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            build_config("warmup")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="^m: "):
            build_config("lifelong", {"m": "many"})

    def test_lookup_requires_table(self):
        with pytest.raises(ConfigError):
            build_config("lookup")

    def test_offline_rejects_table(self):
        # the offline sweep draws synthetic tasks, so a table would be named
        # in the config and its digest without being read
        with pytest.raises(ConfigError, match="kind 'offline' does not read key 'table'"):
            build_config("offline", {"table": "t.csv"})

    def test_baseline_oracle_on_a_table_fails_before_any_output(self, tmp_path):
        # a table exposes no true support: this used to fail every seed at run time
        out = tmp_path / "out"
        pairs = {"table": lookup_pairs(tmp_path)["table"], "seeds": "0,", "out": str(out)}
        with pytest.raises(ConfigError, match="kind 'baseline_oracle' does not read key 'table'"):
            run_experiment(build_config("baseline_oracle", pairs))
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, key",
        [
            (kind, f.name)
            for kind in harness.KINDS
            for f in fields(ExperimentConfig)
            if f.name not in harness.KIND_KEYS[kind]
        ],
    )
    def test_key_the_kind_does_not_read_rejected_before_any_output(self, tmp_path, kind, key):
        # such a key used to be accepted, and written to config.resolved.txt
        # and its digest, without changing any result
        out = tmp_path / "out"
        default = {f.name: f.metadata["default"] for f in fields(ExperimentConfig)}[key]
        pairs = {key: default, "seeds": "0,", "out": str(out)}
        with pytest.raises(ConfigError, match=f"kind {kind!r} does not read key {key!r}"):
            run_experiment(build_config(kind, pairs))
        assert not out.exists()

    def test_each_kind_writes_only_the_keys_it_reads(self):
        # 18 keys beside kind; 81 of the 108 (kind, key) values are settable
        assert sum(len(keys) - 1 for keys in harness.KIND_KEYS.values()) == 81
        for kind in harness.KINDS:
            pairs = {"table": "t.csv"} if kind == "lookup" else {}
            text = build_config(kind, pairs).serialize()
            assert [line.split(" = ")[0] for line in text.splitlines()] == sorted(
                harness.KIND_KEYS[kind]
            )

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_pairs("kind lifelong\n")

    def test_repeated_key_rejected(self):
        # the later line used to win in silence
        with pytest.raises(ConfigError, match=r"line 3: key 'm' repeats line 1"):
            parse_pairs("m = 3\n# comment\nm = 5\n")

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
            ("lam_policy", "theory"),
            ("lam_policy", "constant"),
            ("schedule", "constant"),
            ("lam_ucb", "theory"),
        ],
    )
    def test_values_that_fail_every_seed_rejected_up_front(self, key, value):
        # each of these but p=1 (the default 5-group support cannot fit in
        # one group) used to pass config resolution and then fail every
        # seed, or run every seed twice or to no effect (non-finite floats);
        # the retired keys (solver_tol, solver_max_iter, lam_policy and
        # schedule) and lam_ucb=theory are rejected whatever their value
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
        # the kind names the kernel; baseline_kernel is no config key, and
        # only the CLI's baseline command reads it, as its kind selector
        for kind, kernel in (("baseline_oracle", "full"), ("baseline_full", "oracle")):
            with pytest.raises(ConfigError, match="unknown config key: 'baseline_kernel'"):
                build_config(kind, {"baseline_kernel": kernel})
            assert not hasattr(build_config(kind), "baseline_kernel")

    # the digests of each kind's default config text; the test ids name the
    # kind alone, so that a change of config text keeps them
    PINNED_DIGESTS = {
        "offline": "9f5416b6845b7122",
        "lifelong": "de920a8755bf964c",
        "lookup": "bd4640175f984553",
        "federated": "3f2440023ce77451",
        "baseline_oracle": "c8a8f65600e75e20",
        "baseline_full": "e50300d389e59a78",
    }

    @pytest.mark.parametrize("kind", harness.KINDS)
    def test_default_config_text_is_pinned(self, kind):
        # the golden-output test skips config.resolved.txt (it holds the
        # output path), so the canonical text of each kind's defaults is
        # pinned here through its digest
        pairs = {"table": "t.csv"} if kind == "lookup" else {}
        assert build_config(kind, pairs).digest()[:16] == self.PINNED_DIGESTS[kind]


def seed_records(monkeypatch):
    """Each seed's runner record, filled in as ``run_experiment`` runs it."""
    records = {}
    run_one_seed = harness._run_one_seed

    def recording(config, seed, table):
        records[seed] = run_one_seed(config, seed, table)
        return records[seed]

    monkeypatch.setattr(harness, "_run_one_seed", recording)
    return records


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

    # 128 is past int8, the explored column's dtype; the others are no int
    @pytest.mark.parametrize("cell", ["128", "1.0", "x"])
    def test_cell_its_column_cannot_hold_rejected(self, cell):
        header = ",".join(f.name for f in fields(RegretTrace))
        assert RegretTrace.from_text(f"{header}\n1,1,0.0,0.0,5,-1,127\n").explored[0] == 127
        with pytest.raises(DataError, match="explored"):
            RegretTrace.from_text(f"{header}\n1,1,0.0,0.0,5,-1,{cell}\n")

    def test_from_record(self):
        spec = SyntheticSpec(p=6, support_size=2, norm_bound=5.0, beta_min=0.5)
        env = SyntheticEnvironment(spec, n_tasks=2, master_seed=0, grid_points=40)
        record = run_baseline(env, "oracle", m=2, n=9, seed=0)
        trace = RegretTrace.from_record(record)
        assert len(trace.step) == 18
        assert list(trace.task[:9]) == [1] * 9
        assert np.all(trace.kernel_size == 2)
        assert np.all(trace.recovered == 1)


# floats whose text is easy to get wrong: signed zeros, NaN (a second payload
# too), infinities, the smallest subnormal, a float past 2**53 and two whose
# shortest repr is not their literal
NAN_PAYLOAD = float(np.array([0x7FF8000000000001]).view(np.float64)[0])
AWKWARD_FLOATS = [0.0, -0.0, np.nan, NAN_PAYLOAD, np.inf, -np.inf, 5e-324, 1e16, 1e-5, 0.1 + 0.2]


@st.composite
def array_columns(draw):
    """2-4 equal-length int (8 to 64 bits) or float64 columns that repeat
    their values."""
    rows = draw(st.integers(1, 40))
    columns = []
    for _ in range(draw(st.integers(2, 4))):
        if draw(st.booleans()):
            dtype = draw(st.sampled_from([np.int8, np.int16, np.int32, np.int64]))
            bounds = np.iinfo(dtype)
            pool = st.lists(st.integers(int(bounds.min), int(bounds.max)), min_size=1, max_size=5)
        else:
            pool = st.lists(
                st.sampled_from(AWKWARD_FLOATS) | st.floats(), min_size=1, max_size=8
            )
            dtype = np.float64
        values = draw(pool)
        picks = draw(st.lists(st.integers(0, len(values) - 1), min_size=rows, max_size=rows))
        columns.append(np.array([values[i] for i in picks], dtype=dtype))
    return columns


# the ints of each width that have the bits of the same-width float's 0.0,
# 1.0 and -0.0 (for int64: 0, 4607182418800017408 and -(2**63)), and print
# apart from them only by their dtype; int8 has no float of its width, and
# its 0 has the bits of every other width's 0 but not their length
SHARED_FLOATS = [0.0, -0.0, 1.0, np.nan, NAN_PAYLOAD]
SHARED_WIDTHS = [
    (np.int64, np.float64),
    (np.int32, np.float32),
    (np.int16, np.float16),
    (np.int8, None),
]


def shared_ints(dtype, float_dtype):
    if float_dtype is None:
        return [0, 1, int(np.iinfo(dtype).min)]
    return np.array([0.0, 1.0, -0.0], dtype=float_dtype).view(dtype).tolist()


def table_rows(table):
    """The row writer's text of a dataclass of array columns."""
    names = [f.name for f in fields(table)]
    return row_csv(",".join(names), zip(*(getattr(table, name).tolist() for name in names)))


@st.composite
def shared_bit_files(draw):
    """1-4 files of 1-4 columns, each drawn from one small pool of int and
    float columns of every width, so that files share columns, and int and
    float columns share their bits."""
    rows = draw(st.integers(1, 12))
    pool = []
    for _ in range(draw(st.integers(1, 6))):
        int_dtype, float_dtype = draw(st.sampled_from(SHARED_WIDTHS))
        if float_dtype is None or draw(st.booleans()):
            values, dtype, other = shared_ints(int_dtype, float_dtype), int_dtype, float_dtype
        else:
            values, dtype, other = SHARED_FLOATS, float_dtype, int_dtype
        picks = st.lists(st.sampled_from(values), min_size=rows, max_size=rows)
        column = np.array(draw(picks), dtype=dtype)
        pool.append(column)
        if other is not None and draw(st.booleans()):
            # the same bits under the other dtype
            pool.append(column.view(other))
    columns = st.lists(st.sampled_from(pool), min_size=1, max_size=4)
    return draw(st.lists(columns, min_size=1, max_size=4))


@st.composite
def shared_bit_trace(draw):
    """A 2-task trace of 0.0, -0.0 and 1.0 regrets whose int columns may hold
    the bits of 0.0 (int 0) and 1.0 (int 4607182418800017408); every trace
    of a run has the same steps and tasks."""
    regrets = st.lists(st.sampled_from([0.0, -0.0, 1.0]), min_size=6, max_size=6)
    bits = st.sampled_from([0, 4607182418800017408])
    inst = np.array(draw(regrets))
    return RegretTrace(
        step=np.arange(1, 7),
        task=np.repeat([1, 2], 3),
        instantaneous=inst,
        cumulative=np.cumsum(inst),
        kernel_size=np.array(draw(st.lists(bits, min_size=6, max_size=6))),
        recovered=np.full(6, -1),
        explored=np.full(6, draw(bits)),
    )


class TestCsv:
    @settings(max_examples=200, deadline=None)
    @given(array_columns())
    def test_array_columns_match_the_row_writer(self, columns):
        header = ",".join(f"c{j}" for j in range(len(columns)))
        expected = row_csv(header, zip(*(column.tolist() for column in columns)))
        assert _csv(header, columns) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers() | st.floats() | st.booleans(),
                st.text(alphabet="0123456789;-ab,", max_size=6),
            ),
            min_size=1,
            max_size=20,
        )
    )
    @example([(1, "x"), (1.0, "y;z"), (True, "")])  # 1 and 1.0 stay apart
    def test_mixed_list_columns_are_formatted_cell_by_cell(self, rows):
        header = "value,text"
        assert _csv(header, [list(column) for column in zip(*rows)]) == row_csv(header, rows)

    @settings(max_examples=200, deadline=None)
    @given(shared_bit_files())
    def test_files_through_one_memo_match_the_row_writer(self, files):
        memo = {}
        for columns in files:
            header = ",".join(f"c{j}" for j in range(len(columns)))
            expected = row_csv(header, zip(*(column.tolist() for column in columns)))
            assert _csv(header, columns, memo) == expected

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from([1, 3]), st.data())
    def test_run_files_match_files_written_alone(self, seeds, data):
        traces = {seed: data.draw(shared_bit_trace()) for seed in range(seeds)}
        summary = summarize([traces[s] for s in sorted(traces)])
        result = ExperimentResult(build_config(), "", traces, summary, None, None, None, [])
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            harness._write_outputs(out, result)
            for seed, trace in traces.items():
                assert (out / f"trace_seed{seed}.csv").read_text() == table_rows(trace)
            # the summary as if written alone, by the column writer and the row writer
            assert (out / "summary.csv").read_text() == summary.to_text() == table_rows(summary)

    @pytest.mark.parametrize("seeds, hits", [("0,", 6), ("20", 60)])
    def test_run_memo_keeps_only_the_columns_read_again(self, tmp_path, monkeypatch, seeds, hits):
        # the memo used to keep every trace column until the run's last file
        # (48 entries at 20 seeds); now it holds the summary's 6 columns and
        # one trace's 7 at most. The memo hits stay: each trace takes its
        # step and task from the summary, its all-zero explored column from
        # its all-zero recovered one, and a one-seed trace its regret columns.
        sizes, hit = [], 0
        cells = harness._cells

        def spying(column, memo=None):
            nonlocal hit
            if memo is None:
                return cells(column)
            hit += (column.dtype.str, column.tobytes()) in memo
            text = cells(column, memo)
            sizes.append(len(memo))
            return text

        monkeypatch.setattr(harness, "_cells", spying)
        pairs = {**tiny_lifelong_pairs(tmp_path, "baseline_full"), "seeds": seeds}
        run_experiment(build_config(pairs=pairs))
        assert max(sizes) <= 6 + 7
        assert hit == hits

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2]) | st.floats(-1e6, 1e6),
            min_size=1,
            max_size=30,
        )
    )
    def test_trace_text_round_trips_bit_for_bit(self, values):
        trace = make_trace(values)
        again = RegretTrace.from_text(trace.to_text())
        for name in ("instantaneous", "cumulative"):
            bits = getattr(trace, name).view(np.int64)
            assert np.array_equal(getattr(again, name).view(np.int64), bits)
        for name in ("step", "task", "kernel_size", "recovered", "explored"):
            assert np.array_equal(getattr(again, name), getattr(trace, name))
        # the parser builds every column at its declared width
        for f in fields(RegretTrace):
            assert getattr(again, f.name).dtype == f.metadata["dtype"], f.name


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
    """A small config of a bandit kind, with the keys that the kind reads."""
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
    return {key: value for key, value in pairs.items() if key in harness.KIND_KEYS[kind]}


def held_bytes(result) -> int:
    """The bytes of the arrays in a result's traces and summary: each buffer
    once, a zero-stride column as 0."""
    buffers = {}
    for table in [*result.traces.values(), result.summary]:
        for f in fields(table):
            column = getattr(table, f.name)
            if 0 not in column.strides:
                buffers[column.__array_interface__["data"][0]] = column.nbytes
    return sum(buffers.values())


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
        except ConfigError as exc:
            assert "regularizer" in str(exc) and not any(tmp_path.iterdir())
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
        ],
    )
    def test_edge_values_complete_every_seed(self, tmp_path, kind, key, value):
        # config resolution accepts these, so no seed may fail at run time;
        # a key the kind does not read is rejected before anything is written
        pairs = {"kind": kind, "m": "4", "n": "20", "seeds": "0,1", "out": str(tmp_path)}
        if key not in harness.KIND_KEYS[kind]:
            with pytest.raises(ConfigError, match="does not read"):
                build_config(pairs={**pairs, key: value})
            assert not any(tmp_path.iterdir())
            return
        result = run_experiment(build_config(pairs={**pairs, key: value}))
        assert not result.failures
        assert all(np.isfinite(trace.cumulative).all() for trace in result.traces.values())

    def test_lifelong_fits_that_never_converge_keep_the_full_kernel(self, tmp_path, monkeypatch):
        # one iteration converges no fit at these seeds: each report says so,
        # and each fit keeps the kernel before it, so every task runs under
        # all 50 groups
        monkeypatch.setattr(group_lasso, "MAX_ITER", 1)
        records = seed_records(monkeypatch)
        pairs = {"kind": "lifelong", "m": "4", "n": "20", "seeds": "0,1", "out": str(tmp_path)}
        result = run_experiment(build_config(pairs=pairs))
        assert not result.failures and sorted(records) == [0, 1]
        assert result.unconverged == 8
        for record in records.values():
            assert [report.converged for report in record.reports] == [False] * 4
            assert record.events == []
            assert all(task.kernel == tuple(range(1, 51)) for task in record.tasks)

    def test_federated_fits_that_never_converge_vote_failed(self, tmp_path, monkeypatch):
        # every client's fit fails: its vote is empty and flagged, and with
        # no index endorsed the client runs under the full kernel
        monkeypatch.setattr(group_lasso, "MAX_ITER", 1)
        records = seed_records(monkeypatch)
        pairs = {"kind": "federated", "m": "4", "n": "20", "seeds": "0,1", "out": str(tmp_path)}
        result = run_experiment(build_config(pairs=pairs))
        assert not result.failures and sorted(records) == [0, 1]
        assert result.unconverged == 8
        for seed, record in records.items():
            lines = (tmp_path / f"votes_seed{seed}.csv").read_text().splitlines()
            rows = [line.split(",") for line in lines[1:]]
            assert [(row[1], row[3]) for row in rows] == [("", "1")] * 4
            assert [report.converged for report in record.reports] == [False] * 4
            assert record.events == [(s, "fallback") for s in range(1, 5)]
            assert all(task.kernel == tuple(range(1, 51)) for task in record.tasks)

    @pytest.mark.parametrize("kind", ["lifelong", "offline"])
    def test_fit_after_a_failed_fit_starts_from_the_last_converged_fit(
        self, tmp_path, monkeypatch, kind
    ):
        # LiBO and the offline sweep share one rule: a failed fit leaves the
        # warm start as it was, so when the second of four fits fails, the
        # third starts from the first fit with predicted rows, and the
        # fourth from the third
        fit_group_lasso, starts, fits = selection.fit_group_lasso, [], []

        def second_fails(design, lam, *, x0=None):
            starts.append(x0)
            budget = 1 if len(starts) == 2 else group_lasso.MAX_ITER
            with mock.patch.object(group_lasso, "MAX_ITER", budget):
                fits.append(fit_group_lasso(design, lam, x0=x0))
            return fits[-1]

        monkeypatch.setattr(selection, "fit_group_lasso", second_fails)
        records = seed_records(monkeypatch)
        pairs = {"kind": kind, "seeds": "0,", "out": str(tmp_path)}
        pairs.update({"m": "4", "n": "20"} if kind == "lifelong" else {"m_values": "1,2,3,4"})
        assert not run_experiment(build_config(pairs=pairs)).failures
        assert [report.converged for _, report in fits] == [True, False, True, True]
        assert [x0 is None for x0 in starts] == [True, False, False, False]
        assert [len(x0) for x0 in starts[1:]] == [2, 3, 4]
        assert np.array_equal(starts[2][:1], fits[0][0])
        assert np.array_equal(starts[3][:3], fits[2][0])
        # the record keeps the report of each fit, the offline trials one each
        record = records[0]
        reports = record.reports if kind == "lifelong" else [trial.report for trial in record]
        assert [a is b for a, (_, b) in zip(reports, fits, strict=True)] == [True] * 4
        if kind == "lifelong":
            assert record.tasks[2].kernel == record.tasks[1].kernel

    @pytest.mark.parametrize("kind", ["lifelong", "offline"])
    def test_every_converged_fit_of_a_runner_is_certified(self, monkeypatch, kind):
        # whichever stage answered (the path, APG or a Newton attempt, warm or
        # cold), a fit the runner accepts as converged meets the KKT
        # certificate at the solver's tolerance
        fit_group_lasso, fits = selection.fit_group_lasso, []

        def recording(design, lam, *, x0=None):
            coeffs, report = fit_group_lasso(design, lam, x0=x0)
            fits.append((design, lam, coeffs, report))
            return coeffs, report

        monkeypatch.setattr(selection, "fit_group_lasso", recording)
        assert not run_experiment(build_config(kind, {"seeds": "4"})).failures
        converged = [fit for fit in fits if fit[3].converged]
        assert {"path", "newton"} <= {report.method for *_, report in converged}
        for design, lam, coeffs, _ in converged:
            assert group_lasso.kkt_residuals(design, coeffs, lam).max() <= group_lasso.TOL

    def test_lifelong_at_p2000_completes_every_seed_in_bounded_time(self, tmp_path):
        # each task holds 4-10 forced rows against 2 000 groups, and the
        # pooled fits work on those rows: two seeds take a few seconds, where
        # a (2000, 2000) Gram per task took about a minute a seed
        pairs = {"kind": "lifelong", "m": "4", "n": "20", "p": "2000", "seeds": "0,1"}
        start = time.perf_counter()
        result = run_experiment(build_config(pairs={**pairs, "out": str(tmp_path)}))
        assert time.perf_counter() - start < 60.0
        assert not result.failures
        assert all(np.isfinite(trace.cumulative).all() for trace in result.traces.values())

    def test_offline_single_observation_completes_every_seed(self, tmp_path):
        pairs = {"kind": "offline", "n": "1", "seeds": "0,1", "out": str(tmp_path)}
        assert not run_experiment(build_config(pairs=pairs)).failures

    def test_clean_rerun_removes_stale_failures(self, tmp_path, monkeypatch):
        # failures.csv is written only when a seed raised, so a clean rerun
        # into the same directory must not keep an earlier run's file
        run_one_seed = harness._run_one_seed

        def failing(config, seed, *args):
            if seed == 1:
                raise RuntimeError("seed 1 broke")
            return run_one_seed(config, seed, *args)

        monkeypatch.setattr(harness, "_run_one_seed", failing)
        assert run_experiment(build_config(pairs=tiny_lifelong_pairs(tmp_path))).failures
        assert (tmp_path / "failures.csv").exists()
        monkeypatch.setattr(harness, "_run_one_seed", run_one_seed)
        assert not run_experiment(build_config(pairs=tiny_lifelong_pairs(tmp_path))).failures
        assert not (tmp_path / "failures.csv").exists()

    def test_rerun_leaves_only_its_own_result_files(self, tmp_path):
        # fewer seeds, then another kind, into the same directory: each run
        # leaves its own files and none of the earlier run's
        federated = {**tiny_lifelong_pairs(tmp_path, "federated"), "seeds": "0,1,2"}
        run_experiment(build_config(pairs=federated))
        run_experiment(build_config(pairs={**federated, "seeds": "0,"}))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.resolved.txt",
            "summary.csv",
            "trace_seed0.csv",
            "votes_seed0.csv",
        ]
        offline = {"kind": "offline", "p": "6", "support_size": "2", "norm_bound": "5.0"}
        offline.update(m_values="2", seeds="1,", out=str(tmp_path))
        run_experiment(build_config(pairs=offline))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.resolved.txt",
            "recovery_curve.csv",
            "recovery_seed1.csv",
        ]

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

    def test_one_seed_result_holds_each_column_once_at_its_width(self):
        # 2 000 steps: a trace's 68 000 bytes and the summary's two 16 000-byte
        # means; 8-byte columns, a copied step and task and stored zero errors
        # would hold 208 000
        result = run_experiment(build_config("baseline_full", {"seeds": "0,"}))
        trace, summary = result.traces[0], result.summary
        assert np.shares_memory(summary.step, trace.step)
        assert held_bytes(result) <= 110_000

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
        oracle = run_experiment(build_config(pairs=tiny_lifelong_pairs(kind="baseline_oracle")))
        naive = run_experiment(build_config(pairs=tiny_lifelong_pairs(kind="baseline_full")))
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

