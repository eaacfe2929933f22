"""Command-line interface behavior."""

import subprocess
import sys

import pytest

from lifelong_bandits import federated, group_lasso, harness, selection
from lifelong_bandits.cli import main


def tiny_args(tmp_path, *extra):
    return [
        "--override", "p=6",
        "--override", "support_size=2",
        "--override", "norm_bound=5.0",
        "--override", "m=2",
        "--override", "n=8",
        "--override", "grid=30",
        "--seeds", "0,",
        "--out", str(tmp_path),
        *extra,
    ]


class TestExitCodes:
    def test_lifelong_success(self, tmp_path, capsys):
        assert main(["lifelong", *tiny_args(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "lifelong: 1/1 seeds" in out
        assert (tmp_path / "trace_seed0.csv").exists()

    def test_offline_success(self, tmp_path, capsys):
        code = main(
            [
                "offline",
                "--override", "p=6",
                "--override", "support_size=2",
                "--override", "norm_bound=5.0",
                "--override", "n=6",
                "--override", "m_values=2,4",
                "--seeds", "0,1",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "recovery_curve.csv").exists()
        out = capsys.readouterr().out
        assert "offline: 2/2 seeds" in out and "converge" not in out

    @pytest.mark.parametrize(
        "kind, owner, name, sizes",
        [
            ("lifelong", selection, "fit_group_lasso", ["m=4", "n=20"]),
            ("federated", federated, "fit_lassos", ["m=4", "n=20"]),
            ("offline", selection, "fit_group_lasso", ["m_values=1,2,5,10"]),
        ],
        ids=["lifelong", "federated", "offline"],
    )
    def test_fits_that_do_not_converge_are_counted(
        self, tmp_path, capsys, monkeypatch, kind, owner, name, sizes
    ):
        # a fit cut at its iteration budget is no ordinary fit: a runner's
        # record keeps the report of each of its fits in fit order (each
        # offline trial its own), and the status line counts every report
        # that says the fit did not converge (here some of the pooled and
        # client fits; the m=1 lasso paths finish within 10 steps)
        reports, records = [], {}
        fit, run_one_seed = getattr(owner, name), harness._run_one_seed

        def spy(design, lam, **kwargs):
            coeffs, report = fit(design, lam, **kwargs)
            reports.extend(report if isinstance(report, list) else [report])
            return coeffs, report

        def recording(config, seed, table):
            records[seed] = run_one_seed(config, seed, table)
            return records[seed]

        monkeypatch.setattr(group_lasso, "MAX_ITER", 10)
        monkeypatch.setattr(owner, name, spy)
        monkeypatch.setattr(harness, "_run_one_seed", recording)
        overrides = [arg for pair in sizes for arg in ("--override", pair)]
        assert main([kind, *overrides, "--seeds", "0,1", "--out", str(tmp_path)]) == 0
        kept = [
            report
            for record in (records[0], records[1])
            for report in ([t.report for t in record] if kind == "offline" else record.reports)
        ]
        assert len(kept) == len(reports) == 8
        assert all(a is b for a, b in zip(kept, reports))
        unconverged = sum(not report.converged for report in reports)
        assert 0 < unconverged < 8
        line = capsys.readouterr().out.rstrip("\n")
        assert line.endswith(f", wrote {tmp_path}, {unconverged} fits did not converge")

    def test_baseline_full(self, tmp_path, capsys):
        code = main(
            ["baseline", *tiny_args(tmp_path), "--override", "baseline_kernel=full"]
        )
        assert code == 0
        assert "baseline_full:" in capsys.readouterr().out
        # the selector picks the kind; it is no config key of the run
        text = (tmp_path / "config.resolved.txt").read_text()
        assert "kind = baseline_full\n" in text and "baseline_kernel" not in text

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["lifelong", "--override", "baseline_kernel=full"], "unknown config key"),
            (["baseline", "--override", "baseline_kernel=truth"], "baseline_truth"),
            # the kind and the selector cannot both be given
            (
                ["baseline", "--override", "kind=baseline_full"]
                + ["--override", "baseline_kernel=full"],
                "unknown config key",
            ),
        ],
    )
    def test_baseline_kernel_selects_only_the_baseline_kind(self, tmp_path, capsys, argv, reason):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        assert reason in capsys.readouterr().err
        assert not out.exists()

    def test_federated(self, tmp_path, capsys):
        assert main(["federated", *tiny_args(tmp_path)]) == 0
        assert (tmp_path / "votes_seed0.csv").exists()

    def test_failed_seed_exits_2_after_writing_outputs(self, tmp_path, capsys, monkeypatch):
        run_one_seed = harness._run_one_seed

        def failing(config, seed, *args):
            if seed == 1:
                raise RuntimeError("seed 1 broke")
            return run_one_seed(config, seed, *args)

        monkeypatch.setattr(harness, "_run_one_seed", failing)
        assert main(["lifelong", *tiny_args(tmp_path), "--seeds", "0,1"]) == 2
        assert "lifelong: 1/2 seeds" in capsys.readouterr().out
        assert (tmp_path / "trace_seed0.csv").exists()
        assert "seed 1 broke" in (tmp_path / "failures.csv").read_text()

    def test_every_seed_failing_exits_1_after_writing_failures(self, tmp_path, capsys, monkeypatch):
        def failing(config, seed, *args):
            raise RuntimeError(f"seed {seed} broke")

        monkeypatch.setattr(harness, "_run_one_seed", failing)
        assert main(["lifelong", *tiny_args(tmp_path), "--seeds", "0,1"]) == 1
        assert "every seed failed" in capsys.readouterr().err
        lines = (tmp_path / "failures.csv").read_text().splitlines()
        assert lines == ["seed,error", "0,RuntimeError: seed 0 broke", "1,RuntimeError: seed 1 broke"]
        assert not (tmp_path / "trace_seed0.csv").exists()

    def test_unknown_key_fails_with_reason(self, tmp_path, capsys):
        code = main(["lifelong", "--override", "speed=9", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "speed" in err

    def test_malformed_override_fails(self, capsys):
        assert main(["lifelong", "--override", "m:5"]) == 1
        assert "key=value" in capsys.readouterr().err

    def test_kind_outside_command_family_fails(self, capsys):
        assert main(["offline", "--override", "kind=lifelong"]) == 1
        assert "offline" in capsys.readouterr().err

    def test_empty_seeds_fails(self, capsys):
        assert main(["lifelong", "--seeds", ""]) == 1
        assert "seeds" in capsys.readouterr().err

    def test_overrides_do_not_carry_over_between_calls(self, tmp_path, capsys):
        # one parser serves every call of the process: the overrides of one
        # call must not reach the next
        assert main(["lifelong", *tiny_args(tmp_path / "a"), "--override", "speed=9"]) == 1
        assert "speed" in capsys.readouterr().err
        assert main(["lifelong", *tiny_args(tmp_path / "b"), "--override", "n=7"]) == 0
        assert main(["lifelong", *tiny_args(tmp_path / "c")]) == 0
        assert "lifelong: 1/1 seeds" in capsys.readouterr().out
        assert "n = 7\n" in (tmp_path / "b" / "config.resolved.txt").read_text()
        assert "n = 8\n" in (tmp_path / "c" / "config.resolved.txt").read_text()


class TestConfigFile:
    def test_config_file_drives_run(self, tmp_path, capsys):
        cfg = tmp_path / "run.txt"
        cfg.write_text(
            "p = 6\nsupport_size = 2\nnorm_bound = 5.0\n"
            "m = 2\nn = 8\ngrid = 30\nseeds = 0,\n"
        )
        out = tmp_path / "results"
        assert main(["lifelong", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "summary.csv").exists()

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.txt"
        cfg.write_text("seeds = 5\n")
        out = tmp_path / "results"
        code = main(
            [
                "lifelong",
                "--config", str(cfg),
                "--seeds", "0,",
                "--out", str(out),
                "--override", "p=6",
                "--override", "support_size=2",
                "--override", "norm_bound=5.0",
                "--override", "m=2",
                "--override", "n=6",
                "--override", "grid=30",
            ]
        )
        assert code == 0
        assert not (out / "trace_seed4.csv").exists()
        assert (out / "trace_seed0.csv").exists()

    def test_missing_config_file_fails(self, capsys):
        assert main(["lifelong", "--config", "/no/such/file.txt"]) == 1
        assert capsys.readouterr().err.startswith("error:")


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [
            sys.executable, "-m", "lifelong_bandits", "lifelong",
            "--override", "p=6",
            "--override", "support_size=2",
            "--override", "norm_bound=5.0",
            "--override", "m=1",
            "--override", "n=6",
            "--override", "grid=30",
            "--seeds", "0,",
            "--out", str(tmp_path),
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "lifelong: 1/1 seeds" in result.stdout
