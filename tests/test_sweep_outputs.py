"""The output sweep script runs end to end on one seed of a tiny config."""

import filecmp
import subprocess
import sys
from pathlib import Path

SWEEP = Path(__file__).resolve().parents[1] / "tools" / "sweep_outputs.py"
TINY = ["--set", "m=2", "--set", "n=10", "--set", "m_values=1,2"]


def sweep(out: Path) -> None:
    result = subprocess.run(
        [sys.executable, str(SWEEP), "--out", str(out), "--seeds", "3", *TINY],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_one_seed_sweep_writes_every_kind_comparably(tmp_path):
    sweep(tmp_path / "a")
    sweep(tmp_path / "b")
    expected = {
        "lifelong": {"trace_seed3.csv", "summary.csv"},
        "federated": {"trace_seed3.csv", "summary.csv", "votes_seed3.csv"},
        "baseline_oracle": {"trace_seed3.csv", "summary.csv"},
        "baseline_full": {"trace_seed3.csv", "summary.csv"},
        "offline": {"recovery_seed3.csv", "recovery_curve.csv"},
        "lookup": {"trace_seed3.csv", "summary.csv"},
    }
    for kind, files in expected.items():
        run = tmp_path / "a" / kind / "seed3"
        assert {p.name for p in run.iterdir()} == files | {"config.resolved.txt"}
        assert f"out = {kind}/seed3\n" in (run / "config.resolved.txt").read_text()
        if kind == "lookup":
            assert "table = table.csv\n" in (run / "config.resolved.txt").read_text()
        # output paths are relative to --out, so two sweeps compare byte for byte
        names = sorted(files | {"config.resolved.txt"})
        other = tmp_path / "b" / kind / "seed3"
        _, mismatch, errors = filecmp.cmpfiles(run, other, names, shallow=False)
        assert (mismatch, errors) == ([], [])
