"""The output sweep script: it runs end to end on one seed of a tiny config,
and at seeds 0-15 of the default configs it writes the files whose sha256
the two tables in ``sweep_digests/`` pin.

``results.sha256`` holds every result file (traces, summaries, votes,
recovery files and curves, and the lookup table) and ``configs.sha256``
every ``config.resolved.txt``, so a change that touches only the config
text shows that no result byte moved. Like the golden digests, they pin
floating-point results at one numpy/BLAS build (numpy 2.4.6 on OpenBLAS
0.3.31, x86-64). A change that moves bits on purpose regenerates a table,
in the sweep's output directory, and says which files moved and why:

    python3 tools/sweep_outputs.py --out DIR --seeds 0-15
    cd DIR && find * -type f ! -name config.resolved.txt | sort | xargs sha256sum
    cd DIR && find * -type f -name config.resolved.txt | sort | xargs sha256sum
"""

import filecmp
import hashlib
import subprocess
import sys
from pathlib import Path

SWEEP = Path(__file__).resolve().parents[1] / "tools" / "sweep_outputs.py"
DIGESTS = Path(__file__).resolve().parent / "sweep_digests"
TINY = ["--set", "m=2", "--set", "n=10", "--set", "m_values=1,2"]


def sweep(out: Path, seeds: str = "3", *pairs: str) -> None:
    result = subprocess.run(
        [sys.executable, str(SWEEP), "--out", str(out), "--seeds", seeds, *pairs],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr


def test_one_seed_sweep_writes_every_kind_comparably(tmp_path):
    sweep(tmp_path / "a", "3", *TINY)
    sweep(tmp_path / "b", "3", *TINY)
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
        config = (run / "config.resolved.txt").read_text()
        assert f"out = {kind}/seed3\n" in config
        if kind == "lookup":
            assert "table = table.csv\n" in config
        # each --set pair reaches the kinds that read its key, and only those
        assert ("m = 2\n" in config) == (kind != "offline")
        assert ("m_values = 1,2\n" in config) == (kind == "offline")
        # output paths are relative to --out, so two sweeps compare byte for byte
        names = sorted(files | {"config.resolved.txt"})
        other = tmp_path / "b" / kind / "seed3"
        _, mismatch, errors = filecmp.cmpfiles(run, other, names, shallow=False)
        assert (mismatch, errors) == ([], [])


def test_set_key_no_kind_reads_fails(tmp_path):
    result = subprocess.run(
        [sys.executable, str(SWEEP), "--out", str(tmp_path), "--set", "baseline_kernel=full"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 2 and "no kind reads baseline_kernel" in result.stderr
    assert not any(tmp_path.iterdir())


def test_seeds_0_to_15_match_the_committed_digests(tmp_path):
    sweep(tmp_path, "0-15")
    written = sorted(path for path in tmp_path.rglob("*") if path.is_file())
    for table, configs in (("results.sha256", False), ("configs.sha256", True)):
        expected = {}
        for line in (DIGESTS / table).read_text().splitlines():
            digest, name = line.split("  ", 1)
            expected[name] = digest
        found = {
            path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in written
            if (path.name == "config.resolved.txt") == configs
        }
        moved = sorted(name for name in expected.keys() | found.keys()
                       if expected.get(name) != found.get(name))
        assert not moved, f"{table}: {len(moved)} files differ, the first: {moved[:5]}"
