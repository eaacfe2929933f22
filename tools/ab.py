"""In-process A/B timing of two source trees of the lifelong_bandits package.

Usage (from the repository root):

    python3 tools/ab.py --parent REV_OR_DIR [--kinds lifelong,offline] [--seeds 0-15]

``--parent`` is a git revision of this repository, whose
``src/lifelong_bandits`` is exported with ``git archive`` into a temporary
directory, or a directory that holds ``src/lifelong_bandits``. The change is
the tree this script lives in. Both trees import into one process under
their own package names (the package imports itself only relatively),
beside a second copy of the change for an A/A control.

Per kind, every seed's default config runs through ``harness._run_one_seed``
on each of the three copies, after one untimed warm-up call per copy. The
seeds run in shuffled order and, per seed, the copies too; each call is
timed with ``process_time``. The script prints per kind the median over the
seeds of the change's CPU over the parent's, and beside it that of the
second copy over the change, the A/A ratio, which shows what noise alone
reads in the same session. ``lookup`` runs on the table that
``tools/sweep_outputs.py`` writes.

It exits with 1 if, on any seed, the copies do not take the same actions
(the bandit kinds) or reach the same recovery outcomes (``offline``: each
m's selected groups, exact and fallback flags). BLAS runs on one thread
unless ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set, as in
``perfbench/``.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import io
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

from sweep_outputs import KINDS, ROOT, parse_seeds, write_table  # sets the BLAS threads


def load_harness(package: Path, name: str):
    """The ``harness`` module of the package in directory ``package``,
    imported under the package name ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.harness")


def parent_package(parent: str, workdir: Path) -> Path:
    if Path(parent).is_dir():
        return Path(parent) / "src" / "lifelong_bandits"
    command = ["git", "-C", str(ROOT), "archive", parent, "src/lifelong_bandits"]
    archive = subprocess.run(command, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(workdir, filter="data")
    return workdir / "src" / "lifelong_bandits"


def outcome_of(kind: str, outcome):
    """What two trees must agree on: the actions, or each m's recovery."""
    if kind == "offline":
        return [(t.selected, t.exact, t.fallback) for t in outcome]
    return outcome.actions.tolist()


def time_kind(harnesses, kind: str, seeds, table: Path, rng: random.Random):
    """Per seed, each copy's CPU seconds, and the seeds whose outcomes differ."""
    pairs = {"table": str(table)} if kind == "lookup" else {}
    configs = [h.build_config(kind, pairs) for h in harnesses]
    tables = [h.LookupTable.load(table) if kind == "lookup" else None for h in harnesses]

    def run(j: int, seed: int):
        start = time.process_time()
        outcome = harnesses[j]._run_one_seed(configs[j], seed, tables[j])
        return time.process_time() - start, outcome_of(kind, outcome)

    for j in range(len(harnesses)):
        run(j, seeds[0])
    cpu, differ = [], []
    for seed in rng.sample(seeds, len(seeds)):
        copies = rng.sample(range(len(harnesses)), len(harnesses))
        runs = {j: run(j, seed) for j in copies}
        cpu.append([runs[j][0] for j in range(len(harnesses))])
        if any(runs[j][1] != runs[0][1] for j in runs):
            differ.append(seed)
    return cpu, sorted(differ)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision or source directory")
    parser.add_argument("--kinds", default=",".join(KINDS), help="comma list of kinds")
    parser.add_argument("--seeds", default="0-15", help="seeds, as 0-15 or 3,5,9")
    args = parser.parse_args(argv)
    kinds, seeds = args.kinds.split(","), parse_seeds(args.seeds)
    unknown = set(kinds) - set(KINDS)
    if unknown:
        parser.error(f"unknown kinds: {', '.join(sorted(unknown))}")
    rng = random.Random(0)
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        change = ROOT / "src" / "lifelong_bandits"
        parent = parent_package(args.parent, workdir)
        packages = {"parent": parent, "change": change, "again": change}
        harnesses = [load_harness(package, f"ab_{name}") for name, package in packages.items()]
        write_table(workdir / "table.csv")
        print(f"{'kind':<16}{'seeds':>6}{'parent ms':>11}{'change ms':>11}{'ratio':>8}{'A/A':>8}")
        for kind in kinds:
            runs, differ = time_kind(harnesses, kind, seeds, workdir / "table.csv", rng)
            parent_ms, change_ms = (1e3 * statistics.median(c[j] for c in runs) for j in (0, 1))
            ratio = statistics.median(c[1] / c[0] for c in runs)
            control = statistics.median(c[2] / c[1] for c in runs)
            print(
                f"{kind:<16}{len(runs):>6}{parent_ms:>11.2f}{change_ms:>11.2f}"
                f"{ratio:>8.3f}{control:>8.3f}"
            )
            if differ:
                print(f"{kind}: outcomes differ at seeds {differ}", file=sys.stderr)
                status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
