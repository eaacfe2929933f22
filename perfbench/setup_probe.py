"""Set up a fresh benchmark process and say when it is ready.

Usage: ``python3 perfbench/setup_probe.py <workload>``. The process imports
the package, resolves the workload's configs and makes one warm-up call per
runner, then prints ``ready``. ``run.py`` times fresh process to ``ready``
as ``setup_s``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import blas_threads  # noqa: E402,F401  (before numpy)
import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.warm_up(workloads.WORKLOADS[sys.argv[1]])
    print("ready", flush=True)
