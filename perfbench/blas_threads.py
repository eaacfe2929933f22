"""Run BLAS on one thread unless the environment already chooses a count.

Import this before numpy. The benchmark runs on a few shared cores, where a
second BLAS thread waits on whatever else the machine runs: the same seeds
then vary in wall time by a quarter from minute to minute, and in CPU time
more, as the idle thread spins. One thread keeps the timings steady. An
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` already set is left as it is,
and ``FOUND`` records both as they were found.
"""

import os

VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
FOUND = {name: os.environ.get(name) for name in VARIABLES}

if not any(FOUND.values()):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
