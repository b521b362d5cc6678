"""Speed probes: how fast this machine runs right now, independent of aqsc.

The benchmark shares its cores with other tenants, and their load changes
the speed of every process on the machine for seconds to minutes at a time.
Each run therefore interleaves short probes with its operations and scales
every time it reports to a nominal machine speed:

    scaled time = measured time * nominal / probe

where probe is the median probe time around the operation.  The probes run
no aqsc code, so a change to aqsc cannot move them: it shifts the scaled
figures in the same proportion as the measured ones, and only the machine's
momentary speed is divided out.

The nominals are the probe times of the 2-core virtual machine the baseline
was recorded on, when it was not contended, so scaled figures read as wall
times on that machine.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

# `python -c pass`, for work that starts interpreters (commands, set-up)
FLOOR_NOMINAL_S = 0.045
# loop_s(), for work inside one interpreter
LOOP_NOMINAL_S = 0.0035


def floor_s() -> float:
    """Wall time of starting and stopping a bare interpreter."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
    return perf_counter() - t0


def loop_s() -> float:
    """Wall time of a fixed integer loop.

    It allocates nothing the garbage collector tracks, so the heap a
    workload has built up cannot change it.
    """
    t0 = perf_counter()
    s = 0
    for i in range(50_000):
        s += i * i % 7
    return perf_counter() - t0
