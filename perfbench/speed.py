"""How fast the CPU runs right now, from a fixed reference loop.

The benchmark's hosts are shared: a vCPU's speed drops by up to 1.8x for
stretches of a few seconds to a minute when a neighbour gets busy, and two
vCPUs of one machine change speed independently.  No choice of run length
averages that away, so the query processes time this loop just before and
just after every query, on the CPU the query runs on, and the benchmark
reports each latency at the reference speed: the measured latency times
REFERENCE_S over the mean of the two probe times.

The loop is the benchmark's own code, so a change to the library cannot
make it faster or slower.
"""

from __future__ import annotations

import time

PROBE_LOOPS = 150_000
# the probe's time at full speed on the 2-vCPU x86-64 machine (Python
# 3.11.7) the seed baseline was measured on: its fastest readings there
REFERENCE_S = 0.0078


def probe() -> float:
    """Seconds one pass of the reference loop takes now."""
    t0 = time.perf_counter()
    x = 0
    for j in range(PROBE_LOOPS):
        x += j * j
    return time.perf_counter() - t0
