"""Time import plus campaign construction in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
Prints the elapsed seconds, scaled to the reference host speed (see
``spans.speed_probe``), on stdout.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE.parent / "src"), str(_HERE)]

import campaigns  # noqa: E402

campaigns.construct(campaigns.WORKLOADS[sys.argv[1]],
                    campaigns.sub_seed(int(sys.argv[2]), 0))
_ELAPSED = time.perf_counter() - _START

import statistics  # noqa: E402

from spans import PROBE_REFERENCE_S, speed_probe  # noqa: E402


def _probe_seconds() -> float:
    start = time.perf_counter()
    speed_probe()
    return time.perf_counter() - start


speed_probe()
print(_ELAPSED * PROBE_REFERENCE_S
      / statistics.median(_probe_seconds() for _ in range(3)))
