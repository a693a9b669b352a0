"""A fixed pure-Python reference task that measures the machine's current speed.

The benchmark's host shares its cores with other machines, and its speed
drifts by a factor of up to two over minutes; raw wall times from two runs
a few minutes apart are therefore not comparable. Timing this task in the
same process right before each measured piece of work gives the speed at
that moment, and every end-to-end time is reported scaled to a machine on
which the task takes exactly ``REFERENCE_S`` seconds. The task never
touches pubtfp, so a change to the program cannot move it.
"""

from __future__ import annotations

import math
import statistics
import time

REFERENCE_S = 0.010  # the task's duration on the machine the bounds were set on


def reference_task() -> float:
    """Run the fixed task once; return its wall time in seconds."""
    start = time.perf_counter()
    counts: dict[int, float] = {}
    values = []
    for i in range(6000):
        key = i % 997
        counts[key] = counts.get(key, 0.0) + math.log1p(i) * 0.5
        values.append((repr(i * 1.25), key))
    values.sort()
    ",".join(text for text, _ in values[:2000]).split(",")
    return time.perf_counter() - start


def slowdown() -> float:
    """How many times slower than the reference machine this process runs now."""
    return statistics.median(reference_task() for _ in range(5)) / REFERENCE_S
