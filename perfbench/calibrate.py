"""Host speed, measured alongside the program.

The shared hosts this benchmark runs on change speed by a quarter or
more over periods of seconds to minutes.  A fixed interpreter-bound
loop on a 2-vCPU virtual machine took 0.18 s in one 4-second block and
0.24 s in the next, with process CPU time tracking wall time, so two
runs of the same code differ by more than any useful regression bound.
Each run therefore times a fixed reference task between its requests.
Where a workload reports times at nominal speed, each request time and
set-up probe is divided by the speed factor ``median(reference samples
during it, or the nearest) / NOMINAL_S``.  The reference task
allocates almost nothing and runs with the collector off, so the
program's heap does not time it, and no change to the program can move
it.  The raw figures and the run's factor are printed in the report
line beside the scaled ones.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List, Optional, Tuple

#: Reference-task time that defines speed factor 1.0 (seconds).
NOMINAL_S = 0.020


def reference_task() -> int:
    """Interpreter-bound integer work that allocates almost nothing (so
    the garbage collector and the program's heap do not time it)."""
    total = 0
    for i in range(80000):
        mask = (i * 2654435761) & 0xFFFFFFFF
        total += (mask >> 7) & (mask ^ i) if mask & 1 else mask % 97
    return total


class HostSpeed:
    """Samples of the reference task taken during one run."""

    #: Samples nearest to an interval that give its local speed.
    NEAREST = 7

    def __init__(self) -> None:
        #: (time taken, seconds) per sample.
        self.samples: List[Tuple[float, float]] = []

    def sample(self) -> None:
        gc.disable()
        try:
            started = time.perf_counter()
            reference_task()
            self.samples.append((started, time.perf_counter() - started))
        finally:
            gc.enable()

    def recent(self) -> float:
        """The speed factor of the latest samples (1.0 before any)."""
        if not self.samples:
            return 1.0
        latest = self.samples[-self.NEAREST:]
        return statistics.median(s for _, s in latest) / NOMINAL_S

    def factor(self, start: Optional[float] = None,
               end: Optional[float] = None) -> float:
        """How much slower than nominal the host ran (1.0 = nominal):
        over the whole run, or over the interval ``[start, end]`` (the
        samples inside it, or the ``NEAREST`` nearest to it)."""
        samples = self.samples
        if start is not None:
            def distance(entry):
                at = entry[0]
                return 0.0 if start <= at <= end else min(
                    abs(at - start), abs(at - end))

            ranked = sorted(samples, key=distance)
            inside = sum(1 for entry in ranked if distance(entry) == 0.0)
            samples = ranked[:max(inside, self.NEAREST)]
        return statistics.median(s for _, s in samples) / NOMINAL_S
