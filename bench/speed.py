"""Machine-speed references, for steady timings on a shared machine.

On a shared host the same work can run 20-40% slower for ten seconds or
more at a time, so a median over a short run still moves with the
neighbours. The benchmark therefore times a fixed reference kernel right
before and right after each timed call and scales the call's time by
the kernel's nominal time over the mean of the two: the scaled time is
what the call takes at the speed where the kernel takes its nominal
time. The raw times are printed next to the scaled ones.

A slowdown hits memory-bound numpy work and interpreter-bound Python
work differently. On the bulk run, which streams large arrays, the
memory-bound kernel roughly halved the run-to-run spread against the
mixed one; the mixed one tracked the other workloads best.
"""

from __future__ import annotations

import time

import numpy as np

# Each kernel's time on a quiet 2-core Xeon VM (2 MiB L2 per core), in ms.
NOMINAL_MS = {"memory": 40.0, "mixed": 20.0}


class SpeedReference:
    """One of two fixed kernels:

    - memory: uint64 mixing over a 64 MB array, far past L2;
    - mixed: an interpreter-bound integer loop plus mixing over a 16 MB array.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.nominal_ms = NOMINAL_MS[kind]
        words = {"memory": 8_000_000, "mixed": 2_000_000}[kind]
        self._data = np.arange(words, dtype=np.uint64)
        self._loops = 0 if kind == "memory" else 150_000

    def _once(self) -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(self._loops):
            total += i * i % 7
        mixed = (self._data ^ (self._data >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        del mixed
        return (time.perf_counter() - t0) * 1e3

    def scale(self, before_ms: float, after_ms: float) -> float:
        """Factor that takes a time measured between two kernel timings to nominal speed."""
        return self.nominal_ms / ((before_ms + after_ms) / 2)

    def ms(self) -> float:
        """Best of three timings of the kernel, in milliseconds."""
        return min(self._once() for _ in range(3))
