"""Machine-speed calibration for a shared, noisy machine.

On a machine whose cores are shared with other tenants, the same pass of
the same code can take anywhere from 1.0x to 1.6x its best time, in spells
lasting seconds to minutes.  A fixed pure-Python kernel timed next to each
job slows down with it: dividing a job's time by the kernel time measured
around it cancels most of that drift.  Times are then scaled back to
seconds by :data:`KERNEL_REF_S`, the kernel's time on an idle core, so a
reported time reads as "seconds on a machine where the kernel takes
KERNEL_REF_S".
"""

from __future__ import annotations

import bisect
import time

#: Reference kernel time: about its best time on an idle 2-core x86-64 VM
#: with Python 3.11.
KERNEL_REF_S = 1.0e-3

#: Least spacing of calibration samples inside a pass of short jobs.
EVERY_S = 0.25


def kernel() -> float:
    """A fixed pure-Python mix: float arithmetic, tuple and dict traffic."""
    acc = 0.0
    table = {}
    for i in range(6000):
        x = (i % 97) * 0.5
        acc += x * x / (1.0 + x)
        table[i & 255] = (x, acc)
    return acc + len(table)


def kernel_s(reps: int = 3) -> float:
    """Best of ``reps`` back-to-back kernel timings, in seconds."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Calibration:
    """Kernel timings taken between jobs, and the scaling they imply."""

    def __init__(self) -> None:
        self.at: list[float] = []  # clock reading when each sample ended
        self.span: list[float] = []  # wall time each sample took
        self.kernel: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        k = kernel_s()
        self.at.append(time.perf_counter())
        self.span.append(self.at[-1] - t0)
        self.kernel.append(k)

    def maybe_sample(self) -> None:
        """Sample unless the last sample is younger than :data:`EVERY_S`."""
        if not self.at or time.perf_counter() - self.at[-1] >= EVERY_S:
            self.sample()

    def scaled(self, t0: float, t1: float) -> float:
        """Duration of the job that ran in [t0, t1], scaled.

        Uses the samples just before and after the job and any taken inside
        it, whose own time is not counted as the job's.
        """
        first = max(bisect.bisect_right(self.at, t0) - 1, 0)
        last = min(bisect.bisect_left(self.at, t1), len(self.at) - 1)
        used = range(first, last + 1)
        inside = sum(self.span[i] for i in used if t0 < self.at[i] < t1)
        kernel = sum(self.kernel[i] for i in used) / len(used)
        return (t1 - t0 - inside) * KERNEL_REF_S / kernel
