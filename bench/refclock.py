"""A CPU clock that runs at the speed of a reference machine.

On a shared virtual machine the vCPU's speed changes by half within
seconds, as neighbours load the host core under it, and CPU time changes
with it. ``RefClock`` cancels that: every ``PERIOD_S`` of process CPU time
a profiling timer interrupts the pipeline and runs a fixed reference piece
(interpreter loops over dicts and floats, numpy calls on small arrays: the
pipeline's mix). The CPU time since the previous sample is scaled by
``REFERENCE_S`` over the mean of the piece's times at both ends, and the
piece's own time is left out. A program that does the same work reads the
same on a fast and on a slow minute; one that does more work reads more.

The clock counts the main thread and the process's waited-for children. It
needs the main thread (signal handlers run there) and ``SIGPROF``; only
one clock runs in a process.
"""

from __future__ import annotations

import math
import resource
import signal
import time

# CPU seconds of process time between two samples.
PERIOD_S = 0.025
# CPU seconds the reference piece takes on the machine the baseline was
# recorded on (2-vCPU Xeon VM, Python 3.11, numpy 2.4); clock readings are
# in that machine's seconds.
REFERENCE_S = 0.001


def cpu_seconds() -> float:
    """User plus system CPU seconds of the main thread and of this process's
    waited-for children.

    Thread time, because while a process-wide CPU timer is armed Linux
    reads the process clock only to the scheduler tick. The pipeline runs
    on one thread (BLAS pinned to one), so the two agree.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.thread_time() + children.ru_utime + children.ru_stime


def reference_piece() -> float:
    """Fixed work of about a millisecond."""
    import numpy as np

    table: dict[int, float] = {}
    acc = 0.0
    for i in range(2400):
        key = i % 257
        table[key] = table.get(key, 0.0) + math.sqrt(i) * 0.5
        acc += table[key]
    m = np.linspace(0.0, 1.0, 64).reshape(8, 8)
    for _ in range(40):
        m = np.tanh(m @ m.T * 0.01 + 0.1)
    return acc + float(m.sum())


class RefClock:
    """Reference-speed CPU seconds since ``start``; see the module doc."""

    def __init__(self):
        self.samples = 0
        # (reference seconds, CPU seconds, piece seconds) at the last sample,
        # replaced whole so that a sample landing inside ``now`` is harmless
        self._state = (0.0, 0.0, REFERENCE_S)
        self._previous = None

    @staticmethod
    def _measure_piece() -> float:
        start = time.thread_time()
        reference_piece()
        return max(time.thread_time() - start, 1e-9)

    def start(self) -> "RefClock":
        reference_piece()  # imports and warms the caches outside the count
        self._state = (0.0, cpu_seconds(), self._measure_piece())
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        cpu = cpu_seconds()
        ref, base_cpu, last_piece = self._state
        piece = self._measure_piece()
        ref += (cpu - base_cpu) * REFERENCE_S / ((last_piece + piece) / 2)
        self._state = (ref, cpu_seconds(), piece)
        self.samples += 1

    def now(self) -> float:
        """Reference seconds so far; since the last sample at its piece's speed."""
        ref, base_cpu, piece = self._state
        return ref + (cpu_seconds() - base_cpu) * REFERENCE_S / piece
