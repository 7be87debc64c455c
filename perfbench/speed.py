"""Host speed, sampled while the benchmark measures.

The benchmark shares its host with other work, which slows the same Python
code by a third or more for minutes at a time, so raw times of one commit
differ between runs by more than any regression worth catching. While
the designs run, a ``SIGALRM`` handler times a fixed piece of pure-Python
work every ``INTERVAL`` seconds. The benchmark multiplies its host times
by :meth:`HostSpeed.scale`, ``REFERENCE_S / median(samples)``: each time
then reads as it would on a host where that work takes ``REFERENCE_S``.
Simulated cycles and every count are never scaled.
"""

from __future__ import annotations

import signal
from statistics import median
from time import perf_counter
from typing import List

INTERVAL = 0.01
#: Probe time on a quiet 2-vCPU 2.1 GHz Xeon host.
REFERENCE_S = 40e-6

_SLOTS = dict.fromkeys(range(32), 0)


def _work() -> int:
    # Interpreter-bound and allocation-free, so it neither triggers the
    # garbage collector nor depends on the program's heap.
    acc = 0
    for i in range(300):
        acc += (i * 7) & 255
        _SLOTS[i & 31] = acc
    return acc


class HostSpeed:
    """Context manager sampling the probe's time while it is entered."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        _work()
        self.samples.append(perf_counter() - start)

    def scale(self) -> float:
        """Factor turning host seconds into reference seconds (1 if unsampled)."""
        return REFERENCE_S / median(self.samples) if self.samples else 1.0
