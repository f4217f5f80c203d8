"""Host speed probe for the end-to-end timings.

On a shared host the clock speed of a core follows the load of other
tenants: the same single-threaded work takes up to half as long again from
one minute to the next, and CPU time tracks wall time, so the loss is not
preemption.  A run therefore times a fixed pure-Python kernel four times a
second (from a timer signal, interleaved with the work) and reports each
measured interval in reference-speed seconds:

    (raw seconds - probe time inside the interval) * REFERENCE_S / median probe time

where the median is over probe samples in and around the interval.  A
faster program lowers the value; a faster host does not.  Every other
timing of the run (per-call latencies, solve time) is taken as own
seconds, the raw seconds minus the probe time inside.

The kernel is pure Python although the grid sweeps are numpy work: on a
2-vCPU shared host, over 67 alternating 7 s disk_laplace solves, the
spread (IQR/median) of solve time divided by the probe median was 0.082
with this kernel, 0.119 with a numpy gather/scatter kernel shaped like
the sweep's update and 0.108 with half of each (raw solve time: 0.198).
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

REFERENCE_S = 2.0e-3      # probe kernel time at the reference speed
PERIOD_S = 0.25
WINDOW_S = 1.0            # probe samples this close to an interval also count


def reference_kernel() -> int:
    s = 0
    for i in range(20000):
        s += i * i % 7
    return s


class SpeedProbe:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (start, duration)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def _between(self, t0: float, t1: float) -> list[tuple[float, float]]:
        # samples are appended in time order
        lo = bisect.bisect_left(self.samples, (t0,))
        hi = bisect.bisect_left(self.samples, (t1,))
        return self.samples[lo:hi]

    def own_seconds(self, t0: float, t1: float) -> float:
        """Wall-clock seconds from t0 to t1 minus the probe samples that
        ran inside: the program's own time."""
        return t1 - t0 - sum(d for _, d in self._between(t0, t1))

    def scale(self, t0: float, t1: float) -> float:
        """Reference-speed seconds per wall-clock second from t0 to t1."""
        near = [d for _, d in self._between(t0 - WINDOW_S, t1 + WINDOW_S)]
        near = near or [d for _, d in self.samples]
        return REFERENCE_S / statistics.median(near) if near else 1.0

    def reference_seconds(self, t0: float, t1: float) -> float:
        return self.own_seconds(t0, t1) * self.scale(t0, t1)
