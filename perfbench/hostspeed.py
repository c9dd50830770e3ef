"""Host-speed calibration.

The speed of a shared host drifts by about +-20% over seconds: a fixed
pure-Python loop of 20,000 steps takes from 1.25 ms to 2.0 ms of CPU
time, and its CPU time tracks wall time, so the drift is slower
execution, not lost scheduling.  Every 0.1 s a background thread of
the process doing the work times that loop (a *quantum*, :class:`Sampler`),
and each operation's time is scaled by
``NOMINAL_S / median(nearby quanta)``: the time it would have taken
with the loop at ``NOMINAL_S``.  Scaling each of sim-long's simulations
by quanta taken just before and after it cut the round-to-round
variation of the total from 17% to 3%.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

LOOP_STEPS = 20_000
#: a quantum's typical CPU time on the host the benchmark was defined on
NOMINAL_S = 1.5e-3
#: quanta this close to an operation count as "nearby"
MARGIN_S = 0.25


def quantum() -> tuple[float, float]:
    """(monotonic timestamp, CPU seconds) of one calibration loop."""
    stamp = time.monotonic()
    start = time.thread_time()
    acc = 0
    for i in range(LOOP_STEPS):
        acc += i * i % 7
    return stamp, time.thread_time() - start


def speed(samples: list[tuple[float, float]], start: float,
          end: float) -> float:
    """``NOMINAL_S`` over the median quantum in ``[start, end]`` widened
    by :data:`MARGIN_S` (the nearest quantum when none falls inside);
    ``samples`` are sorted by timestamp."""
    stamps = [t for t, _ in samples]
    lo = bisect.bisect_left(stamps, start - MARGIN_S)
    hi = bisect.bisect_right(stamps, end + MARGIN_S)
    if lo == hi:
        nearest = min(range(len(samples)),
                      key=lambda i: abs(stamps[i] - start))
        lo, hi = nearest, nearest + 1
    return NOMINAL_S / statistics.median(q for _, q in samples[lo:hi])


class Sampler(threading.Thread):
    """Takes a quantum every ``interval`` seconds in the background.

    Its quanta measure the CPU the process runs on, so a process that
    uses one pins itself to one CPU first."""

    def __init__(self, interval: float = 0.1) -> None:
        super().__init__(name="hostspeed", daemon=True)
        self.interval = interval
        self.samples: list[tuple[float, float]] = []
        self._stopped = threading.Event()

    def run(self) -> None:
        while not self._stopped.is_set():
            self.samples.append(quantum())
            self._stopped.wait(self.interval)

    def stop(self) -> list[tuple[float, float]]:
        self._stopped.set()
        self.join()
        return self.samples
