"""Host-speed sampler, which takes the host's changing CPU speed out of the
timed figures.

On a shared VM the same Python loop can take 25 % more or less time from one
second to the next. While the benchmark runs, a background thread times a
fixed reference loop in its own CPU time every PERIOD_S seconds; that time
over NOMINAL_MS is the host's slowdown at that moment. A stage's wall time
divided by the median slowdown sampled while it ran is its time at the
nominal host speed. The sampler holds the interpreter lock for about
NOMINAL_MS every PERIOD_S, a steady cost of about 2 % of the main thread.

The correction assumes the program runs on one core, as the benchmark runs
it: a program that loaded the other core itself would slow the reference
loop and be credited for it.
"""

from __future__ import annotations

import statistics
import threading
import time

PERIOD_S = 0.05
REFERENCE_LOOPS = 10_000
# the reference loop's median CPU time on a 2-vCPU Intel Xeon VM at 2.1 GHz
# (Python 3.11): a fixed scale, so that corrected times read as seconds
NOMINAL_MS = 1.0


def _reference() -> int:
    s = 0
    for i in range(REFERENCE_LOOPS):
        s += i * i % 7
    return s


class Sampler:
    """Context manager: samples the host's slowdown in a daemon thread
    while it is entered."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter at end, slowdown)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="hostspeed", daemon=True)

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            cpu0 = time.thread_time()
            _reference()
            slowdown = (time.thread_time() - cpu0) * 1e3 / NOMINAL_MS
            self.samples.append((time.perf_counter(), slowdown))

    def __enter__(self):
        self._thread.start()
        while len(self.samples) < 3:  # so that every interval has samples
            time.sleep(PERIOD_S)
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def slowdown(self, t0: float, t1: float) -> float:
        """Median slowdown sampled between perf_counter times t0 and t1;
        an interval with fewer than 3 samples takes the 3 nearest its
        middle."""
        samples = list(self.samples)
        inside = [s for t, s in samples if t0 <= t <= t1]
        if len(inside) < 3:
            mid = (t0 + t1) / 2
            inside = [s for _, s in sorted(samples, key=lambda ts: abs(ts[0] - mid))[:3]]
        return statistics.median(inside)

    def corrected(self, t0: float, t1: float) -> float:
        """Seconds from t0 to t1 at the nominal host speed."""
        return (t1 - t0) / self.slowdown(t0, t1)
