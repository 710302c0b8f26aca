"""Machine-speed probe: scales wall times to a nominal CPU speed.

On a shared machine the speed of one CPU changes from second to second as
other tenants load the same core.  On a 2-CPU x86 VM a fixed forward solve
took anywhere from 4.4 to 8.5 ms, and a run's median moved by up to 40%
between runs a minute apart.  That noise is larger than any bound a
regression gate can use.

While a probe is active, a 20 ms interval timer runs a fixed pure-Python
reference loop in the signal handler and times it.  The reference loop
slows down together with the code under test, so

    scaled time = wall time * NOMINAL_LOOP_S / median reference-loop time

stays put when the machine slows.  ``NOMINAL_LOOP_S`` only fixes the unit:
one scaled second is the time of 2e4 reference loops.  The handler runs in
the main thread between bytecodes and costs under 1% of the timed work.
"""

from __future__ import annotations

import signal
import statistics
import time

NOMINAL_LOOP_S = 5e-5
PERIOD_S = 0.02
_LOOP = range(1500)


class SpeedProbe:
    """Context manager that samples the reference loop while active."""

    def __init__(self):
        self.samples: list = []
        self._previous = None

    def _tick(self, signum, frame):
        # The first pass brings the loop back into cache, so the timed pass
        # measures the core's speed rather than how much of the cache the
        # code under test evicted.
        for _ in range(2):
            start = time.perf_counter()
            x = 0
            for i in _LOOP:
                x += i
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a call shorter than one period
            self._tick(None, None)
        return False

    def scale(self) -> float:
        """Factor from wall seconds to scaled seconds over the probe's life."""
        return NOMINAL_LOOP_S / statistics.median(self.samples)


def timed(fn, *args, **kwargs):
    """Call fn; return (result, scaled seconds, wall seconds)."""
    with SpeedProbe() as probe:
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - start
    return result, wall * probe.scale(), wall
