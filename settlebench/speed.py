"""Correct wall times for the speed the shared host gives this process.

On a host shared with other tenants the same operation can take 1.8 times
as long in one half-minute as in the next, because a neighbour's load
slows the core this process runs on. Such phases last longer than a
benchmark run, so more repetitions inside a run do not average them out.

A ``SpeedProbe`` measures that speed while a block runs: every
``INTERVAL_S`` of wall time a ``SIGALRM`` handler runs a fixed calibration
job, a pure-Python integer loop that uses none of the program's code and
allocates nothing. The corrected time of the block is its wall time minus
the time spent in the handler, scaled by the nominal calibration time
over the mean one measured: the seconds the block would have taken at the
nominal speed. The handler runs between the program's bytecodes on the
same core, so it sees the slowdown the program sees; it also runs with
the caches the program left, which makes it some 10-25% slower than on an
idle interpreter, a bias that differs a little from one operation to
another. Uncorrected wall times are reported alongside.

This module imports only ``signal`` and ``time``, so a probe set up
before an import measures that import's full cost.
"""

import signal
import time

# Seconds one calibration takes, inside a running operation, on a quiet
# host (2.1 GHz Xeon). Any constant works: both sides of a comparison are
# scaled by the same one.
CAL_NOMINAL_S = 0.00006
INTERVAL_S = 0.02


def calibrate() -> float:
    """Wall seconds of one fixed calibration job."""
    start = time.perf_counter()
    x = 1
    for _ in range(1000):
        x = (x * 7 + 3) & 255  # stays within the small-int cache: no allocation
    return time.perf_counter() - start


class SpeedProbe:
    """Context manager sampling the calibration job while its block runs."""

    def __init__(self):
        self.samples: list[float] = []
        self.in_block_s = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        taken = calibrate()
        self.samples.append(taken)
        self.in_block_s += taken

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a block shorter than one interval
            self.samples.append(calibrate())
        return False

    def slowdown(self) -> float:
        return sum(self.samples) / len(self.samples) / CAL_NOMINAL_S

    def corrected(self, wall_s: float) -> float:
        """Seconds the block would have taken at the nominal speed, handler time excluded."""
        return (wall_s - self.in_block_s) / self.slowdown()
