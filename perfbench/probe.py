"""Host speed probe: the benchmark's in-process reference for host time.

Host speed on small shared machines drifts by up to 1.8x, in bursts of
milliseconds to minutes (other tenants contend for the core), which swamps
the changes a perf PR makes.  While armed, :class:`SpeedProbe` interrupts the
process every ``INTERVAL_S`` of wall time (``SIGALRM``) and times a fixed
pure-Python loop.  Sampling is uniform in time, so the mean loop time over a
phase is the mean host speed the phase ran at, and a phase's host time is
reported rescaled to a reference speed:

    normalized = (wall time - time spent in the handler) * REFERENCE_S / mean loop time

A sample longer than ``STALL_FACTOR`` times the phase's median sample was
interrupted (the process lost the core mid-loop), not slowed, and counts at
that cap: at a 4 ms interval one 200 ms stall inside a sample would
otherwise raise the mean loop time of a 5 s phase fivefold.  The stall
itself stays out of the normalized time, because the handler's time is
subtracted.

The loop is benchmark code, independent of the program under test.  It
touches no program state, so it cannot change a run's outcome (``run.py``
checks outcome fingerprints across repetitions).
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array
from itertools import repeat

#: Loop time on the reference host (2-core container, Python 3.11) in its
#: fast state; normalized times are seconds at that speed.
REFERENCE_S = 1.8e-5

#: Wall time between two samples.
INTERVAL_S = 0.004

#: Samples above this multiple of the phase's median count at the cap.
STALL_FACTOR = 4.0

_LOOP = 400


class SpeedProbe:
    """Time-uniform samples of a fixed loop, kept per process."""

    def __init__(self) -> None:
        self.loops = array("d")  # loop time of every sample
        self.handler_s = 0.0  # summed time spent inside the handler

    def _sample(self, signum, frame) -> None:
        clock = time.perf_counter
        begin = clock()
        total = 0
        for value in repeat(3, _LOOP):
            total += value * value
        self.loops.append(clock() - begin)
        self.handler_s += clock() - begin

    def arm(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def snapshot(self):
        return (len(self.loops), self.handler_s)

    def scale(self, begin, end) -> float:
        """Reference loop time over the phase's mean (capped) loop time.

        ``begin`` and ``end`` are :meth:`snapshot` values taken at the
        phase's ends.  Raises ``ValueError`` when the phase got no sample.
        """
        loops = self.loops[begin[0]:end[0]]
        if not loops:
            raise ValueError("no speed sample fell inside the phase")
        cap = STALL_FACTOR * statistics.median(loops)
        return REFERENCE_S * len(loops) / sum(min(loop, cap) for loop in loops)

    def normalized(self, wall_s: float, begin, end) -> float:
        """A phase's wall time minus the handler's share, rescaled by :meth:`scale`."""
        return (wall_s - (end[1] - begin[1])) * self.scale(begin, end)
