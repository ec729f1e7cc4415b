"""The host-speed probe and the per-operation deadline.

``calibrate`` times a fixed loop of the package's own kind of work; the ratio
of an operation's latency to the loop's time is steady while other tenants of
a shared host slow both down.  ``HostProbe`` times the loop around and, by
``SIGALRM``, during an operation, and enforces the operation's deadline.

Both the measuring worker and ``cli_child.py``, which runs the CLI in a
child process, use it; it imports nothing of the benchmark or the package.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction


class DeadlineExceeded(BaseException):
    """Raised inside an operation that overran its deadline.

    A BaseException, so no ``except Exception`` in the package swallows it.
    """


def calibrate() -> float:
    """Seconds for a fixed loop of exact rational arithmetic, the package's own kind of work.

    It measures how fast the host lets this process run at that moment.
    """
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(1, i) * Fraction(i + 1, i + 2)
    return time.perf_counter() - start


#: ``calibrate``'s time on a quiet host (Intel Xeon at 2.1 GHz, Python 3.11):
#: calibrated latencies are the latencies at the host speed where the loop
#: takes this long.  A constant, so that it depends neither on the program's
#: speed nor on the host's load during a run.
REFERENCE_LOOP_S = 1.6e-3


class HostProbe:
    """The deadline and the host-speed samples of one operation.

    While the operation runs, SIGALRM fires every SAMPLE_S of wall time,
    also while this process waits for a child.  Past the deadline the
    handler raises DeadlineExceeded, once; otherwise, when sampling, it
    times ``calibrate`` between two bytecodes.  Sampling also times it just
    before and just after the operation.  ``samples`` holds the seconds of
    each loop and ``spent`` the probe's own time, to be taken off the
    operation's latency.
    """

    SAMPLE_S = 0.1

    def __init__(self, deadline_s: float, sample: bool):
        self.deadline_s = deadline_s
        self.sample = sample
        self.samples: list[float] = []
        self.spent = 0.0
        self.timed_out = False
        self._armed = False
        self._start = 0.0

    def _calibrate(self):
        start = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - start

    def _tick(self, signum, frame):
        if not self._armed or self.timed_out:
            return
        if time.perf_counter() - self._start > self.deadline_s:
            self.timed_out = True
            raise DeadlineExceeded
        if self.sample:
            self._calibrate()

    def arm(self):
        if self.sample:
            self._calibrate()
        signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_S, self.SAMPLE_S)

    def disarm(self):
        if not self._armed:
            return
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self.sample:
            self._calibrate()
