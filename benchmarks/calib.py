"""Machine-speed calibration for the timing metrics.

On a shared machine the speed of one CPU changes by up to 1.7x within
seconds (neighbours contend for the core and its caches), and CPU time
slows down with wall time, so raw times of the same pass spread by a third
from run to run.  Every timed interval is therefore reported in *reference
seconds*: its time times REF_S over the time of a fixed exact-arithmetic
loop run at the same moments, that is, the time the interval would take on
a machine that runs the loop in REF_S.  The loop uses only the standard
library (`fractions`), so no change to qident moves it; a change that makes
qident do more work moves the reference time as much as the raw time.

The loop runs once before and once after each interval and, inside it,
briefly every TICK_S from a SIGALRM handler (the time the handler takes is
not counted), so that a change of speed in the middle of a long check is
seen too.

Set-up time is an import, which tracks the speed of the machine's memory
more than the loop does, so it is scaled by the time of importing a fixed
set of standard-library modules instead (`import_scale`).
"""

import importlib
import signal
import sys
import time
from fractions import Fraction

REF_S = 0.010      # about the loop's time on a quiet 2-CPU development VM
LOOP_N = 2800      # iterations of the full loop
TICK_N = 280       # iterations of the loop inside an interval
TICK_S = 0.05

# Pure-Python standard-library modules that neither qident nor the
# benchmark imports, and the time importing them takes on that VM.
REF_MODULES = ("difflib", "calendar", "configparser", "plistlib", "optparse",
               "pprint", "csv", "textwrap", "shlex", "string")
REF_IMPORT_S = 0.017


def loop_s(n=LOOP_N):
    """Seconds one run of the calibration loop takes now, scaled to LOOP_N
    iterations."""
    start = time.perf_counter()
    a = Fraction(355, 113)
    acc = 0
    for i in range(1, n):
        acc += (a * Fraction(i, i + 7) + a).numerator & 1
    return (time.perf_counter() - start) * LOOP_N / n


def import_scale():
    """REF_IMPORT_S over the time of importing REF_MODULES now: the factor
    from seconds of import work measured just before to reference seconds.
    Modules already imported are imported afresh."""
    for name in REF_MODULES:
        sys.modules.pop(name, None)
    start = time.perf_counter()
    for name in REF_MODULES:
        importlib.import_module(name)
    return REF_IMPORT_S / (time.perf_counter() - start)


class Clock:
    """Times calls in reference seconds.

        clock = Clock()
        result, (wall, cpu, ref_wall, ref_cpu) = clock.call(fn, *args)

    The loop run that ends one call's interval also starts the next one's.
    """

    def __init__(self):
        self.last = loop_s()
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(loop_s(TICK_N))
        self.spent += time.perf_counter() - t0

    def call(self, fn, *args):
        """fn(*args), and its (wall, cpu) seconds raw and in reference
        seconds, without the time spent in ticks."""
        self.samples = []
        self.spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - t0 - self.spent
            cpu = time.process_time() - c0 - self.spent
        now = loop_s()
        samples = [self.last, now] + self.samples
        self.last = now
        factor = REF_S * len(samples) / sum(samples)
        return result, (wall, cpu, wall * factor, cpu * factor)
