"""Machine-speed gauge: turns stretches of wall time into seconds at a fixed
reference speed.

The shared hosts this benchmark runs on change speed from one 10-ms slice to
the next: a fixed pure-Python loop timed in back-to-back slices takes
anywhere from 1x to 2x its fastest time, and the mix shifts from one minute
to the next, so the raw wall time of one repetition moved by 30 % between
repetitions of the same work.  The guest sees no steal time, so no clock it
can read excludes the slowdown.

The gauge measures the speed while the program runs.  A SIGALRM timer
interrupts the process every ``INTERVAL_S`` seconds of wall time; the handler
runs in the main thread, between the program's bytecodes, and times a fixed
computation with the standard library's ``Fraction`` (the probe), which
slows down the way the program's own exact arithmetic does.  Each stretch of
program time between two probes is scaled by ``REFERENCE_S`` over the mean
time of the two probes around it, so a stretch counts as the time it would
have taken on a machine that runs the probe in ``REFERENCE_S``.  The probes'
own time is left out.  ``start`` and ``stop`` each take a probe, so every
stretch lies between two.

On repetitions of the same work the scaled time spread ten times less than
the raw wall time (coefficient of variation 0.7-2 % against 17-19 %).  The
probe depends on the interpreter and the machine only, never on the program,
so a change to the program moves the scaled time as it moves the wall time.
"""

from __future__ import annotations

import signal
from array import array
from fractions import Fraction
from time import perf_counter

# The probe's time on the reference machine; a slower machine's stretches
# are scaled down by the ratio.
REFERENCE_S = 1e-4
INTERVAL_S = 0.01
# Room for one probe per interval over the longest run a benchmark run allows.
CAPACITY = 18_000


def probe() -> Fraction:
    """The fixed computation the gauge times: ~40 small Fraction additions."""
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(i, 2 * i + 1)
    return total


class Gauge:
    """Samples the machine's speed from ``start`` to ``stop``.

    Probe times go into arrays of C doubles allocated up front, so a probe
    leaves no Python object behind: objects kept from inside the program's
    run would pin its memory pools and raise its peak resident set (by
    1-2 MB, varying from run to run, when the times were kept as tuples).
    """

    def __init__(self) -> None:
        self.starts = array("d", bytes(8 * CAPACITY))
        self.ends = array("d", bytes(8 * CAPACITY))
        self.count = 0
        self._previous = None

    def record(self, start: float, end: float) -> None:
        """Keep one probe's start and end; probes past CAPACITY are dropped."""
        if self.count < CAPACITY:
            self.starts[self.count] = start
            self.ends[self.count] = end
            self.count += 1

    def _probe(self, *_signal) -> None:
        t0 = perf_counter()
        probe()
        self.record(t0, perf_counter())

    def start(self) -> float:
        """Install the timer, take the first probe and return the time after it."""
        self.count = 0
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return perf_counter()

    def stop(self) -> float:
        """Stop the timer, take the last probe and return the time before it."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        t = perf_counter()
        self._probe()
        return t

    def reference_s(self, a: float, b: float) -> float:
        """Program time between perf_counter readings ``a`` and ``b``, in
        seconds at the reference speed."""
        s, e = self.starts, self.ends
        total = 0.0
        for i in range(self.count - 1):
            lo, hi = max(e[i], a), min(s[i + 1], b)
            if hi > lo:
                total += (hi - lo) * 2 * REFERENCE_S / (
                    (e[i] - s[i]) + (e[i + 1] - s[i + 1]))
        return total

    def probe_s(self) -> float:
        """Median probe time over the gauged stretch: the machine's speed."""
        times = sorted(self.ends[i] - self.starts[i] for i in range(self.count))
        return times[len(times) // 2]
