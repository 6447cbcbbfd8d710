"""A log of the machine's speed, sampled all through a measured run.

The speed of a shared machine jumps between states (here by a factor
of about 1.8) several times a second, for every process on it.  A
timer interrupts the benchmark every PERIOD_S and times a fixed probe:
a few products of small Laurent polynomials held as sorted
(exponent, coefficient) tuples, the same kind of pure-Python work the
program does, written here so that it never changes with the program.
The log of probe times then converts any span of wall time into
reference seconds: each stretch between two probes counts
REFERENCE_PROBE_S over the probe time there.  Probe time itself is left
out of every span.

Only one SpeedLog may run its timer at a time: it owns SIGALRM and
ITIMER_REAL.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import Callable

PERIOD_S = 0.01
# the probe's typical time in the slower of the two speed states of the
# 2-core machine the benchmark was defined on
REFERENCE_PROBE_S = 0.000_45
# each probe time is replaced by the median of itself and FILTER
# neighbours a side, so one interrupted probe does not count
FILTER = 2


class _Poly:
    """The probe's Laurent polynomial: normalised (exponent, coefficient) pairs."""

    __slots__ = ("terms",)

    def __init__(self, pairs) -> None:
        acc: dict[int, int] = {}
        for exp, coeff in pairs:
            acc[exp] = acc.get(exp, 0) + coeff
        self.terms = tuple((exp, acc[exp]) for exp in sorted(acc, reverse=True) if acc[exp])

    def __add__(self, other: "_Poly") -> "_Poly":
        return _Poly(self.terms + other.terms)

    def __mul__(self, other: "_Poly") -> "_Poly":
        return _Poly(
            (e1 + e2, c1 * c2) for e1, c1 in self.terms for e2, c2 in other.terms
        )


_BASE = (_Poly(((1, 1), (-1, 1))), _Poly(((2, 1), (0, -1), (-2, 3))), _Poly(((1, -2), (0, 1))))


def probe_work() -> int:
    value = _BASE[0]
    for i in range(10):
        value = value * _BASE[i % 3] + _BASE[(i + 1) % 3]
    return len(value.terms)


class SpeedLog:
    """Probe start times and durations, and the running probe total."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.spans: list[float] = []
        self.probe_total = 0.0
        self.on_tick: Callable[[], None] | None = None

    def probe(self) -> None:
        """Time the probe once; never call it while the timer runs."""
        start = time.perf_counter()
        probe_work()
        spent = time.perf_counter() - start
        self.starts.append(start)
        self.spans.append(spent)
        self.probe_total += spent

    def _on_alarm(self, signum, frame) -> None:
        self.probe()
        if self.on_tick is not None:
            self.on_tick()

    def start(self) -> None:
        self.probe()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()

    def _smoothed(self, i: int) -> float:
        return statistics.median(self.spans[max(0, i - FILTER) : i + FILTER + 1])

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds in the wall span [start, end], probes left out.

        Stretch i runs from the end of probe i to the start of probe
        i+1 and is weighted by the mean of the two smoothed probe
        times; before the first probe and after the last, the nearest
        probe's time holds.  A span that reaches past the latest probes
        may read a little differently once later probes are in.
        """
        starts, spans, smooth = self.starts, self.spans, self._smoothed
        count = len(starts)
        i = bisect.bisect_right(starts, start) - 1
        total = 0.0
        while True:
            low = starts[i] + spans[i] if i >= 0 else start
            high = starts[i + 1] if i + 1 < count else end
            if i < 0:
                weight = smooth(0)
            elif i + 1 >= count:
                weight = smooth(count - 1)
            else:
                weight = (smooth(i) + smooth(i + 1)) / 2
            overlap = min(end, high) - max(start, low)
            if overlap > 0:
                total += overlap / weight
            if high >= end:
                return total * REFERENCE_PROBE_S
            i += 1
