"""Machine-speed samples taken while a timed span runs, and the times they normalise.

A shared host's cores slow down by half or more for tens of seconds at a
time when other tenants load them, so a raw time says as much about the
neighbours as about the program. While a span is timed, a Sampler runs a
fixed reference computation from a SIGALRM handler every PERIOD_S seconds:
the handler runs between the program's bytecodes, so the samples see the
same core at the same moments as the program does. A normalised time is
the span's time with the handler's share taken out, scaled by
REF_S / (mean reference time in the span): the seconds the program would
have taken on a core that runs the reference in REF_S.

The reference allocates no object that the garbage collector tracks, so it
never starts a collection of the program's heap. It reads a 256-entry
table, small enough to refill at once after the program has evicted it, so
its time does not depend on what the program under test allocates or
caches. (A 64k-entry table ran about three times slower inside a 100k-row
command than alone, which would tie the normalisation to the program's
memory use.)
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.025  # between two samples
ROUNDS = 2000  # table reads per sample, about 0.3 ms on an unloaded core
REF_S = 0.0003  # the reference's time on the core normalised times refer to
MASK = 0xFF


def reference(table, rounds=ROUNDS) -> int:
    """The fixed computation whose time measures the core's speed."""
    x = 1
    for i in range(rounds):
        x = table[(x ^ (i * 2654435761)) & MASK]
    return x


class Sampler:
    """Samples the reference's time while started; one sample at each end too.

    Use it once: start(), the timed work, stop(). `busy_s` is the time the
    handler took inside the timed span, which normalise() takes out.
    """

    def __init__(self):
        self.table = [(i * 40503 + 7) & MASK for i in range(MASK + 1)]
        self.samples: list[float] = []
        self.busy_s = 0.0
        self._previous = None

    def _sample(self) -> float:
        t0 = time.perf_counter()
        reference(self.table)
        spent = time.perf_counter() - t0
        self.samples.append(spent)
        return spent

    def _on_alarm(self, signum, frame):
        self.busy_s += self._sample()

    def start(self) -> None:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> float:
        """Stop sampling and return the handler's time inside the span."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        busy = self.busy_s
        self._sample()
        return busy

    def slowdown(self) -> float:
        """Mean reference time over REF_S: 2.0 means the core ran at half speed."""
        return statistics.fmean(self.samples) / REF_S

    def normalise(self, seconds: float, busy_s: float) -> float:
        """seconds, less the handler's busy_s, at the speed REF_S stands for."""
        return (seconds - busy_s) / self.slowdown()
