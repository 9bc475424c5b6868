"""Host-speed correction for timings taken on a shared, noisy host.

On a shared 2-core Intel Xeon VM, the same pass over the same inputs takes
up to 1.5 times longer at one moment than at another.
The host's speed changes over seconds to minutes as other tenants load it,
and CPU time tracks wall time, so no clock excludes it.  A run cannot pin
CPUs, fix the frequency or stop the neighbours.  Instead, `Sampler` times a
fixed pure-Python reference loop every few milliseconds from a SIGALRM
handler, while the timed work runs.  An op's host seconds, less the
handler's, are then scaled by NOMINAL_REF_S / (median reference time around
the op): its time on a host running at nominal speed.

The reference loop is the benchmark's own code.  A change to radiosim
cannot alter it, so scaled times of two commits compare directly.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.02
WINDOW_S = 0.1
# median reference_loop() time on a shared 2-core Intel Xeon VM (Python 3.11)
NOMINAL_REF_S = 0.0004


def reference_loop() -> int:
    """Fixed exact-rational work on the stdlib's Fraction: Python-level
    method calls, small allocations and gcds.  Of the loops tried (dict and
    set updates, small allocations, strided reads of a 4 MiB buffer), this
    one tracked the workloads' own slowdowns best."""
    rate, burst, hits = Fraction(3, 8), 2, 0
    for k in range(60):
        if k > rate * (k + 1) + burst:
            hits += 1
    return hits


class Sampler:
    """Context manager: samples reference_loop() times every INTERVAL_S."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_loop()
        self.times.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, start: float, end: float) -> float:
        """Nominal-speed seconds of the span [start, end] of perf_counter.

        The handler's own time inside the span is deducted.  The host's
        speed is the median reference time within WINDOW_S of the span, or
        of the nearest samples if none fall there.
        """
        inside = slice(bisect.bisect_left(self.starts, start),
                       bisect.bisect_right(self.starts, end))
        i = bisect.bisect_left(self.starts, start - WINDOW_S)
        j = bisect.bisect_right(self.starts, end + WINDOW_S)
        if i == j:
            i, j = max(0, i - 2), min(len(self.times), j + 2)
        elapsed = end - start - sum(self.times[inside])
        return elapsed * NOMINAL_REF_S / statistics.median(self.times[i:j])
