"""Host-speed correction of measured times.

The benchmark runs on shared hosts whose speed for pure-Python work drifts
by up to 1.7x between windows of a few seconds, far more than the changes it
must resolve.  So the measuring loops time a fixed pure-Python reference
between requests (and, while a request runs in a process of its own, from a
second thread of the idle benchmark process), and every request time is
scaled by ``REFERENCE_S`` over the median time of the reference samples
taken nearest to it.  A time is then what the request would take on a host where the
reference takes ``REFERENCE_S``: a slower program still reads slower, but a
slower host does not.  The reference is stdlib code of the benchmark's own,
so it does not change with the program, and it runs with the garbage
collector off, so the program's heap does not change its time.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import signal
import time
from fractions import Fraction

REFERENCE_S = 0.005  # nominal seconds of one reference call
NEAREST = 41  # reference samples whose median scales one time
SAMPLE_EVERY_S = 0.2  # period of the samples a request process takes itself


def reference() -> int:
    """Fixed pure-Python work of the engine's kind: tuple keys, dict
    updates, exact fractions and a keyed sort."""
    d: dict = {}
    acc = Fraction(0)
    for i in range(6000):
        k = (i % 97, i % 13, "x" * (i % 3))
        d[k] = d.get(k, 0) + 1
        if i % 50 == 0:
            acc += Fraction(i % 7, 8)
    return len(sorted(d.items(), key=lambda kv: (kv[1], kv[0]))) + acc.denominator


class HostSpeed:
    """Reference samples of one run, by the time they were taken."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self, n: int = 1) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(n):
                t0 = self.clock()
                reference()
                t1 = self.clock()
                self.at.append((t0 + t1) / 2)
                self.took.append(t1 - t0)
        finally:
            if enabled:
                gc.enable()

    def sample_every(self, seconds: float) -> None:
        """Interrupt this process every ``seconds`` to take one sample, so
        that a long request tracks the host while it runs."""
        signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, seconds, seconds)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"at": self.at, "took": self.took}, fh)

    def load(self, path: str) -> float:
        """Add the samples another process dumped (``perf_counter`` is the
        same monotonic clock in every process), delete the file, and return
        the seconds they took."""
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        os.remove(path)
        pairs = sorted(zip(self.at + data["at"], self.took + data["took"]))
        self.at, self.took = [a for a, _ in pairs], [t for _, t in pairs]
        return sum(data["took"])

    def scale(self, t: float) -> float:
        """``REFERENCE_S`` over the median of the ``NEAREST`` samples
        closest in time to ``t``."""
        i = bisect.bisect_left(self.at, t)
        lo = max(0, min(i - NEAREST // 2, len(self.at) - NEAREST))
        near = sorted(self.took[lo: lo + NEAREST])
        if not near:
            raise RuntimeError("no reference samples")
        mid = len(near) // 2
        median = near[mid] if len(near) % 2 else (near[mid - 1] + near[mid]) / 2
        return REFERENCE_S / median

    def factor(self) -> float:
        """The run's median host slowness: median reference time over
        ``REFERENCE_S`` (1 on the nominal host, 1.5 when 50% slower)."""
        ordered = sorted(self.took)
        return ordered[len(ordered) // 2] / REFERENCE_S
