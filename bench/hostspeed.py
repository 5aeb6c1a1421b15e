"""Host-speed adjustment of measured times.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same compiled walk reads 40 ms in one stretch of ten to twenty seconds and
68 ms in the next, and other work on the same kind of resource slows by
about the same factor at the same time.  A fixed reference task that calls
no terniq code runs between operations; a time measured at moment t is
scaled by ``ref_s / r(t)``, where ``r(t)`` is the median duration of the
reference runs nearest to t and ``ref_s`` the task's duration at the
reference speed.  An adjusted time reads as the time the operation would
take on a host that runs the reference task in ``ref_s``.  A change to the
program moves its operation times and leaves the reference alone, so its
effect shows in full; a change in the host's speed moves both and cancels.

Interpreted Python and large numpy passes do not slow by the same factor
(a wide QFT slows about 0.6 times as much, in log terms, as an interpreted
loop), so each workload names the task that matches the resource its
operations spend most of their time on: ``interpreter``, or ``mixed`` (an
interpreted loop and a numpy pass, timed as one).
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: a reference run is made once at least this much time has passed since
#: the last one, so it costs 2 to 4 % of the timed phase
EVERY_S = 0.03
#: reference runs whose median gives the speed at one moment
WINDOW = 9


def interpreter_task(table=tuple(range(97))) -> int:
    """Interpreted integer arithmetic and tuple and dict access.

    It allocates no container inside its loop, so no garbage collection of
    the program's heap runs during it.
    """
    counts = dict.fromkeys(range(16), 0)
    acc = 0
    for i in range(3000):
        j = table[(i * 7) % 97]
        counts[j & 15] += 1
        acc = (acc * 3 + j // 5) % 1000003
    return acc + sum(counts.values())


def memory_task(amps=np.exp(1j * np.arange(3**11))) -> float:
    """One numpy pass over a 2.8 MB complex vector, as a wide gate makes."""
    return float(np.abs(amps).sum())


def mixed_task() -> float:
    """Both tasks, for workloads whose time is split between the two."""
    return interpreter_task() + memory_task()


#: name -> (task, its duration at the reference speed in seconds: about its
#: quiet-host time on a 2-vCPU Intel Xeon VM with Python 3.11, numpy 2.4)
REFERENCES = {
    "interpreter": (interpreter_task, 0.6e-3),
    "mixed": (mixed_task, 1.2e-3),
}


class HostSpeed:
    """Reference runs over one process's life, and the factor they imply."""

    def __init__(self, reference: str):
        self.reference = reference
        self.task, self.ref_s = REFERENCES[reference]
        self.stamps: list[float] = []
        self.durations: list[float] = []

    def sample(self, reps: int = 1):
        for _ in range(reps):
            t0 = time.perf_counter()
            self.task()
            t1 = time.perf_counter()
            self.stamps.append(t1)
            self.durations.append(t1 - t0)

    def maybe_sample(self, now: float):
        if not self.stamps or now - self.stamps[-1] >= EVERY_S:
            self.sample()

    def factor(self, t: float) -> float:
        """``ref_s`` over the median of the WINDOW reference runs nearest to t."""
        i = bisect.bisect_left(self.stamps, t)
        lo = max(0, min(i - WINDOW // 2, len(self.stamps) - WINDOW))
        return self.ref_s / statistics.median(self.durations[lo:lo + WINDOW])

    def timed(self, fn, *args):
        """``(fn(*args), measured seconds, factor)``, with reference runs around it."""
        self.sample(WINDOW // 2 + 1)
        t0 = time.perf_counter()
        result = fn(*args)
        t1 = time.perf_counter()
        self.sample(WINDOW // 2 + 1)
        return result, t1 - t0, self.factor((t0 + t1) / 2)

    def adjust(self, t: float, seconds: float) -> float:
        """``seconds`` measured around moment t, at the reference speed."""
        return seconds * self.factor(t)

    def median_ref_s(self) -> float:
        return statistics.median(self.durations)
