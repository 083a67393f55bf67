"""A fixed reference kernel that measures the host's speed.

On a shared host the speed of the same code swings: on the 2-vCPU VM in
README.md by up to a factor of two, in bursts of seconds and in phases of
minutes to hours, with process CPU time tracking wall time (contention,
not preemption).  The benchmark therefore runs this kernel next to every
operation, and inside long ones, and reports each latency scaled to the
kernel's nominal time:

    latency = measured seconds * NOMINAL_S / (kernel seconds around it)

The kernel is the benchmark's own code and does not touch posetrep, so a
change to posetrep moves the scaled latencies as it moves the measured
ones, while a change of host speed moves both the operation and the
kernel next to it and cancels.  The kernel mixes what the commands spend
their time on: interpreted Python (exact ``Fraction`` arithmetic, dicts,
string formatting and parsing) and small dense complex linear algebra
through numpy.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

#: A fixed scale: scaled latencies read as seconds on a host that runs the
#: kernel in this time.  It must not change, or every latency moves with it.
NOMINAL_S = 0.002

_RNG = np.random.default_rng(20120317)
_MATS = [_RNG.standard_normal((d, d)) + 1j * _RNG.standard_normal((d, d))
         for d in (2, 2, 4, 4, 8) * 4]


def _python_part() -> int:
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i, i * i + 1)
    table: dict[str, int] = {}
    for i in range(1500):
        key = f"v{i % 37}"
        table[key] = table.get(key, 0) + i
    words = [complex(f"{i}.5+{i % 7}j") for i in range(200)]
    return total.denominator % 97 + len(table) + int(sum(words).real)


def _numpy_part() -> float:
    acc = 0.0
    for m in _MATS:
        h = m @ m.conj().T
        acc += float(np.linalg.svd(m, compute_uv=False)[0])
        w, v = np.linalg.eigh(h)
        acc += float(w[-1]) + float(np.abs(v[0, 0]))
        acc += float(np.linalg.norm(np.linalg.qr(m)[0] @ m))
    return acc


def kernel_seconds() -> float:
    """Wall time of one run of the kernel."""
    t0 = time.perf_counter()
    _python_part()
    _numpy_part()
    return time.perf_counter() - t0


class Sampler:
    """Runs the kernel from a SIGALRM handler every ``interval`` seconds of
    wall time while started, and whenever ``sample`` is called (between two
    operations), so that an operation of any length has kernel runs beside
    it and, if it is long, inside it.  The handler runs in the main thread
    between two bytecodes of whatever is running; its time is recorded and
    taken out of the operation it fell in."""

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        #: per kernel run: handler start (perf_counter), kernel seconds,
        #: handler seconds
        self.starts: list[float] = []
        self.kernel: list[float] = []
        self.spent: list[float] = []
        self._previous = None
        self._busy = False

    def sample(self) -> None:
        """Run and record the kernel once."""
        if self._busy:  # the alarm went off during a sample
            return
        self._busy = True
        t0 = time.perf_counter()
        k = kernel_seconds()
        self.starts.append(t0)
        self.kernel.append(k)
        self.spent.append(time.perf_counter() - t0)
        self._busy = False

    def _handler(self, signum, frame):
        self.sample()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def spent_in(self, t0: float, t1: float) -> float:
        """Handler seconds that began between t0 and t1."""
        i, j = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        return sum(self.spent[i:j])

    def speed(self, t0: float, t1: float, beside: int = 3) -> float:
        """Kernel seconds around the span [t0, t1]: the median of the runs
        inside it and of ``beside`` runs on either side."""
        i, j = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        return statistics.median(self.kernel[max(0, i - beside): j + beside]
                                 or self.kernel)
