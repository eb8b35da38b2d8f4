"""Machine-speed sampling, so that times taken on a shared machine compare.

The benchmark's machine is a virtual one on a shared host.  Its vCPUs run
the same code up to about 1.8x slower or faster from one tenth of a second
to the next, and drift between a fast and a slow state for minutes at a
time, while the process's CPU time keeps equal to its wall time (there is
no steal to subtract).  Two sets of runs of the same code then disagree by
more than any bound the benchmark could keep.

`Sampler` measures that speed in the process being timed, while the
operation runs: a timer signal runs `probe`, a fixed pure-Python loop, every
INTERVAL_S.  An operation's time is its wall time less the time spent in
the probes, multiplied by REF_PROBE_S / (mean probe time during it), the
mean being taken without the fastest and slowest tenth of those probes.
The result reads in seconds at the speed where one probe takes
REF_PROBE_S, which is about this machine's usual speed.  The probe uses no
numpy and no fractions, so that starting a sampler before an import does
not import any of what is being timed.

The scaling is proportional: it fits no exponent to the program.  Some
operations slow down more than the probe when the machine does, and the
CLI and construct operations less, so no one exponent suits
every workload; between two sets of runs taken in different machine states
(probe 1.2 ms against 0.8 ms) the proportional scaling kept every
workload's median within 5%.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.05
REF_PROBE_S = 0.0012


def probe() -> int:
    """A fixed mix of interpreter work: integer arithmetic, a dict and big ints."""
    x = 0
    for i in range(6000):
        x += i * i % 7
    counts: dict[int, int] = {}
    for i in range(2400):
        counts[i % 31] = counts.get(i % 31, 0) + i
    n = 1
    for i in range(1, 200):
        n = n * i // math.gcd(n, i)
    return x + len(counts) + n % 97


def scale(mean_probe: float) -> float:
    """What a time taken while a probe took `mean_probe` on average is
    multiplied by to read at the reference speed."""
    return REF_PROBE_S / mean_probe


class Sampler:
    """Runs `probe` on a timer in this process and keeps when and how long."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        probe()
        took = perf_counter() - t0
        self.at.append(t0)
        self.took.append(took)
        self.spent += took

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        # the timer first: a SIGALRM without the handler would end the process
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean_probe(self, t0: float, t1: float) -> float:
        """Mean probe time over [t0, t1] without its fastest and slowest tenth,
        widened to the probe just before and the one just after when fewer
        than two fall inside."""
        if not self.took:
            raise RuntimeError("the speed sampler took no probe")
        i = bisect.bisect_left(self.at, t0)
        j = bisect.bisect_right(self.at, t1)
        if j - i < 2:
            i, j = max(0, i - 1), min(len(self.at), j + 1)
        took = sorted(self.took[i:j])
        cut = len(took) // 10
        return statistics.fmean(took[cut:len(took) - cut])

    def factor(self, t0: float, t1: float) -> float:
        """What a time taken over [t0, t1] is multiplied by to read at the
        reference speed."""
        return scale(self.mean_probe(t0, t1))
