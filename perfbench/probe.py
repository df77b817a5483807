"""Speed probe: how fast this machine runs Python while a pass runs.

The host lends this VM its cores, and how fast they run drifts with the load
of other tenants: the same pass can take 7 s or 12 s an hour apart, and
no steal time shows it. A pass's time alone then measures the host as much
as the program. The probe runs a small fixed piece of pure-Python work every
`INTERVAL_S` of wall time during the pass (from a SIGALRM handler, so on the
main thread between bytecodes) and times it on the thread's CPU clock. The
trimmed mean of those samples tracks the machine's speed over the very
interval the pass ran, and the benchmark divides pass times by it.

The probe's work does not touch wignerlab, so a change to the program never
changes it. It costs the pass about 1 % of its time. It samples the main
thread only: work a future version hands to other threads or processes is
rescaled by the main thread's speed. The thread CPU clock keeps the probe
blind to waiting for the program's own threads and processes, but not to
a host that runs the core slower.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02
TRIM = 0.1  # share of samples dropped at each end before averaging
REFERENCE_US = 100.0  # probe time that rescaled times are expressed at


def _work() -> int:
    counts: dict[tuple[int, int], int] = {}
    for i in range(400):
        key = (i % 7, i % 11)
        counts[key] = counts.get(key, 0) + i
    return len(counts)


class Probe:
    """Sample the probe work every INTERVAL_S between start() and stop()."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.thread_time()
        _work()
        self.samples.append(time.thread_time() - t0)

    def start(self) -> None:
        for _ in range(50):  # warm the probe's code and data before timing it
            _work()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def trimmed_mean_us(self) -> float:
        s = sorted(self.samples)
        if not s:
            return 0.0
        k = int(len(s) * TRIM)
        return statistics.fmean(s[k : len(s) - k]) * 1e6
