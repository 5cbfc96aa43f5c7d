"""Put timings taken on a shared, noisy host on one speed scale.

On a host whose cores are shared with other tenants, the same Python code
runs at two or more speeds that switch every few seconds. Measured on a
2-vCPU Xeon, one core alternated between 20 ms and 37 ms for one fixed loop,
and a noisy-all run between 1.9 s and 3.5 s. A median over runs cannot
remove that, because one whole benchmark invocation can fall into a slow
phase. So while a timed call runs, a timer signal runs a small fixed loop
every PROBE_INTERVAL_S on the same thread. A call's time is multiplied by
(REFERENCE_PROBE_S / median probe time during the call) ** SLOWDOWN_EXPONENT,
so it estimates the call's wall time on a core where the probe takes
REFERENCE_PROBE_S.

The exponent is there because strap slows less than the probe loop in a
slow phase, and by how much less depends on the work. Python-heavy
replay (noisy-all) slowed about 1.45x where the probe slowed 1.65x, an
exponent near 0.75. The memory-heavy long-suite fits about 0.5. With
SLOWDOWN_EXPONENT = 0.6, the spread of run_s over ten seeds (quartile
distance over median) fell to 0.05-0.07 on all three workloads, from
0.17-0.23 unscaled and 0.10-0.22 with the exponent 1. The probes add about
1% to the measured time.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Any

PROBE_INTERVAL_S = 0.025
# The probe's median time on an uncontended core of the host the baseline
# was measured on (2-vCPU Xeon, Python 3.11), so rescaled times read as
# seconds there.
REFERENCE_PROBE_S = 0.27e-3
SLOWDOWN_EXPONENT = 0.6


def _probe_loop() -> None:
    d: dict[tuple[int, int], int] = {}
    for i in range(1500):
        k = (i % 50, i & 7)
        d[k] = d.get(k, 0) + i


class SpeedProbe:
    """Context manager sampling the probe loop before, during and after a call."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous: Any = None

    def _tick(self, *_: Any) -> None:
        start = time.perf_counter()
        _probe_loop()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def scale(self) -> float:
        """Factor that turns a time measured inside the block into reference seconds."""
        return (REFERENCE_PROBE_S / statistics.median(self.samples)) ** SLOWDOWN_EXPONENT
