"""Host speed, read off a fixed reference kernel run between units.

On a shared host other tenants slow every process by up to 1.9x, in
phases that last from seconds to minutes; repeating units or running
longer does not average that out within a run.  The benchmark therefore
runs a fixed kernel -- plain Python, small numpy calls and one dense
product, none of it lidarreg code -- before and after every timed unit
and set-up, and prints the host speed it read.

Each unit's and set-up's time is *scaled*: multiplied by
``REF_SECONDS`` over the median kernel time near it, giving the time it
would have taken on the host at the speed where the kernel takes
``REF_SECONDS``.  The kernel does not follow every short swing of a unit,
but it follows the phases: between a quiet and a busy stretch of the
host, ``scene-dense`` pairs and the kernel both slowed by about 1.4x.

A change to lidarreg moves the unit's time and not the kernel's, so the
scaled time moves with it.  Raw wall-clock figures are printed beside
the scaled ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# The kernel's time on an idle 2-vCPU VM (Python 3.11, numpy 2.4, one
# BLAS thread).  Only a fixed scale: it sets what "reference speed" means.
REF_SECONDS = 0.025
# Host speed phases last seconds or longer; kernel samples this close to
# a unit are pooled.
WINDOW_S = 5.0
# After a unit the kernel runs for about this share of the unit's time
# (at least once), so a long unit gets as many samples as short ones do.
SAMPLE_SHARE = 0.05

_rng = np.random.default_rng(12345)
_TRI = _rng.normal(size=(64, 3, 3))
_A = _rng.normal(size=(384, 48))
_B = _rng.normal(size=(384, 48))
_EDGE_I = np.array([0, 0, 1])
_EDGE_J = np.array([1, 2, 2])


def _kernel() -> float:
    acc = 0
    for i in range(100_000):
        acc += (i * i) % 7
    for k in range(500):
        p = _TRI[k % 64]
        d = np.sqrt(np.sum((p[_EDGE_I] - p[_EDGE_J]) ** 2, axis=1))
        acc += int(np.all(d >= 0.0))
    for _ in range(24):
        acc += int((_A @ _B.T).argmin(axis=1)[0])
    return float(acc)


class HostClock:
    """Kernel runs with their times; scales work done between them."""

    def __init__(self) -> None:
        _kernel()                       # first call pays for imports and caches
        self.samples: list[tuple[float, float]] = []    # (midpoint, seconds)

    def sample(self, after_s: float = 0.0) -> None:
        """Run the kernel once, and again until ``SAMPLE_SHARE`` of the
        ``after_s`` seconds of work just done have been spent on it."""
        start = perf_counter()
        while True:
            t0 = perf_counter()
            _kernel()
            t1 = perf_counter()
            self.samples.append((0.5 * (t0 + t1), t1 - t0))
            if t1 - start >= SAMPLE_SHARE * after_s:
                return

    @property
    def kernel_s(self) -> list[float]:
        return [dt for _, dt in self.samples]

    def factor(self, start: float, end: float) -> float:
        """Scale for work done from ``start`` to ``end`` (perf_counter).

        From the kernel's median time over the samples within
        ``WINDOW_S`` of the interval; a single 25 ms sample is too noisy
        on its own.
        """
        near = [dt for t, dt in self.samples
                if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:
            raise ValueError("no kernel sample near the timed interval")
        return REF_SECONDS / statistics.median(near)
