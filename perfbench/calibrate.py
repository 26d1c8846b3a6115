"""Host-speed reference: every time the benchmark reports is scaled by it.

The sandboxes this benchmark runs in share their CPUs with other tenants,
and the same work takes up to 40% longer from one minute to the next; a run
of 30 s cannot average that out. So a short kernel owned by the benchmark
(a Python loop over small NumPy arrays, as the solver does, and one larger
random-array pass, as the simulator does) is timed between the measured
segments, and each segment's time is multiplied by REFERENCE_S over the
mean of the kernel times on either side of it. Segments that run 2 worker
threads are scaled by the kernel run on 2 threads at once, which also sees
whether the second CPU is free. A reported second is thus a second of a
host on which the kernel takes REFERENCE_S. Nothing of rismac runs in the
kernel, so a faster program still shows as a smaller time.
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# the kernel's median time on 1 and on 2 threads, on the host of README.md's figures
REFERENCE_S = {1: 0.0042, 2: 0.0088}

_SMALL = np.linspace(0.1, 2.0, 64)


def _kernel_once() -> float:
    start = time.perf_counter()
    acc = 0.0
    for i in range(600):
        acc += float(np.log1p(_SMALL * (i % 7)).sum())
    big = np.random.default_rng(1).random((1024, 192))
    acc += float(np.sqrt(-np.log1p(-big)).sum())
    elapsed = time.perf_counter() - start
    if not acc > 0.0:
        raise RuntimeError("calibration kernel produced no result")
    return elapsed


def kernel_s(threads: int = 1) -> float:
    """Seconds the reference kernel takes now on `threads` threads at once:
    the median of three passes, so that one preemption does not skew a
    segment's scale. Two threads share the GIL in the loop and run the
    array pass in parallel, as a 2-worker campaign does."""
    def once():
        if threads == 1:
            return _kernel_once()
        start = time.perf_counter()
        with ThreadPoolExecutor(threads) as pool:
            for _ in pool.map(lambda _: _kernel_once(), range(threads)):
                pass
        return time.perf_counter() - start

    return statistics.median(once() for _ in range(3))


def scale(before: float, after: float, threads: int = 1) -> float:
    """Factor from seconds measured now to reference seconds, given kernel
    times taken just before and just after the measurement."""
    return 2.0 * REFERENCE_S[threads] / (before + after)


def scaled_s(fn, *args, **kwargs) -> float:
    """Seconds fn(*args, **kwargs) returns, scaled by the kernel around it."""
    before = kernel_s()
    seconds = fn(*args, **kwargs)
    return seconds * scale(before, kernel_s())


class Meter:
    """Accumulates scaled seconds per category of measured segment."""

    def __init__(self):
        self.totals: dict = {}
        self._last = (1, kernel_s())  # (threads, kernel seconds) after the last segment

    def time(self, category, fn, *args, threads: int = 1, **kwargs):
        """Run fn, add its time scaled by the `threads`-thread kernel to
        category, return its result."""
        before = self._last[1] if self._last[0] == threads else kernel_s(threads)
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        after = kernel_s(threads)
        self.totals[category] = (self.totals.get(category, 0.0)
                                 + elapsed * scale(before, after, threads))
        self._last = (threads, after)
        return out
