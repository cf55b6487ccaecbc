"""Scaling timings to a reference machine speed.

The host this benchmark runs on shares its cores: the same code runs up to
half as fast for seconds or minutes at a time, and both wall and CPU time
show it.  So between the timed calls the harness times a fixed kernel
(JSON decoding, dict walking and integer arithmetic, like the package's
own hot paths) and scales each timing by ``REFERENCE_S / kernel time
around the call``.  A figure then reads as what the call would take when
the kernel takes ``REFERENCE_S``; raw figures print beside it.  The kernel
is part of the benchmark, so no change to the package can move it.
"""

from __future__ import annotations

import bisect
import json
import statistics
from time import perf_counter

#: best-of-3 kernel time on the host the bounds were set on (2 cores,
#: Python 3.11.7) in its uncontended phase; fixed, so figures stay comparable
REFERENCE_S = 0.00065
#: the kernel runs at most this often, after a timed call ends
INTERVAL_S = 0.1
#: kernel times within this distance of a call scale it
WINDOW_S = 0.5

_LINES = [
    json.dumps({"kind": "evidence", "merchant": f"m{i:05d}", "variable": "Delivery",
                "outcome": "positive", "timestamp": 1_700_000_000 + i})
    for i in range(150)
]


def kernel_seconds() -> float:
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        total = 0
        for record in map(json.loads, _LINES):
            for key, value in record.items():
                total += len(key) + (value if isinstance(value, int) else len(value)) % 7
        for i in range(5000):
            total += i * i % 7
        best = min(best, perf_counter() - t0)
    return best


class SpeedProbe:
    """Kernel times along a run, and the scale factor they give each call."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.kernel: list[float] = []

    def sample(self) -> None:
        seconds = kernel_seconds()
        self.times.append(perf_counter())
        self.kernel.append(seconds)

    def maybe_sample(self, now: float) -> None:
        if not self.times or now - self.times[-1] >= INTERVAL_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the median kernel time near ``[start, end]``."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.kernel[lo:hi]
        if not near:
            i = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
            near = [self.kernel[i]]
        return REFERENCE_S / statistics.median(near)

    def scaled(self, start: float, end: float) -> float:
        return (end - start) * self.factor(start, end)
