"""Empirical statistics used by the experiments and benchmarks.

The paper reports nearly every result as a CDF (Figures 1, 2, 7, 9) or a
percentile ("median flow completion times", "30-40% of starved clients"), so
this module provides a small, well-tested :class:`Cdf` type plus fairness and
percentile helpers.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """Return the ``q``-th percentile (0-100) using linear interpolation.

    Matches numpy's default ("linear") interpolation so results are stable
    whether callers use this helper or numpy directly.

    Raises:
        ValueError: on an empty input or ``q`` outside [0, 100].
    """
    if not values:
        raise ValueError("cannot take a percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q!r}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lower = math.floor(rank)
    upper = math.ceil(rank)
    if lower == upper:
        return ordered[lower]
    weight = rank - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly fair, 1/n = maximally unfair.

    Raises:
        ValueError: on an empty input.
    """
    if not values:
        raise ValueError("cannot compute fairness of an empty sequence")
    total = sum(values)
    square_sum = sum(v * v for v in values)
    if square_sum == 0.0:
        # All-zero allocations are (degenerately) fair.
        return 1.0
    return (total * total) / (len(values) * square_sum)


class Cdf:
    """An empirical cumulative distribution function.

    Stores all samples; evaluation sorts lazily and caches.  This favours
    clarity over memory: experiment sample counts here are in the thousands.
    """

    def __init__(self, samples: Iterable[float] = ()) -> None:
        self._samples: List[float] = list(samples)
        self._sorted: List[float] | None = None

    def add(self, value: float) -> None:
        """Add one sample."""
        self._samples.append(value)
        self._sorted = None

    def extend(self, values: Iterable[float]) -> None:
        """Add many samples."""
        self._samples.extend(values)
        self._sorted = None

    def __len__(self) -> int:
        return len(self._samples)

    def _ensure_sorted(self) -> List[float]:
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        return self._sorted

    def evaluate(self, x: float) -> float:
        """Return P(X <= x)."""
        ordered = self._ensure_sorted()
        if not ordered:
            raise ValueError("CDF has no samples")
        # Binary search for the right-most index with value <= x.
        lo, hi = 0, len(ordered)
        while lo < hi:
            mid = (lo + hi) // 2
            if ordered[mid] <= x:
                lo = mid + 1
            else:
                hi = mid
        return lo / len(ordered)

    def quantile(self, fraction: float) -> float:
        """Return the value at CDF level ``fraction`` (0-1)."""
        return percentile(self._samples, fraction * 100.0)

    def median(self) -> float:
        """Return the 50th percentile."""
        return self.quantile(0.5)

    def fraction_below(self, threshold: float) -> float:
        """Return the fraction of samples strictly below ``threshold``.

        Used for starvation metrics, e.g. "fraction of clients with
        throughput below 50 kb/s".
        """
        ordered = self._ensure_sorted()
        if not ordered:
            raise ValueError("CDF has no samples")
        lo, hi = 0, len(ordered)
        while lo < hi:
            mid = (lo + hi) // 2
            if ordered[mid] < threshold:
                lo = mid + 1
            else:
                hi = mid
        return lo / len(ordered)

    def points(self, max_points: int = 200) -> List[Tuple[float, float]]:
        """Return (x, P(X<=x)) pairs suitable for plotting, downsampled."""
        ordered = self._ensure_sorted()
        if not ordered:
            return []
        n = len(ordered)
        step = max(1, n // max_points)
        pts = [(ordered[i], (i + 1) / n) for i in range(0, n, step)]
        if pts[-1][1] != 1.0:
            pts.append((ordered[-1], 1.0))
        return pts

    def mean(self) -> float:
        """Arithmetic mean of the samples."""
        if not self._samples:
            raise ValueError("CDF has no samples")
        return sum(self._samples) / len(self._samples)

    @property
    def samples(self) -> List[float]:
        """A copy of the raw samples."""
        return list(self._samples)
