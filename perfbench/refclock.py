"""Host-speed normalization: a fixed reference kernel and its clock.

Shared cloud hosts drift in speed by tens of percent within minutes, which
is wider than any useful regression bound.  Every timed interval in the
benchmark is therefore scaled by ``K_REF_S / K_now``, where ``K_now`` is
the time this kernel takes right next to the interval (run outside the
timed region) and ``K_REF_S`` is the kernel time on the reference host.
Reported host times are thus *reference-host seconds*.

The kernel is fixed code that never calls into the simulator, so a faster
simulator cannot speed up the reference.  It imitates where the
simulator's host time goes: an interpreted integer loop, linear scans over
small objects, a heap-driven event loop with dict updates, and a small
numpy reduction.  Against the simulator's own steps this mix tracked host
speed better than the integer loop, the object walks or numpy alone.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import List

import numpy as np

#: Kernel time on the reference host (2-vCPU x86-64 cloud VM, CPython
#: 3.11).  A constant: changing it rescales every host-time metric, so it
#: is part of the benchmark definition.
K_REF_S = 0.0120

#: Kernel repetitions per sample; the sample is their median.
_REPEATS = 3

_VECTOR = np.linspace(0.0, 1.0, 20_000)


class _Site:
    def __init__(self, cid: int, x: float, y: float, ap: int) -> None:
        self.cid = cid
        self.x = x
        self.y = y
        self.ap = ap


_SITES = [_Site(i, i * 0.5, -i * 0.25, i % 200) for i in range(1200)]
_TABLE = {(i, j): float(i + j) for i in range(300) for j in range(40)}


def kernel_once() -> float:
    """One run of the reference kernel; returns its wall seconds."""
    start = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    for _ in range(3):
        for target in range(7, 1200, 60):
            for site in _SITES:
                if site.cid == target:
                    acc += site.ap
                    break
        queue: list = []
        for i in range(1200):
            heapq.heappush(queue, ((i * 7919) % 1201 * 0.001, i, _SITES[i]))
        sums: dict = {}
        while queue:
            when, seq, site = heapq.heappop(queue)
            sums[site.ap] = sums.get(site.ap, 0.0) + _TABLE[seq % 300, seq % 40] * when
        acc += len(sums)
    total = acc + float(_VECTOR.sum())
    elapsed = time.perf_counter() - start
    if total != total:  # keeps the results live
        raise RuntimeError("reference kernel produced NaN")
    return elapsed


def sample() -> float:
    """One ``K_now`` sample: the median of a few kernel runs."""
    return statistics.median(kernel_once() for _ in range(_REPEATS))


class RefClock:
    """Times intervals and converts them to reference-host seconds.

    Call :meth:`mark` between intervals (outside any timed region); each
    interval passed to :meth:`record` is normalized by the mean of the
    kernel samples taken just before and just after it.  Every raw time
    and every ``K_now`` sample stays in :attr:`raw_s` / :attr:`k_samples`
    for the run record.
    """

    def __init__(self) -> None:
        self.k_samples: List[float] = []
        self.raw_s: List[float] = []
        self.ref_s: List[float] = []
        self._k_last = 0.0

    def mark(self) -> None:
        """Take a kernel sample; closes the last interval, opens the next."""
        k_now = sample()
        self.k_samples.append(k_now)
        if len(self.raw_s) > len(self.ref_s):
            k_mean = 0.5 * (self._k_last + k_now)
            self.ref_s.append(self.raw_s[-1] * K_REF_S / k_mean)
        self._k_last = k_now

    def record(self, raw_s: float) -> None:
        """Register the raw seconds of the interval since the last mark."""
        self.raw_s.append(raw_s)
