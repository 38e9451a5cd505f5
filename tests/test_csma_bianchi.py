"""The DCF engine against Bianchi's saturation model (JSAC 2000).

``n`` saturated APs each send to one client; every link, AP-AP and
AP-client alike, loses 70 dB, so every station hears every other, two
frames that start in the same slot both fail, and RTS/CTS is off.  A
data frame then fails exactly when another AP picked the same backoff
slot, which is the collision probability ``p`` of Bianchi's fixed point:

    tau = 2 / (W + 1 + p W sum_{i<m} (2p)^i),   p = 1 - (1 - tau)^(n-1)

With ``FrameTimings``' ``cw_min`` 15 and ``cw_max`` 1023 (``W = 16``,
``m = 6``), ``p`` is 0.105 / 0.272 / 0.384 / 0.481 at n = 2 / 5 / 10 / 20.
The simulated failed/attempted data-frame ratio, averaged over seeds
0-4 at 3 simulated seconds each, must lie within 0.03 of it, and rise
with ``n``.  The per-seed spread is 0.01-0.025; the model ignores the
retry limit (7), which is part of why n = 20 reads ~0.02 high.
"""

import statistics

import numpy as np
import pytest

from repro.sim.engine import Simulator
from repro.wifi.csma import CsmaNode, DcfParams, Station, WifiMedium
from repro.wifi.frames import FrameTimings
from repro.wifi.rates import WIFI_MCS_TABLE

SEEDS = (0, 1, 2, 3, 4)
SIM_SECONDS = 3.0
TOLERANCE = 0.03
STATIONS = (2, 5, 10, 20)


def bianchi_collision_probability(n, window, stages):
    """Solve Bianchi's fixed point for ``p`` by bisection on [0, 1]."""
    lo, hi = 0.0, 1.0
    for _ in range(100):
        p = 0.5 * (lo + hi)
        backoff_sum = sum((2.0 * p) ** i for i in range(stages))
        tau = 2.0 / (window + 1 + p * window * backoff_sum)
        if 1.0 - (1.0 - tau) ** (n - 1) > p:
            lo = p
        else:
            hi = p
    return 0.5 * (lo + hi)


def failure_ratio(n, seed):
    """Failed/attempted data frames of ``n`` saturated, all-hearing APs."""
    sim = Simulator()
    params = DcfParams(timings=FrameTimings(bandwidth_hz=20e6), rts_cts=False)
    medium = WifiMedium(sim, lambda a, b: 70.0, 20e6, params)
    for i in range(n):
        medium.add_station(Station(i, float(i), 0.0, 20.0))
        medium.add_station(Station(100 + i, float(i), 1.0, 20.0))
    nodes = []
    for i in range(n):
        node = CsmaNode(
            sim, medium, medium.station(i), params, np.random.default_rng([seed, i])
        )
        node.add_destination(100 + i, WIFI_MCS_TABLE[4])
        node.enqueue(100 + i, 1e12)
        nodes.append(node)
    sim.run(until=SIM_SECONDS)
    links = [link for node in nodes for link in node.stats.values()]
    attempts = sum(link.data_attempts for link in links)
    assert attempts > 0
    return sum(link.data_failures for link in links) / attempts


@pytest.fixture(scope="module")
def measured():
    return {
        n: statistics.mean(failure_ratio(n, seed) for seed in SEEDS)
        for n in STATIONS
    }


def test_fixed_point_matches_published_values():
    timings = FrameTimings(bandwidth_hz=20e6)
    window = timings.cw_min + 1
    stages = int(np.log2((timings.cw_max + 1) / window))
    assert (window, stages) == (16, 6)
    expected = (0.105, 0.272, 0.384, 0.481)
    for n, p in zip(STATIONS, expected):
        assert bianchi_collision_probability(n, window, stages) == pytest.approx(
            p, abs=5e-4
        )


@pytest.mark.parametrize("n", STATIONS)
def test_failure_ratio_matches_bianchi(measured, n):
    p = bianchi_collision_probability(n, 16, 6)
    assert abs(measured[n] - p) <= TOLERANCE, (n, measured[n], p)


def test_failure_ratio_rises_with_contenders(measured):
    ratios = [measured[n] for n in STATIONS]
    assert ratios == sorted(ratios) and len(set(ratios)) == len(ratios)
