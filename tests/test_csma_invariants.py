"""Invariant tests on the DCF machinery.

The central CSMA safety property: two nodes that can hear each other only
ever start overlapping transmissions within the carrier-sense detection
window of one another (the same-slot collision of real DCF).  Outside that
window, carrier sense must have prevented the overlap.
"""

import numpy as np

from repro.sim.engine import Simulator
from repro.wifi.csma import CsmaNode, DcfParams, Station, WifiMedium
from repro.wifi.frames import FrameTimings
from repro.wifi.rates import WIFI_MCS_TABLE


def _mutually_sensing_world(n_aps=3, seed=0, rts_cts=False):
    """All APs hear each other; RTS/CTS off by default so data frames are
    the *initial* frames of each TXOP (carrier sense applies to them
    directly -- with RTS/CTS on, two RTS exchanges that start in the same
    slot legitimately launch parallel, capture-separated TXOPs)."""
    sim = Simulator()
    params = DcfParams(
        timings=FrameTimings(bandwidth_hz=20e6), rts_cts=rts_cts
    )

    def loss(a, b):
        a_is_ap = a.station_id < 100
        b_is_ap = b.station_id < 100
        if a_is_ap and b_is_ap:
            return 60.0  # APs all hear each other clearly.
        if {a.station_id % 100, b.station_id % 100} == {a.station_id % 100}:
            pass
        # AP to its own client strong; everything else moderate.
        if abs(a.station_id - b.station_id) == 100:
            return 70.0
        return 95.0

    medium = WifiMedium(sim, loss, 20e6, params)
    nodes = []
    for i in range(n_aps):
        ap = Station(i, float(i * 10), 0.0, 20.0)
        client = Station(100 + i, float(i * 10), 50.0, 20.0)
        medium.add_station(ap)
        medium.add_station(client)
    for i in range(n_aps):
        node = CsmaNode(
            sim, medium, medium.station(i), params,
            np.random.default_rng(seed + i),
        )
        node.add_destination(100 + i, WIFI_MCS_TABLE[4])
        node.enqueue(100 + i, 1e9)
        nodes.append(node)
    return sim, medium, nodes, params


class TestCsmaSafety:
    def test_overlaps_only_within_detection_window(self):
        sim, medium, nodes, params = _mutually_sensing_world()
        sim.run(until=1.0)
        # Examine the full transmission history of AP-originated frames.
        history = [t for t in medium._history if t.src < 100]
        window = params.cs_delay_s + params.timings.slot_s
        for i, a in enumerate(history):
            for b in history[i + 1:]:
                if a.src == b.src:
                    continue
                overlap = min(a.end, b.end) - max(a.start, b.start)
                if overlap <= 0.0:
                    continue
                # Any overlap must stem from near-simultaneous starts.
                assert abs(a.start - b.start) <= window + 1e-9, (
                    f"{a.kind}@{a.start:.6f} vs {b.kind}@{b.start:.6f} "
                    f"overlap {overlap * 1e6:.1f} us outside the CS window"
                )

    def test_airtime_is_shared(self):
        sim, medium, nodes, params = _mutually_sensing_world()
        sim.run(until=2.0)
        delivered = [
            sum(s.bits_delivered for s in node.stats.values()) for node in nodes
        ]
        assert all(bits > 0.0 for bits in delivered)
        # Rough fairness among identical contenders.
        assert max(delivered) < 3.0 * min(delivered)

    def test_medium_never_reports_negative_time(self):
        sim, medium, nodes, params = _mutually_sensing_world()
        sim.run(until=0.5)
        for tx in medium._history:
            assert tx.end >= tx.start


class TestScenarioDeterminism:
    def test_build_scenario_reproducible(self):
        from repro.experiments.common import build_scenario

        a = build_scenario(seed=9, n_aps=4, clients_per_ap=3)
        b = build_scenario(seed=9, n_aps=4, clients_per_ap=3)
        assert [(c.x, c.y, c.ap_id) for c in a.topology.clients] == [
            (c.x, c.y, c.ap_id) for c in b.topology.clients
        ]

    def test_different_seeds_differ(self):
        from repro.experiments.common import build_scenario

        a = build_scenario(seed=9, n_aps=4, clients_per_ap=3)
        b = build_scenario(seed=10, n_aps=4, clients_per_ap=3)
        assert [(c.x, c.y) for c in a.topology.clients] != [
            (c.x, c.y) for c in b.topology.clients
        ]

    def test_full_scale_env_flag(self, monkeypatch):
        from repro.experiments import common

        for value in ("1", "true", "TRUE", "Yes", "on", " yes "):
            monkeypatch.setenv("REPRO_FULL", value)
            assert common.full_scale(), value
        for value in ("0", "false", "no", "off", "", "2"):
            monkeypatch.setenv("REPRO_FULL", value)
            assert not common.full_scale(), value
        monkeypatch.delenv("REPRO_FULL")
        assert not common.full_scale()
