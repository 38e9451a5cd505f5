"""Unit tests for the CSMA/CA (DCF) machinery."""

import dataclasses

import numpy as np
import pytest

from repro.sim.engine import Simulator
from repro.wifi.csma import (
    CsmaNode,
    DcfParams,
    Station,
    Transmission,
    WifiMedium,
    mpdu_delivery_fraction,
)
from repro.wifi.frames import FrameTimings
from repro.wifi.rates import WIFI_MCS_TABLE
from tests.test_wifi_sinr_window import _fig9_cell


def _flat_loss(db):
    return lambda a, b: db


def _medium(sim, loss_db=80.0, bandwidth=20e6, **param_kwargs):
    params = DcfParams(timings=FrameTimings(bandwidth_hz=bandwidth), **param_kwargs)
    return WifiMedium(sim, _flat_loss(loss_db), bandwidth, params)


class TestMpduFraction:
    def test_full_delivery_at_operating_point(self):
        assert mpdu_delivery_fraction(20.0, 20.0) == 1.0
        assert mpdu_delivery_fraction(30.0, 20.0) == 1.0

    def test_total_loss_deep_below(self):
        assert mpdu_delivery_fraction(10.0, 20.0) == 0.0

    def test_linear_in_between(self):
        assert mpdu_delivery_fraction(17.0, 20.0) == pytest.approx(0.5)


class TestTransmission:
    def test_overlap_fraction_full(self):
        a = Transmission(src=0, dst=1, kind="data", start=0.0, end=1.0)
        b = Transmission(src=2, dst=3, kind="data", start=0.0, end=2.0)
        assert a.overlap_fraction(b) == 1.0

    def test_overlap_fraction_partial(self):
        a = Transmission(src=0, dst=1, kind="data", start=0.0, end=1.0)
        b = Transmission(src=2, dst=3, kind="data", start=0.5, end=2.0)
        assert a.overlap_fraction(b) == pytest.approx(0.5)

    def test_no_overlap(self):
        a = Transmission(src=0, dst=1, kind="data", start=0.0, end=1.0)
        b = Transmission(src=2, dst=3, kind="data", start=1.5, end=2.0)
        assert a.overlap_fraction(b) == 0.0


class TestMedium:
    def test_duplicate_station_rejected(self):
        sim = Simulator()
        medium = _medium(sim)
        medium.add_station(Station(0, 0, 0, 20.0))
        with pytest.raises(ValueError):
            medium.add_station(Station(0, 1, 1, 20.0))

    def test_rx_power(self):
        sim = Simulator()
        medium = _medium(sim, loss_db=70.0)
        medium.add_station(Station(0, 0, 0, 20.0))
        medium.add_station(Station(1, 10, 0, 20.0))
        assert medium.rx_dbm(0, 1) == pytest.approx(-50.0)

    def test_hears_depends_on_threshold(self):
        sim = Simulator()
        medium = _medium(sim, loss_db=70.0)
        medium.add_station(Station(0, 0, 0, 20.0))
        medium.add_station(Station(1, 10, 0, 20.0))
        assert medium.hears(1, 0)  # -50 dBm is way above threshold.

    def test_does_not_hear_weak_signal(self):
        sim = Simulator()
        medium = _medium(sim, loss_db=150.0)
        medium.add_station(Station(0, 0, 0, 20.0))
        medium.add_station(Station(1, 10, 0, 20.0))
        assert not medium.hears(1, 0)  # -130 dBm is below any threshold.

    def test_cs_threshold_derived_from_noise(self):
        sim = Simulator()
        medium = _medium(sim, bandwidth=20e6)
        # noise(-94 with NF 7) + 19 ~ -75 dBm.
        assert medium.params.cs_threshold_dbm == pytest.approx(
            medium.noise_dbm + 19.0
        )

    def test_shared_params_keep_per_bandwidth_thresholds(self):
        # One DcfParams serving two media must not carry the first
        # medium's derived threshold into the second.
        params = DcfParams(timings=FrameTimings(bandwidth_hz=6e6))
        narrow = WifiMedium(Simulator(), _flat_loss(80.0), 6e6, params)
        wide = WifiMedium(Simulator(), _flat_loss(80.0), 20e6, params)
        assert params.cs_threshold_dbm is None
        assert narrow.params.cs_threshold_dbm == narrow.noise_dbm + 19.0
        assert wide.params.cs_threshold_dbm == wide.noise_dbm + 19.0
        assert wide.params.cs_threshold_dbm > narrow.params.cs_threshold_dbm

    def test_sinr_no_interference(self):
        sim = Simulator()
        medium = _medium(sim, loss_db=70.0)
        medium.add_station(Station(0, 0, 0, 20.0))
        medium.add_station(Station(1, 10, 0, 20.0))
        tx = medium.transmit(0, duration=1e-3, kind="data", dst_id=1)
        sim.run(until=2e-3)
        assert medium.sinr_db(tx) == pytest.approx(-50.0 - medium.noise_dbm)

    def test_sinr_with_overlapping_interferer(self):
        sim = Simulator()
        medium = _medium(sim, loss_db=70.0)
        for sid in (0, 1, 2):
            medium.add_station(Station(sid, sid * 10.0, 0, 20.0))
        tx = medium.transmit(0, duration=1e-3, kind="data", dst_id=1)
        medium.transmit(2, duration=1e-3, kind="data", dst_id=None)
        sim.run(until=2e-3)
        # Equal powers: SINR ~ 0 dB (interference dominates noise).
        assert medium.sinr_db(tx) == pytest.approx(0.0, abs=0.1)

    def test_sinr_weighted_by_overlap(self):
        sim = Simulator()
        medium = _medium(sim, loss_db=70.0)
        for sid in (0, 1, 2):
            medium.add_station(Station(sid, sid * 10.0, 0, 20.0))
        tx = medium.transmit(0, duration=2e-3, kind="data", dst_id=1)
        sim.run(until=1e-3)
        medium.transmit(2, duration=1e-3, kind="data")
        sim.run(until=3e-3)
        # Interferer overlapped half the frame: SINR ~ +3 dB.
        assert medium.sinr_db(tx) == pytest.approx(3.0, abs=0.2)

    def test_finish_removes_the_finished_frame_by_identity(self):
        sim = Simulator()
        medium = _medium(sim)
        for sid in (0, 1):
            medium.add_station(Station(sid, sid * 10.0, 0, 20.0))
        finishes = []
        schedule = sim.schedule

        def spy(delay, callback):
            finishes.append(callback)
            return schedule(delay, callback)

        sim.schedule = spy  # No node is attached: only finish events.
        first = medium.transmit(0, duration=1e-3, kind="data", dst_id=1)
        second = medium.transmit(0, duration=1e-3, kind="data", dst_id=1)
        assert dataclasses.astuple(first) == dataclasses.astuple(second)
        assert first != second
        finishes[1]()  # The second frame ends first.
        assert len(medium._active) == 1
        assert medium._active[0] is first

    def test_prune_history(self):
        sim = Simulator()
        medium = _medium(sim)
        medium.add_station(Station(0, 0, 0, 20.0))
        medium.transmit(0, duration=1e-3, kind="data")
        sim.run(until=1.0)
        medium.prune_history(horizon_s=0.1)
        assert medium._history == []


def _build_pair(sim, loss_db=70.0, rts_cts=True):
    """One AP with one client, clean channel."""
    medium = _medium(sim, loss_db=loss_db, rts_cts=rts_cts)
    ap_station = Station(0, 0.0, 0.0, 20.0)
    client_station = Station(100, 50.0, 0.0, 20.0)
    medium.add_station(ap_station)
    medium.add_station(client_station)
    node = CsmaNode(sim, medium, ap_station, medium.params, np.random.default_rng(1))
    node.add_destination(100, WIFI_MCS_TABLE[5])
    return medium, node


class TestCsmaNode:
    def test_delivers_queued_traffic(self):
        sim = Simulator()
        medium, node = _build_pair(sim)
        node.enqueue(100, 1e6)
        sim.run(until=1.0)
        assert node.stats[100].bits_delivered == pytest.approx(1e6)
        assert node.queued_bits(100) == 0.0

    def test_no_failures_on_clean_channel(self):
        sim = Simulator()
        medium, node = _build_pair(sim)
        node.enqueue(100, 5e6)
        sim.run(until=2.0)
        assert node.stats[100].data_failures == 0

    def test_throughput_below_phy_rate(self):
        sim = Simulator()
        medium, node = _build_pair(sim)
        node.enqueue(100, 1e9)
        sim.run(until=1.0)
        delivered = node.stats[100].bits_delivered
        from repro.wifi.rates import data_rate_bps

        phy_rate = data_rate_bps(WIFI_MCS_TABLE[5], 20e6)
        assert 0.3 * phy_rate < delivered < phy_rate

    def test_rts_cts_adds_overhead(self):
        results = {}
        for rts in (True, False):
            sim = Simulator()
            medium, node = _build_pair(sim, rts_cts=rts)
            node.enqueue(100, 1e9)
            sim.run(until=1.0)
            results[rts] = node.stats[100].bits_delivered
        assert results[False] > results[True]

    def test_enqueue_unknown_destination_raises(self):
        sim = Simulator()
        medium, node = _build_pair(sim)
        with pytest.raises(KeyError):
            node.enqueue(999, 1000.0)

    def test_delivery_callback_invoked(self):
        sim = Simulator()
        medium, node = _build_pair(sim)
        deliveries = []
        node.delivery_callback = lambda dest, bits: deliveries.append((dest, bits))
        node.enqueue(100, 1e5)
        sim.run(until=1.0)
        assert deliveries
        assert sum(b for _, b in deliveries) == pytest.approx(1e5)

    def test_round_robin_across_clients(self):
        sim = Simulator()
        medium = _medium(sim, loss_db=70.0)
        ap_station = Station(0, 0.0, 0.0, 20.0)
        medium.add_station(ap_station)
        for sid in (100, 101):
            medium.add_station(Station(sid, 50.0, float(sid - 100), 20.0))
        node = CsmaNode(sim, medium, ap_station, medium.params, np.random.default_rng(2))
        for sid in (100, 101):
            node.add_destination(sid, WIFI_MCS_TABLE[5])
            node.enqueue(sid, 1e9)
        sim.run(until=1.0)
        a = node.stats[100].bits_delivered
        b = node.stats[101].bits_delivered
        assert a == pytest.approx(b, rel=0.2)


class TestBusyNotificationOrder:
    def test_backoff_due_at_detection_instant_still_fires(self):
        # A node's backoff attempt, scheduled before a frame starts, that
        # falls due exactly ``cs_delay_s`` after the frame's start fires
        # before the frame's busy notification: the same-slot collision
        # window.  A dyadic delay keeps ``(due - delay) + delay == due``.
        sim = Simulator()
        cs_delay = 2.0 ** -18
        medium = _medium(sim, loss_db=80.0, cs_delay_s=cs_delay)
        for sid in (0, 1, 100, 101):
            medium.add_station(Station(sid, float(sid), 0.0, 20.0))
        node = CsmaNode(sim, medium, medium.station(1), medium.params,
                        np.random.default_rng(3))
        node.add_destination(101, WIFI_MCS_TABLE[0])
        node.enqueue(101, 1e6)
        due = node._attempt_event.time
        start = due - cs_delay
        assert 0.0 < start and start + cs_delay == due
        assert medium.hears(1, 0)
        frames = []
        sim.schedule_at(start, lambda: frames.append(
            medium.transmit(0, 1e-3, "data", dst_id=100)))
        sim.run(until=due)
        other = [tx for tx in medium._history if tx.src == 1]
        assert [tx.start for tx in frames] == [start]
        assert [(tx.kind, tx.start) for tx in other] == [("rts", due)]
        assert frames[0].overlap_fraction(other[0]) > 0.0


def busy_by_active_walk(medium, node):
    """Carrier sense by walking every active frame: the counts' oracle."""
    now = medium.sim.now
    if node.nav_until > now:
        return True
    station_id = node.station.station_id
    return any(
        tx.src != station_id
        and tx.start + medium.params.cs_delay_s <= now
        and medium.hears(station_id, tx.src)
        for tx in medium._active
    )


class TestCarrierSenseCounts:
    def _listener(self, cs_delay):
        sim = Simulator()
        medium = _medium(sim, loss_db=80.0, cs_delay_s=cs_delay)
        for sid in (0, 1, 100):
            medium.add_station(Station(sid, float(sid), 0.0, 20.0))
        node = CsmaNode(sim, medium, medium.station(1), medium.params,
                        np.random.default_rng(0))
        assert medium.hears(1, 0)
        return sim, medium, node

    def test_busy_at_detection_instant_before_notification(self):
        # Dyadic times keep ``start + cs_delay`` exact.
        cs_delay = 2.0 ** -18
        start = 2.0 ** -10
        sim, medium, node = self._listener(cs_delay)
        seen = []

        def probe():
            # Scheduled before the frame exists, so it runs before the
            # frame's busy notification at the same instant.
            seen.append((list(medium._pending), node.sensed,
                         medium.busy_for(node)))

        sim.schedule_at(start + cs_delay, probe)
        frames = []
        sim.schedule_at(start, lambda: frames.append(
            medium.transmit(0, 1e-3, "data", dst_id=100)))
        sim.schedule_at(start, lambda: seen.append(medium.busy_for(node)))
        sim.run(until=start + cs_delay)
        assert seen == [False, (frames, 0, True)]
        assert medium._pending == [] and node.sensed == 1
        assert medium.busy_for(node)
        sim.run(until=1.0)
        assert node.sensed == 0 and not medium.busy_for(node)

    def test_frame_finishing_before_its_notification(self):
        cs_delay = 2.0 ** -18
        sim, medium, node = self._listener(cs_delay)
        busy_calls = []
        node.on_medium_busy = lambda: busy_calls.append(sim.now)
        medium.transmit(0, cs_delay / 4, "cts")
        sim.run(until=cs_delay / 2)
        assert medium._active == [] and medium._pending == []
        assert not medium.busy_for(node)
        sim.run(until=1.0)
        # The frame was never detected: no notification, nothing counted.
        assert busy_calls == []
        assert node.sensed == 0
        assert not medium.busy_for(node) and not busy_by_active_walk(medium, node)

    def test_undetected_frame_does_not_stall_a_backoff(self):
        # A frame that ends before ``cs_delay_s`` used to cancel the node's
        # pending backoff after the frame's idle hint had already run, so
        # nothing ever resumed it.
        sim, medium, node = self._listener(3.8e-6)
        medium.add_station(Station(101, 101.0, 0.0, 20.0))
        node.add_destination(101, WIFI_MCS_TABLE[0])
        node.enqueue(101, 1e3)
        assert node._attempt_event is not None
        medium.transmit(0, 0.95e-6, "cts")
        sim.run(until=1.0)
        assert [tx.kind for tx in medium._history if tx.src == 1][:1] == ["rts"]
        assert node.stats[101].bits_delivered == 1e3

    def test_fig9_cell_agrees_with_active_walk(self, monkeypatch):
        counted = WifiMedium.busy_for
        calls = []

        def checked(medium, node):
            busy = counted(medium, node)
            assert busy == busy_by_active_walk(medium, node), medium.sim.now
            calls.append(busy)
            return busy

        monkeypatch.setattr(WifiMedium, "busy_for", checked)
        result = _fig9_cell().run_saturated(1.0)
        assert result.data_attempts > 0
        assert len(calls) > 1000 and 0 < sum(calls) < len(calls)


class TestContention:
    def _two_ap_world(self, mutual_loss_db, rng_seed=3):
        """Two APs, each serving its own client; configurable AP-AP loss."""
        sim = Simulator()
        params = DcfParams(timings=FrameTimings(bandwidth_hz=20e6))

        positions = {0: (0.0, 0.0), 1: (1000.0, 0.0), 100: (20.0, 0.0), 101: (980.0, 0.0)}

        def loss(a, b):
            pair = {a.station_id, b.station_id}
            if pair == {0, 1}:
                return mutual_loss_db
            # AP to own client: strong.
            if pair in ({0, 100}, {1, 101}):
                return 70.0
            # Cross links (AP to the other cell's client): strong enough to
            # break frames when transmissions overlap (SIR ~ 5 dB).
            if pair in ({0, 101}, {1, 100}):
                return 75.0
            return 120.0

        medium = WifiMedium(sim, loss, 20e6, params)
        for sid, (x, y) in positions.items():
            medium.add_station(Station(sid, x, y, 20.0))
        nodes = []
        for ap, client in ((0, 100), (1, 101)):
            node = CsmaNode(
                sim, medium, medium.station(ap), params,
                np.random.default_rng(rng_seed + ap),
            )
            node.add_destination(client, WIFI_MCS_TABLE[3])
            node.enqueue(client, 1e9)
            nodes.append(node)
        return sim, medium, nodes

    def test_mutually_sensing_aps_share_cleanly(self):
        sim, medium, nodes = self._two_ap_world(mutual_loss_db=60.0)
        sim.run(until=1.0)
        failures = sum(n.stats[d].data_failures for n in nodes for d in n.stats)
        attempts = sum(n.stats[d].data_attempts for n in nodes for d in n.stats)
        assert attempts > 0
        assert failures / attempts < 0.2

    def test_hidden_aps_collide(self):
        # APs cannot hear each other; their frames overlap at the clients.
        sim, medium, nodes = self._two_ap_world(mutual_loss_db=160.0)
        sim.run(until=1.0)
        failures = sum(n.stats[d].data_failures for n in nodes for d in n.stats)
        assert failures > 0

    def test_hidden_throughput_lower_than_coordinated(self):
        sim_a, _, nodes_a = self._two_ap_world(mutual_loss_db=60.0)
        sim_a.run(until=1.0)
        sim_b, _, nodes_b = self._two_ap_world(mutual_loss_db=160.0)
        sim_b.run(until=1.0)
        coordinated = sum(n.stats[d].bits_delivered for n in nodes_a for d in n.stats)
        hidden = sum(n.stats[d].bits_delivered for n in nodes_b for d in n.stats)
        assert hidden < coordinated


class TestExposedTerminal:
    """Two APs that hear each other but whose clients are far apart: both
    transmissions could proceed in parallel, yet CSMA serialises them --
    the classic exposed-terminal inefficiency the paper pins on long-range
    Wi-Fi."""

    def _world(self, mutual_loss_db):
        sim = Simulator()
        params = DcfParams(timings=FrameTimings(bandwidth_hz=20e6))

        def loss(a, b):
            pair = {a.station_id, b.station_id}
            if pair == {0, 1}:
                return mutual_loss_db       # AP <-> AP.
            if pair in ({0, 100}, {1, 101}):
                return 70.0                 # AP -> own client.
            return 140.0                    # Cross links: negligible.

        medium = WifiMedium(sim, loss, 20e6, params)
        for sid, (x, y) in {0: (0, 0), 1: (500, 0), 100: (-50, 0), 101: (550, 0)}.items():
            medium.add_station(Station(sid, float(x), float(y), 20.0))
        nodes = []
        for ap, client in ((0, 100), (1, 101)):
            node = CsmaNode(
                sim, medium, medium.station(ap), params,
                np.random.default_rng(11 + ap),
            )
            node.add_destination(client, WIFI_MCS_TABLE[5])
            node.enqueue(client, 1e9)
            nodes.append(node)
        return sim, nodes

    def _total(self, mutual_loss_db):
        sim, nodes = self._world(mutual_loss_db)
        sim.run(until=1.0)
        return sum(n.stats[d].bits_delivered for n in nodes for d in n.stats)

    def test_exposure_costs_throughput(self):
        # Mutually-sensing (exposed) pair vs truly isolated pair.  The APs
        # sometimes slip a TXOP into each other's RTS/CTS gaps (real DCF
        # does too), so the loss is substantial but not a full halving.
        exposed = self._total(mutual_loss_db=70.0)
        isolated = self._total(mutual_loss_db=140.0)
        assert exposed < 0.85 * isolated

    def test_exposed_pair_has_no_collisions(self):
        # Serialisation is wasteful but clean: no data failures.
        sim, nodes = self._world(mutual_loss_db=70.0)
        sim.run(until=1.0)
        failures = sum(n.stats[d].data_failures for n in nodes for d in n.stats)
        assert failures == 0
