"""Integration tests for the Wi-Fi network simulator."""

import pytest

from repro.phy.propagation import CompositeChannel, UrbanHataPathLoss
from repro.sim.rng import RngStreams
from repro.sim.topology import AccessPointSite, ClientSite, Topology
from repro.wifi.network import (
    CLIENT_STATION_OFFSET,
    STANDARD_80211AC,
    STANDARD_80211AF,
    WifiNetworkSimulator,
)


def _single_cell(n_clients=3, offset_m=150.0):
    aps = [AccessPointSite(0, 0.0, 0.0)]
    clients = [
        ClientSite(i, offset_m + 10.0 * i, 0.0, ap_id=0) for i in range(n_clients)
    ]
    return Topology(area_m=1000.0, aps=aps, clients=clients)


def _net(topology, standard=STANDARD_80211AF, seed=1, **kwargs):
    return WifiNetworkSimulator(
        topology,
        CompositeChannel(UrbanHataPathLoss()),
        standard,
        RngStreams(seed),
        **kwargs,
    )


class TestConstruction:
    def test_all_clients_reachable_near_cell(self):
        net = _net(_single_cell())
        assert all(net.reachable.values())

    def test_distant_client_unreachable(self):
        topo = Topology(
            area_m=10_000.0,
            aps=[AccessPointSite(0, 0.0, 0.0)],
            clients=[ClientSite(0, 8000.0, 0.0, ap_id=0)],
        )
        net = _net(topo)
        assert not net.reachable[0]

    def test_client_station_ids_offset(self):
        net = _net(_single_cell())
        assert net.client_station_id(0) == CLIENT_STATION_OFFSET

    def test_enqueue_to_unreachable_is_noop(self):
        topo = Topology(
            area_m=10_000.0,
            aps=[AccessPointSite(0, 0.0, 0.0)],
            clients=[ClientSite(0, 8000.0, 0.0, ap_id=0)],
        )
        net = _net(topo)
        net.enqueue(0, 1e6)  # Must not raise.
        result = net._run(0.5)
        assert result.throughput_bps[0] == 0.0


class TestSaturated:
    def test_single_cell_throughput_positive(self):
        net = _net(_single_cell())
        result = net.run_saturated(1.0)
        assert all(t > 0.0 for t in result.throughput_bps.values())

    def test_failure_rate_zero_in_isolation(self):
        net = _net(_single_cell())
        result = net.run_saturated(1.0)
        assert result.failure_rate == 0.0

    def test_af_aggregate_below_channel_capacity(self):
        net = _net(_single_cell())
        result = net.run_saturated(1.0)
        total = sum(result.throughput_bps.values())
        assert total < 22e6  # 6 MHz 802.11af tops out near 21 Mb/s PHY.

    def test_deterministic_given_seed(self):
        topo = _single_cell()
        a = _net(topo, seed=5).run_saturated(0.5)
        b = _net(topo, seed=5).run_saturated(0.5)
        assert a.throughput_bps == b.throughput_bps

    def test_contention_reduces_per_client_share(self):
        solo = _net(_single_cell(n_clients=1)).run_saturated(1.0)
        shared = _net(_single_cell(n_clients=4)).run_saturated(1.0)
        assert max(shared.throughput_bps.values()) < max(
            solo.throughput_bps.values()
        )


class TestDynamic:
    def test_arrivals_drain(self):
        net = _net(_single_cell(n_clients=1))
        result = net.run_dynamic(2.0, [(0.1, 0, 1e5), (0.5, 0, 2e5)])
        assert result.throughput_bps[0] * result.duration_s == pytest.approx(3e5)

    def test_delivery_callback_reports_client_ids(self):
        net = _net(_single_cell(n_clients=2))
        seen = []
        net.set_delivery_callback(lambda cid, bits: seen.append(cid))
        net.run_dynamic(1.0, [(0.1, 0, 1e5), (0.1, 1, 1e5)])
        assert set(seen) == {0, 1}


class TestStandards:
    def test_standard_presets(self):
        assert STANDARD_80211AF.bandwidth_hz == 6e6
        assert STANDARD_80211AC.bandwidth_hz == 20e6
        assert STANDARD_80211AF.ap_tx_power_dbm == 30.0

    def test_long_term_sinr_includes_interference(self):
        # Two co-located cells: the rate-adaptation SINR must be well below
        # the clean SNR.
        topo = Topology(
            area_m=1000.0,
            aps=[AccessPointSite(0, 0.0, 0.0), AccessPointSite(1, 200.0, 0.0)],
            clients=[
                ClientSite(0, 100.0, 0.0, ap_id=0),
                ClientSite(1, 100.0, 10.0, ap_id=1),
            ],
        )
        net = _net(topo)
        sid = net.client_station_id(0)
        sinr = net._long_term_sinr_db(0, sid)
        snr = net.medium.rx_dbm(0, sid) - net.noise_dbm
        assert sinr < snr - 2.0

    def test_interference_activity_zero_recovers_snr(self):
        topo = _single_cell()
        net = _net(topo, interference_activity=0.0)
        sid = net.client_station_id(0)
        sinr = net._long_term_sinr_db(0, sid)
        snr = net.medium.rx_dbm(0, sid) - net.noise_dbm
        assert sinr == pytest.approx(snr)
