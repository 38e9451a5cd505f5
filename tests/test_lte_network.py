"""Unit/integration tests for the system-level LTE simulator."""

import numpy as np
import pytest

from repro.experiments.common import build_scenario
from repro.lte.network import (
    AllSubchannelsPolicy,
    LteNetworkSimulator,
    rlf_probability,
)
from repro.lte.scalar_oracle import ScalarOracleSimulator
from repro.lte.scheduler import MINISLOTS_PER_EPOCH
from repro.phy.harq import harq_goodput_scale
from repro.phy.mcs import CQI_OUT_OF_RANGE, cqi_from_sinr, efficiency_from_cqi
from repro.phy.propagation import (
    CompositeChannel,
    LogNormalShadowing,
    UrbanHataPathLoss,
)
from repro.phy.resource_grid import RB_BANDWIDTH_HZ, ResourceGrid
from repro.sim.rng import RngStreams
from repro.sim.topology import (
    AccessPointSite,
    ClientSite,
    Topology,
    random_topology,
)
from repro.utils.dbmath import thermal_noise_dbm


def _channel(seed=1, sigma=0.0):
    shadow = LogNormalShadowing(sigma, seed=seed) if sigma else None
    return CompositeChannel(UrbanHataPathLoss(), shadow)


def _net(topology, seed=1, simulator=LteNetworkSimulator, **kwargs):
    return simulator(
        topology, ResourceGrid(5e6), _channel(seed), RngStreams(seed), **kwargs
    )


def _oracle(topology, **kwargs):
    """The scalar oracle, which owns the per-link SINR queries."""
    return _net(topology, simulator=ScalarOracleSimulator, **kwargs)


def _two_cell_topology(separation_m=2000.0, client_offset_m=100.0):
    aps = [
        AccessPointSite(0, 0.0, 0.0),
        AccessPointSite(1, separation_m, 0.0),
    ]
    clients = [
        ClientSite(0, client_offset_m, 0.0, ap_id=0),
        ClientSite(1, separation_m - client_offset_m, 0.0, ap_id=1),
    ]
    return Topology(area_m=separation_m, aps=aps, clients=clients)


class TestRlfModel:
    def test_safe_above_threshold(self):
        assert rlf_probability(5.0) == 0.0
        assert rlf_probability(20.0) == 0.0

    def test_ramps_below_threshold(self):
        assert 0.0 < rlf_probability(0.0) < rlf_probability(-5.0)

    def test_saturates(self):
        assert rlf_probability(-100.0) == 0.9


class TestRadioQueries:
    def test_clean_sinr_decreases_with_distance(self):
        topo = _two_cell_topology()
        net = _oracle(topo)
        near = net.clean_sinr_db(0, 0)
        far = net.sinr_db(0, 1, ())  # Served by the distant cell.
        assert near > far

    def test_interference_lowers_sinr(self):
        topo = _two_cell_topology(separation_m=500.0)
        net = _oracle(topo)
        assert net.sinr_db(0, 0, [1]) < net.clean_sinr_db(0, 0)

    def test_prach_audible_at_own_cell(self):
        topo = _two_cell_topology()
        net = _net(topo)
        assert net.prach_audible(0, 0)

    def test_prach_power_control_localises(self):
        # A client close to its AP transmits PRACH at low power, so a cell
        # 2 km away must not hear it.
        topo = _two_cell_topology(separation_m=2000.0, client_offset_m=100.0)
        net = _net(topo)
        assert not net.prach_audible(0, 1)

    def test_edge_client_heard_across(self):
        # A cell-edge client PRACHes at high power and is heard next door.
        topo = _two_cell_topology(separation_m=1000.0, client_offset_m=450.0)
        net = _net(topo)
        assert net.prach_audible(0, 1)

    def test_control_scale_bounds(self):
        topo = _two_cell_topology(separation_m=400.0)
        net = _oracle(topo)
        scale = net.control_interference_scale(0, 0, [1])
        assert 0.8 <= scale <= 1.0

    def test_control_scale_disabled(self):
        topo = _two_cell_topology(separation_m=400.0)
        net = _oracle(topo, control_interference=False)
        assert net.control_interference_scale(0, 0, [1]) == 1.0

    def test_control_scale_no_interferers(self):
        topo = _two_cell_topology()
        net = _oracle(topo)
        assert net.control_interference_scale(0, 0, []) == 1.0


class TestEpochs:
    def test_isolated_cells_serve_clients(self):
        topo = _two_cell_topology(separation_m=2000.0)
        net = _net(topo)
        policy = AllSubchannelsPolicy([0, 1], net.grid.n_subchannels)
        demands = {0: float("inf"), 1: float("inf")}
        result = net.run_epoch(0, policy.decide(0, None), demands)
        assert result.throughput_bps[0] > 1e6
        assert result.connected[0] and result.connected[1]

    def test_idle_network_serves_nothing(self):
        topo = _two_cell_topology()
        net = _net(topo)
        policy = AllSubchannelsPolicy([0, 1], net.grid.n_subchannels)
        result = net.run_epoch(0, policy.decide(0, None), {0: 0.0, 1: 0.0})
        assert result.throughput_bps[0] == 0.0
        assert result.connected[0]  # No demand -> not starved.

    def test_finite_demand_satisfied(self):
        topo = _two_cell_topology(separation_m=2000.0)
        net = _net(topo)
        policy = AllSubchannelsPolicy([0, 1], net.grid.n_subchannels)
        result = net.run_epoch(0, policy.decide(0, None), {0: 8000.0, 1: 0.0})
        assert result.served_bits[0] == pytest.approx(8000.0)

    def test_observations_structure(self):
        topo = _two_cell_topology()
        net = _net(topo)
        policy = AllSubchannelsPolicy([0, 1], net.grid.n_subchannels)
        result = net.run_epoch(0, policy.decide(0, None), {0: float("inf"), 1: float("inf")})
        obs = result.observations[0]
        assert obs.n_active_clients == 1
        assert obs.estimated_contenders >= 1
        client_obs = obs.clients[0]
        assert len(client_obs.subband_cqi) == net.grid.n_subchannels
        assert len(client_obs.interference_detected) == net.grid.n_subchannels

    def test_scheduled_fractions_reported(self):
        topo = _two_cell_topology(separation_m=2000.0)
        net = _net(topo)
        policy = AllSubchannelsPolicy([0, 1], net.grid.n_subchannels)
        result = net.run_epoch(0, policy.decide(0, None), {0: float("inf"), 1: 0.0})
        fractions = result.observations[0].clients[0].scheduled_fraction
        assert sum(fractions.values()) > 0.0

    def test_run_returns_each_epoch(self):
        topo = _two_cell_topology()
        net = _net(topo)
        policy = AllSubchannelsPolicy([0, 1], net.grid.n_subchannels)
        results = net.run(3, policy, lambda e: {0: float("inf"), 1: float("inf")})
        assert [r.epoch_index for r in results] == [0, 1, 2]

    def test_deterministic_given_seed(self):
        topo = _two_cell_topology(separation_m=600.0)
        a = _net(topo, seed=9)
        b = _net(topo, seed=9)
        policy = AllSubchannelsPolicy([0, 1], a.grid.n_subchannels)
        demands = {0: float("inf"), 1: float("inf")}
        ra = a.run(3, policy, lambda e: demands)
        rb = b.run(3, AllSubchannelsPolicy([0, 1], b.grid.n_subchannels), lambda e: demands)
        assert ra[-1].throughput_bps == rb[-1].throughput_bps


def _detector_epochs(n_epochs, **kwargs):
    """Detector flags and interference truth, stacked over every client row
    of ``n_epochs`` saturated epochs of a 6-AP network on all subchannels."""
    rngs = RngStreams(4)
    topo = random_topology(rngs.stream("topo"), n_aps=6, clients_per_ap=4)
    net = LteNetworkSimulator(
        topo, ResourceGrid(5e6), _channel(), rngs.fork("net"), **kwargs
    )
    allowed = {ap.ap_id: set(range(net.grid.n_subchannels)) for ap in topo.aps}
    demands = {c.client_id: float("inf") for c in topo.clients}
    flags, truth = [], []
    for epoch in range(n_epochs):
        result = net.run_epoch(epoch, allowed, demands)
        for obs in result.observations.values():
            for cid, client in obs.clients.items():
                flags.append(client.interference_detected)
                truth.append(net._interfered_mat[net._owned_row(cid)])
    return np.array(flags, dtype=bool), np.array(truth, dtype=bool)


class TestCqiDetector:
    """The paper's measured detector quality, injected in the observe pass."""

    def test_perfect_detector_reports_the_truth(self):
        flags, truth = _detector_epochs(
            3, detector_true_positive=1.0, detector_false_positive=0.0
        )
        assert truth.any() and not truth.all()
        np.testing.assert_array_equal(flags, truth)

    def test_default_rates_match_the_paper(self):
        # Section 6.3.2: 80% detection under interference, < 2% false alarms.
        flags, truth = _detector_epochs(40)
        for rate, mask in ((0.80, truth), (0.02, ~truth)):
            n = int(mask.sum())
            assert n >= 500
            bound = 5.0 * np.sqrt(rate * (1.0 - rate) / n)
            assert abs(flags[mask].mean() - rate) <= bound

    @pytest.mark.parametrize("tp, fp", [(0.1, 0.5), (1.5, 0.02), (0.8, -0.1)])
    def test_invalid_rates_rejected(self, tp, fp):
        with pytest.raises(ValueError):
            _net(
                _two_cell_topology(),
                detector_true_positive=tp,
                detector_false_positive=fp,
            )


class TestInterferenceEffects:
    def test_full_overlap_hurts_cell_edge(self):
        # Two cells at medium range, clients between them: overlapping
        # allocations must reduce throughput vs orthogonal ones.
        topo = _two_cell_topology(separation_m=800.0, client_offset_m=380.0)
        net = _net(topo)
        demands = {0: float("inf"), 1: float("inf")}
        overlap = net.run_epoch(0, {0: set(range(13)), 1: set(range(13))}, demands)
        net2 = _net(topo)
        split = net2.run_epoch(
            0, {0: set(range(0, 6)), 1: set(range(6, 13))}, demands
        )
        total_overlap = sum(overlap.throughput_bps.values())
        total_split = sum(split.throughput_bps.values())
        assert total_split > total_overlap

    def test_starvation_flagged(self):
        # A client in deep interference must come out "not connected".
        topo = Topology(
            area_m=1000.0,
            aps=[AccessPointSite(0, 0.0, 0.0), AccessPointSite(1, 260.0, 0.0)],
            clients=[
                ClientSite(0, 130.0, 0.0, ap_id=0),
                # The interfering cell needs a backlogged client to be
                # active at all (idle cells do not transmit data).
                ClientSite(1, 250.0, 10.0, ap_id=1),
            ],
        )
        net = _net(topo)
        demands = {0: float("inf"), 1: float("inf")}
        starved_epochs = 0
        for epoch in range(10):
            result = net.run_epoch(
                epoch, {0: set(range(13)), 1: set(range(13))}, demands
            )
            if not result.connected[0]:
                starved_epochs += 1
        assert starved_epochs >= 1


class TestProportionalFairOracle:
    """Analytic PF outcome: one cell, static channels, saturated demand.

    Proportional fair converges to equal airtime: each of the six
    clients holds 1/6 of every subchannel, to within one of the
    ``MINISLOTS_PER_EPOCH`` mini-slots.  Whatever the RNG, a client's
    bits are its airtime times its own full-time rate, which with no
    other cell is the clean-SNR rate (no interference, no control-channel
    loss).
    """

    EPOCHS = 20

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equal_airtime_and_bits_from_own_rate(self, seed):
        net = build_scenario(seed, 1, 6).lte_net("net-lte")
        (ap,) = net.topology.aps
        cids = [c.client_id for c in net.topology.clients_of(ap.ap_id)]
        assert len(cids) == 6
        subs = range(net.grid.n_subchannels)
        noise_dbm = thermal_noise_dbm(RB_BANDWIDTH_HZ, net.noise_figure_db)
        rate = {}
        for cid in cids:
            sinr = net.rx_rb_power_dbm(cid, ap.ap_id) - noise_dbm
            cqi = cqi_from_sinr(sinr)
            for sub in subs:
                rate[cid, sub] = (
                    0.0
                    if cqi == CQI_OUT_OF_RANGE
                    else net.grid.subchannel_downlink_rate_bps(
                        efficiency_from_cqi(cqi), sub
                    )
                    * harq_goodput_scale(sinr, cqi)
                )
        policy = AllSubchannelsPolicy([ap.ap_id], net.grid.n_subchannels)
        demands = {cid: float("inf") for cid in cids}
        airtime = dict.fromkeys(rate, 0.0)
        for epoch in range(self.EPOCHS):
            result = net.run_epoch(epoch, policy.decide(epoch, None), demands)
            fraction = result.allocations[ap.ap_id].time_fraction
            for cid in cids:
                expected = sum(
                    fraction.get((cid, sub), 0.0) * net.epoch_s * rate[cid, sub]
                    for sub in subs
                )
                assert result.served_bits[cid] == pytest.approx(expected, rel=1e-9)
            for key in airtime:
                airtime[key] += fraction.get(key, 0.0) / self.EPOCHS
        for key, share in airtime.items():
            assert abs(share - 1 / 6) <= 1 / MINISLOTS_PER_EPOCH, (key, share)
