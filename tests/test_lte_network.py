"""Unit/integration tests for the system-level LTE simulator."""

import numpy as np
import pytest

from repro.lte.network import (
    AllSubchannelsPolicy,
    LteNetworkSimulator,
    STARVATION_THRESHOLD_BPS,
    rlf_probability,
)
from repro.lte.scalar_oracle import ScalarOracleSimulator
from repro.phy.propagation import (
    CompositeChannel,
    LogNormalShadowing,
    UrbanHataPathLoss,
)
from repro.phy.resource_grid import ResourceGrid
from repro.sim.rng import RngStreams
from repro.sim.topology import (
    AccessPointSite,
    ClientSite,
    Topology,
    random_topology,
    reassociate_strongest,
)


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
