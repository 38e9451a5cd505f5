"""Unit tests for the uplink model."""

import pytest

from repro.lte.uplink import UplinkModel
from repro.phy.propagation import CompositeChannel, UrbanHataPathLoss
from repro.phy.resource_grid import ResourceGrid
from repro.sim.topology import AccessPointSite, ClientSite, Topology


def _topology(separation_m=2000.0, client_offset_m=150.0):
    aps = [AccessPointSite(0, 0.0, 0.0), AccessPointSite(1, separation_m, 0.0)]
    clients = [
        ClientSite(0, client_offset_m, 0.0, ap_id=0),
        ClientSite(1, separation_m - client_offset_m, 0.0, ap_id=1),
    ]
    return Topology(area_m=separation_m, aps=aps, clients=clients)


def _model(topology=None, **kwargs):
    return UplinkModel(
        topology or _topology(),
        ResourceGrid(5e6),
        CompositeChannel(UrbanHataPathLoss()),
        **kwargs,
    )


class TestPowerControl:
    def test_interior_client_transmits_below_cap(self):
        model = _model(_topology(client_offset_m=100.0))
        assert model.tx_psd_dbm_per_rb(0) < 20.0

    def test_edge_client_hits_budget(self):
        model = _model(_topology(separation_m=3000.0, client_offset_m=1400.0))
        # PL ~ 132 dB: the target exceeds the 20 dBm cap.
        assert model.tx_psd_dbm_per_rb(0) == pytest.approx(20.0)

    def test_budget_splits_across_rbs(self):
        model = _model(_topology(separation_m=3000.0, client_offset_m=1400.0))
        one = model.tx_psd_dbm_per_rb(0, n_rbs=1)
        ten = model.tx_psd_dbm_per_rb(0, n_rbs=10)
        assert ten == pytest.approx(one - 10.0)

    def test_fractional_compensation(self):
        # alpha < 1: received power decreases with path loss (partial
        # compensation), so the near client is received *stronger*.
        model = _model(_topology(separation_m=3000.0))
        near = model.tx_psd_dbm_per_rb(0) - model._loss[(0, 0)]
        topology = _topology(separation_m=3000.0, client_offset_m=900.0)
        far_model = _model(topology)
        far = far_model.tx_psd_dbm_per_rb(0) - far_model._loss[(0, 0)]
        assert near > far

    def test_validation(self):
        model = _model()
        with pytest.raises(ValueError):
            model.tx_psd_dbm_per_rb(0, n_rbs=0)
        with pytest.raises(ValueError):
            UplinkModel(
                _topology(), ResourceGrid(5e6),
                CompositeChannel(UrbanHataPathLoss()), alpha=1.5,
            )


class TestUplinkSinr:
    def test_clean_uplink_decodes(self):
        model = _model()
        assert model.uplink_sinr_db(0) > 10.0

    def test_aggressor_lowers_sinr(self):
        topology = _topology(separation_m=700.0, client_offset_m=320.0)
        model = _model(topology)
        clean = model.uplink_sinr_db(0)
        jammed = model.uplink_sinr_db(0, aggressors=[(1, 1.0)])
        assert jammed < clean

    def test_activity_weight_scales_interference(self):
        topology = _topology(separation_m=700.0, client_offset_m=320.0)
        model = _model(topology)
        full = model.uplink_sinr_db(0, aggressors=[(1, 1.0)])
        half = model.uplink_sinr_db(0, aggressors=[(1, 0.5)])
        assert half > full

    def test_activity_validated(self):
        model = _model()
        with pytest.raises(ValueError):
            model.uplink_sinr_db(0, aggressors=[(1, 1.5)])


class TestUplinkEpoch:
    def test_isolated_cells_serve_uplink(self):
        model = _model()
        allowed = {0: set(range(13)), 1: set(range(13))}
        result = model.run_epoch(allowed, {0: float("inf"), 1: float("inf")})
        assert result.throughput_bps[0] > 1e5
        assert result.throughput_bps[1] > 1e5

    def test_demand_capped(self):
        model = _model()
        allowed = {0: set(range(13)), 1: set(range(13))}
        result = model.run_epoch(allowed, {0: 8000.0, 1: 0.0})
        assert result.throughput_bps[0] == pytest.approx(8000.0)

    def test_idle_client_not_reported(self):
        model = _model()
        allowed = {0: set(range(13)), 1: set(range(13))}
        result = model.run_epoch(allowed, {0: 1000.0})
        assert 1 not in result.throughput_bps

    def test_subchannel_split_protects_uplink(self):
        # Orthogonal allocations beat full overlap for cell-edge uplinks --
        # CellFi's decisions protect UL for free in TDD.
        topology = _topology(separation_m=700.0, client_offset_m=330.0)
        model = _model(topology)
        demands = {0: float("inf"), 1: float("inf")}
        overlap = model.run_epoch(
            {0: set(range(13)), 1: set(range(13))}, demands
        )
        split = model.run_epoch(
            {0: set(range(0, 6)), 1: set(range(6, 13))}, demands
        )
        overlap_sinr = overlap.sinr_db[0]
        split_sinr = split.sinr_db[0]
        assert split_sinr > overlap_sinr

    def test_no_subchannels_no_uplink(self):
        model = _model()
        result = model.run_epoch({0: set(), 1: set()}, {0: 1000.0, 1: 1000.0})
        assert result.throughput_bps[0] == 0.0
