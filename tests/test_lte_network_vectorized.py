"""Scalar oracle vs the production epoch: bit-for-bit equivalence.

The production epoch's cached blocks and whole-matrix kernels are only
allowed to exist because they are *exactly* the scalar oracle
(:class:`repro.lte.scalar_oracle.ScalarOracleSimulator`), faster: same RNG
draw order, same floating-point operation order where it matters, same
quantisation.  These tests compare complete epoch outputs with ``==`` (no
tolerances) on a seeded 20-cell topology, hold the oracle to never calling
the block compute it checks, and pin the gain-cache row refresh behind
every move.  The churn fuzz and dirty-tracking tests live in
``tests/test_lte_network_incremental.py``.  The file keeps the name of the
whole-matrix backend it first compared, so its test ids stay stable.
"""

import numpy as np
import pytest

from repro.core.interference.manager import CellFiInterferenceManager
from repro.lte.network import AllSubchannelsPolicy, LteNetworkSimulator
from repro.lte.scalar_oracle import ScalarOracleSimulator
from repro.phy.propagation import GainMatrixCache
from repro.phy.resource_grid import ResourceGrid
from repro.sim.rng import RngStreams
from tests.test_lte_network_incremental import (
    SEED,
    RotatingSubsetPolicy,
    assert_epochs_identical,
    make_channel,
    make_net,
    make_topology,
    mixed_demand_fn,
)

#: The oracle first, then the production simulator.
SIMULATORS = (ScalarOracleSimulator, LteNetworkSimulator)

#: What the oracle checks, so what it must never call.
BLOCK_COMPUTE = (
    "_refresh_block",
    "_set_decision_context",
    "_compute_rows",
    "_compute_block_rows",
    "_harq_scale",
)


def make_default_net(topology=None):
    """A production simulator, on ``topology`` or the seeded deployment."""
    channel = make_channel()
    return LteNetworkSimulator(
        topology=topology if topology is not None else make_topology(channel),
        grid=ResourceGrid(5e6),
        channel=channel,
        rngs=RngStreams(SEED),
    )


class TestBackendSelection:
    """The epoch path is chosen by class, never by an option."""

    def test_default_backend_is_incremental(self):
        # A quiescent second epoch: the production simulator reuses every
        # cached block, while the oracle honestly reports recomputing all.
        stats = {}
        for simulator in SIMULATORS:
            net = make_net(simulator)
            policy = AllSubchannelsPolicy(
                [ap.ap_id for ap in net.topology.aps], net.grid.n_subchannels
            )
            demands = {c.client_id: float("inf") for c in net.topology.clients}
            net.run(2, policy, lambda e: dict(demands))
            stats[simulator] = net.last_epoch_stats
        n_aps = len(make_default_net().topology.aps)
        assert stats[LteNetworkSimulator]["clean_aps"] == n_aps
        assert stats[LteNetworkSimulator]["dirty_rows"] == 0
        assert stats[ScalarOracleSimulator]["dirty_aps"] == n_aps
        assert stats[ScalarOracleSimulator]["clean_aps"] == 0

    def test_unknown_backend_rejected(self):
        channel = make_channel()
        topology = make_topology(channel)
        for simulator in SIMULATORS:
            with pytest.raises(TypeError, match="backend"):
                simulator(
                    topology=topology,
                    grid=ResourceGrid(5e6),
                    channel=channel,
                    rngs=RngStreams(SEED),
                    backend="gpu",
                )


class TestBitForBitEquivalence:
    def test_saturated_full_carrier(self):
        results = []
        for simulator in SIMULATORS:
            net = make_net(simulator)
            policy = AllSubchannelsPolicy(
                [ap.ap_id for ap in net.topology.aps], net.grid.n_subchannels
            )
            demands = {c.client_id: float("inf") for c in net.topology.clients}
            results.append(net.run(2, policy, lambda e: dict(demands)))
        assert_epochs_identical(*results)

    def test_partial_subsets_and_mixed_demand(self):
        results = []
        for simulator in SIMULATORS:
            net = make_net(simulator)
            policy = RotatingSubsetPolicy(
                [ap.ap_id for ap in net.topology.aps], net.grid.n_subchannels
            )
            results.append(net.run(3, policy, mixed_demand_fn(net.topology)))
        assert_epochs_identical(*results)

    def test_equivalence_survives_mobility(self):
        results = []
        for simulator in SIMULATORS:
            net = make_net(simulator)
            policy = RotatingSubsetPolicy(
                [ap.ap_id for ap in net.topology.aps], net.grid.n_subchannels
            )
            moved = net.topology.clients[3].client_id
            demand_fn = mixed_demand_fn(net.topology)
            run = [net.run_epoch(0, policy.decide(0, None), demand_fn(0))]
            net.move_client(moved, 310.0, 1250.0)
            allowed = policy.decide(1, run[-1].observations)
            run.append(net.run_epoch(1, allowed, demand_fn(1)))
            results.append(run)
        assert_epochs_identical(*results)


class TestOracleIndependence:
    """The oracle shares the link store, the RNG streams and the max-CQI
    state with production -- its inputs -- but never the block compute."""

    @staticmethod
    def _forbid_block_compute(monkeypatch, net):
        def forbidden(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} called")

            return call

        for name in BLOCK_COMPUTE:
            monkeypatch.setattr(net, name, forbidden(name))

    @staticmethod
    def _cellfi_churn(net, n_epochs):
        """CellFi epochs with a move and a re-attach after each."""
        ap_ids = [ap.ap_id for ap in net.topology.aps]
        policy = CellFiInterferenceManager(
            ap_ids, net.grid.n_subchannels, RngStreams(SEED).fork("manager")
        )
        demand_fn = mixed_demand_fn(net.topology)
        churn = np.random.default_rng(SEED)
        clients = net.topology.clients
        observations = None
        for epoch in range(n_epochs):
            allowed = policy.decide(epoch, observations)
            observations = net.run_epoch(epoch, allowed, demand_fn(epoch)).observations
            mover = clients[int(churn.integers(len(clients)))].client_id
            net.move_client(
                mover,
                float(churn.uniform(0.0, net.topology.area_m)),
                float(churn.uniform(0.0, net.topology.area_m)),
            )
            roamer = clients[int(churn.integers(len(clients)))].client_id
            net.reattach_client(roamer, ap_ids[int(churn.integers(len(ap_ids)))])
        return observations

    def test_oracle_epochs_never_call_the_block_compute(self, monkeypatch):
        net = make_net(ScalarOracleSimulator)
        self._forbid_block_compute(monkeypatch, net)
        observations = self._cellfi_churn(net, 4)
        assert len(observations) == len(net.topology.aps)

    def test_production_epoch_trips_the_same_patch(self, monkeypatch):
        # Without this the patch above could be silently ineffective.
        net = make_net()
        self._forbid_block_compute(monkeypatch, net)
        with pytest.raises(AssertionError, match="called"):
            self._cellfi_churn(net, 1)


class TestGainCacheInvalidation:
    def test_cache_matches_direct_channel_queries(self):
        channel = make_channel()
        topology = make_topology(channel)
        cache = GainMatrixCache(channel, topology.aps, topology.clients)
        for client in topology.clients[:5]:
            for ap in topology.aps[:5]:
                assert cache.loss_db(client.client_id, ap.ap_id) == channel.loss_db(
                    ap, client
                )

    def test_move_client_refreshes_exactly_one_row(self):
        net = make_default_net()
        moved = net.topology.clients[0].client_id
        kept = net.topology.clients[1].client_id
        before_moved = dict(
            (ap.ap_id, net.rx_rb_power_dbm(moved, ap.ap_id))
            for ap in net.topology.aps
        )
        before_kept = dict(
            (ap.ap_id, net.rx_rb_power_dbm(kept, ap.ap_id))
            for ap in net.topology.aps
        )
        net.move_client(moved, 1777.0, 60.0)
        after_moved = dict(
            (ap.ap_id, net.rx_rb_power_dbm(moved, ap.ap_id))
            for ap in net.topology.aps
        )
        assert after_moved != before_moved
        for ap in net.topology.aps:
            assert net.rx_rb_power_dbm(kept, ap.ap_id) == before_kept[ap.ap_id]

    def test_moved_links_match_fresh_simulator(self):
        net = make_default_net()
        moved = net.topology.clients[0].client_id
        net.move_client(moved, 1777.0, 60.0)

        topology = make_topology(make_channel())
        topology.move_client(moved, 1777.0, 60.0)
        fresh = make_default_net(topology)
        assert np.array_equal(net._rx_dbm_mat, fresh._rx_dbm_mat)
        assert np.array_equal(net._rx_w_mat, fresh._rx_w_mat)
        assert np.array_equal(net._prach_mat, fresh._prach_mat)

    def test_shared_cache_can_be_injected(self):
        channel = make_channel()
        topology = make_topology(channel)
        cache = GainMatrixCache(channel, topology.aps, topology.clients)
        net = LteNetworkSimulator(
            topology=topology,
            grid=ResourceGrid(5e6),
            channel=channel,
            rngs=RngStreams(SEED),
            gain_cache=cache,
        )
        assert net.gain_cache is cache
