"""Scalar vs incremental epoch backends: bit-for-bit equivalence.

The incremental backend's whole-matrix kernels are only allowed to exist
because they are *exactly* the scalar reference implementation, faster:
same RNG draw order, same floating-point operation order where it
matters, same quantisation.  These tests compare complete epoch outputs
with ``==`` (no tolerances) on a seeded 20-cell topology, and pin the
gain-cache row refresh behind every move on the default backend.  The
churn fuzz and dirty-tracking tests live in
``tests/test_lte_network_incremental.py``.
"""

import numpy as np
import pytest

from repro.lte.network import (
    BACKEND_INCREMENTAL,
    BACKEND_SCALAR,
    AllSubchannelsPolicy,
    LteNetworkSimulator,
)
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

BACKENDS = (BACKEND_SCALAR, BACKEND_INCREMENTAL)


def make_default_net(topology=None):
    """A simulator on the default backend (no ``backend`` argument)."""
    channel = make_channel()
    return LteNetworkSimulator(
        topology=topology if topology is not None else make_topology(channel),
        grid=ResourceGrid(5e6),
        channel=channel,
        rngs=RngStreams(SEED),
    )


class TestBackendSelection:
    def test_default_backend_is_incremental(self):
        assert make_default_net().backend == BACKEND_INCREMENTAL
        # The whole-matrix "vectorized" backend was folded into
        # incremental; its name is now an unknown backend.
        with pytest.raises(ValueError):
            make_net("vectorized")

    def test_unknown_backend_rejected(self):
        channel = make_channel()
        topology = make_topology(channel)
        with pytest.raises(ValueError):
            LteNetworkSimulator(
                topology=topology,
                grid=ResourceGrid(5e6),
                channel=channel,
                rngs=RngStreams(SEED),
                backend="gpu",
            )


class TestBitForBitEquivalence:
    def test_saturated_full_carrier(self):
        nets = {b: make_net(b) for b in BACKENDS}
        results = {}
        for backend, net in nets.items():
            policy = AllSubchannelsPolicy(
                [ap.ap_id for ap in net.topology.aps], net.grid.n_subchannels
            )
            demands = {c.client_id: float("inf") for c in net.topology.clients}
            results[backend] = net.run(2, policy, lambda e: dict(demands))
        assert_epochs_identical(
            results[BACKEND_SCALAR], results[BACKEND_INCREMENTAL]
        )

    def test_partial_subsets_and_mixed_demand(self):
        nets = {b: make_net(b) for b in BACKENDS}
        results = {}
        for backend, net in nets.items():
            policy = RotatingSubsetPolicy(
                [ap.ap_id for ap in net.topology.aps], net.grid.n_subchannels
            )
            results[backend] = net.run(
                3, policy, mixed_demand_fn(net.topology)
            )
        assert_epochs_identical(
            results[BACKEND_SCALAR], results[BACKEND_INCREMENTAL]
        )

    def test_equivalence_survives_mobility(self):
        nets = {b: make_net(b) for b in BACKENDS}
        policies = {
            b: RotatingSubsetPolicy(
                [ap.ap_id for ap in net.topology.aps], net.grid.n_subchannels
            )
            for b, net in nets.items()
        }
        moved = nets[BACKEND_SCALAR].topology.clients[3].client_id
        results = {b: [] for b in nets}
        for backend, net in nets.items():
            demand_fn = mixed_demand_fn(net.topology)
            allowed = policies[backend].decide(0, None)
            results[backend].append(net.run_epoch(0, allowed, demand_fn(0)))
            net.move_client(moved, 310.0, 1250.0)
            allowed = policies[backend].decide(
                1, results[backend][-1].observations
            )
            results[backend].append(net.run_epoch(1, allowed, demand_fn(1)))
        assert_epochs_identical(
            results[BACKEND_SCALAR], results[BACKEND_INCREMENTAL]
        )


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
