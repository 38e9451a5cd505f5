"""Scalar vs vectorized epoch backends: bit-for-bit equivalence.

The vectorized backend is only allowed to exist because it is *exactly*
the scalar reference implementation, faster: same RNG draw order, same
floating-point operation order where it matters, same quantisation.
These tests compare complete epoch outputs with ``==`` (no tolerances) on
a seeded 20-cell topology.
"""

import numpy as np
import pytest

from repro.lte.network import (
    BACKEND_SCALAR,
    BACKEND_VECTORIZED,
    AllSubchannelsPolicy,
    LteNetworkSimulator,
)
from repro.phy.propagation import (
    CompositeChannel,
    GainMatrixCache,
    LogNormalShadowing,
    UrbanHataPathLoss,
)
from repro.phy.resource_grid import ResourceGrid
from repro.sim.rng import RngStreams
from repro.sim.topology import random_topology, reassociate_strongest

N_CELLS = 20
CLIENTS_PER_AP = 4
SEED = 42


def make_channel():
    return CompositeChannel(
        UrbanHataPathLoss(), LogNormalShadowing(sigma_db=7.0, seed=SEED)
    )


def make_topology(channel):
    rng = np.random.default_rng(SEED)
    topology = random_topology(
        rng,
        n_aps=N_CELLS,
        clients_per_ap=CLIENTS_PER_AP,
        area_m=2000.0,
        client_range_m=600.0,
    )
    return reassociate_strongest(topology, channel.loss_db)


def make_net(backend):
    channel = make_channel()
    topology = make_topology(channel)
    return LteNetworkSimulator(
        topology=topology,
        grid=ResourceGrid(5e6),
        channel=channel,
        rngs=RngStreams(SEED),
        backend=backend,
    )


class RotatingSubsetPolicy:
    """Partial, shifting subchannel sets: exercises co-channel overlap,
    RLF weighting and idle subchannels -- the paths a full-carrier policy
    never touches."""

    def __init__(self, ap_ids, n_subchannels):
        self.ap_ids = list(ap_ids)
        self.n_subchannels = n_subchannels

    def decide(self, epoch_index, observations):
        return {
            ap: {
                (ap + epoch_index + k) % self.n_subchannels
                for k in range(3 + ap % 4)
            }
            for ap in self.ap_ids
        }


def mixed_demand_fn(topology):
    def fn(epoch):
        demands = {}
        for client in topology.clients:
            cid = client.client_id
            if cid % 5 == 0:
                demands[cid] = 0.0
            elif cid % 3 == 0:
                demands[cid] = 2e6
            else:
                demands[cid] = float("inf")
        return demands

    return fn


def assert_epochs_identical(results_a, results_b):
    assert len(results_a) == len(results_b)
    for a, b in zip(results_a, results_b):
        assert a.epoch_index == b.epoch_index
        assert a.served_bits == b.served_bits
        assert a.throughput_bps == b.throughput_bps
        assert a.connected == b.connected
        assert a.allocations.keys() == b.allocations.keys()
        for ap_id in a.allocations:
            assert a.allocations[ap_id].served_bits == b.allocations[ap_id].served_bits
            assert (
                a.allocations[ap_id].time_fraction
                == b.allocations[ap_id].time_fraction
            )
        assert a.observations.keys() == b.observations.keys()
        for ap_id in a.observations:
            oa, ob = a.observations[ap_id], b.observations[ap_id]
            assert oa.n_active_clients == ob.n_active_clients
            assert oa.estimated_contenders == ob.estimated_contenders
            assert oa.clients.keys() == ob.clients.keys()
            for cid in oa.clients:
                ca, cb = oa.clients[cid], ob.clients[cid]
                assert ca.subband_cqi == cb.subband_cqi
                assert ca.max_subband_cqi == cb.max_subband_cqi
                assert ca.interference_detected == cb.interference_detected
                assert ca.scheduled_fraction == cb.scheduled_fraction


class TestBackendSelection:
    def test_default_backend_is_vectorized(self):
        assert make_net(BACKEND_VECTORIZED).backend == BACKEND_VECTORIZED
        channel = make_channel()
        topology = make_topology(channel)
        net = LteNetworkSimulator(
            topology=topology,
            grid=ResourceGrid(5e6),
            channel=channel,
            rngs=RngStreams(SEED),
        )
        assert net.backend == BACKEND_VECTORIZED

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
        nets = {b: make_net(b) for b in (BACKEND_SCALAR, BACKEND_VECTORIZED)}
        results = {}
        for backend, net in nets.items():
            policy = AllSubchannelsPolicy(
                [ap.ap_id for ap in net.topology.aps], net.grid.n_subchannels
            )
            demands = {c.client_id: float("inf") for c in net.topology.clients}
            results[backend] = net.run(2, policy, lambda e: dict(demands))
        assert_epochs_identical(
            results[BACKEND_SCALAR], results[BACKEND_VECTORIZED]
        )

    def test_partial_subsets_and_mixed_demand(self):
        nets = {b: make_net(b) for b in (BACKEND_SCALAR, BACKEND_VECTORIZED)}
        results = {}
        for backend, net in nets.items():
            policy = RotatingSubsetPolicy(
                [ap.ap_id for ap in net.topology.aps], net.grid.n_subchannels
            )
            results[backend] = net.run(
                3, policy, mixed_demand_fn(net.topology)
            )
        assert_epochs_identical(
            results[BACKEND_SCALAR], results[BACKEND_VECTORIZED]
        )

    def test_equivalence_survives_mobility(self):
        nets = {b: make_net(b) for b in (BACKEND_SCALAR, BACKEND_VECTORIZED)}
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
            results[BACKEND_SCALAR], results[BACKEND_VECTORIZED]
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
        net = make_net(BACKEND_VECTORIZED)
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
        net = make_net(BACKEND_VECTORIZED)
        moved = net.topology.clients[0].client_id
        net.move_client(moved, 1777.0, 60.0)

        channel = make_channel()
        topology = make_topology(channel)
        topology.move_client(moved, 1777.0, 60.0)
        fresh = LteNetworkSimulator(
            topology=topology,
            grid=ResourceGrid(5e6),
            channel=channel,
            rngs=RngStreams(SEED),
            backend=BACKEND_VECTORIZED,
        )
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
