"""Strongest-cell association and the scenario's one loss block.

``reassociate_strongest`` computes the whole ``(n_clients, n_aps)`` loss
block through ``CompositeChannel.loss_db_rows`` and picks each row's
``argmin``.  These tests hold it to the per-link ``min(key=)`` scan it
replaced (kept here, and only here, as the oracle), check that every
gain cache seeded from the block is bit-identical to one filled from
scratch, that runs sharing a scenario never share (or corrupt) its
block, and that sharded workers -- respawned ones included -- start from
the scenario as built.
"""

import dataclasses
import multiprocessing as mp
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.sim.topology as topology_module
from repro.experiments.common import CLIENT_RANGE_M, build_scenario
from repro.experiments.large_scale import (
    TECH_CELLFI,
    TECH_LTE,
    TECH_ORACLE,
    SaturatedLteRun,
)
from repro.phy.propagation import (
    FILL_BATCHED,
    FILL_SCALAR,
    CompositeChannel,
    GainMatrixCache,
    LogNormalShadowing,
    UrbanHataPathLoss,
)
from repro.sim.rng import RngStreams
from repro.sim.topology import (
    AccessPointSite,
    ClientSite,
    Topology,
    random_topology,
    reassociate_strongest,
)

from tests.test_sim_shard import epoch_digest

HAVE_FORK = "fork" in mp.get_all_start_methods()


def scalar_reassociate_strongest(topology, loss_db):
    """The per-link oracle: ``min(aps, key=loss)`` for every client."""
    new_clients = []
    for client in topology.clients:
        best_ap = min(topology.aps, key=lambda ap: loss_db(ap, client))
        new_clients.append(
            ClientSite(
                client_id=client.client_id,
                x=client.x,
                y=client.y,
                ap_id=best_ap.ap_id,
                height_m=client.height_m,
            )
        )
    return Topology(area_m=topology.area_m, aps=list(topology.aps), clients=new_clients)


def scalar_block(channel, aps, clients):
    return np.array(
        [[channel.loss_db(ap, client) for ap in aps] for client in clients]
    ).reshape(len(clients), len(aps))


def assert_same_association(got, want):
    assert [(c.client_id, c.x, c.y, c.ap_id) for c in got.clients] == [
        (c.client_id, c.x, c.y, c.ap_id) for c in want.clients
    ]
    assert got.aps == want.aps


def assert_bits_equal(a, b):
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _channel(seed, sigma_db):
    return CompositeChannel(
        UrbanHataPathLoss(), LogNormalShadowing(sigma_db, seed=seed)
    )


class _FlatChannel:
    """Every link has the same loss: every client ties across every AP."""

    @staticmethod
    def loss_db(ap, client):
        return 120.0

    @staticmethod
    def loss_db_rows(aps, clients):
        return np.full((len(clients), len(aps)), 120.0)


class TestBatchedAssociation:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_aps=st.integers(1, 14),
        clients_per_ap=st.integers(0, 6),
        sigma_db=st.sampled_from([0.0, 7.0]),
        n_colocated=st.integers(0, 3),
        chunk_links=st.sampled_from([1, 7, 64, 16384]),
    )
    def test_matches_scalar_oracle(
        self, seed, n_aps, clients_per_ap, sigma_db, n_colocated, chunk_links
    ):
        rng = np.random.default_rng(seed)
        topology = random_topology(
            rng, n_aps=n_aps, clients_per_ap=clients_per_ap,
            client_range_m=CLIENT_RANGE_M,
        )
        # Co-located APs: identical positions give bit-equal losses (the
        # shadowing key only sees positions), so every such pair ties.
        aps = list(topology.aps)
        for k in range(min(n_colocated, n_aps - 1)):
            src = aps[k]
            aps[n_aps - 1 - k] = AccessPointSite(aps[n_aps - 1 - k].ap_id, src.x, src.y)
        topology = Topology(topology.area_m, aps, topology.clients)
        channel = _channel(seed, sigma_db)
        with mock.patch.object(topology_module, "_CHUNK_LINKS", chunk_links):
            got, block = reassociate_strongest(topology, channel)
        assert_same_association(
            got, scalar_reassociate_strongest(topology, channel.loss_db)
        )
        assert_bits_equal(block, scalar_block(channel, topology.aps, topology.clients))

    def test_colocated_aps_pick_the_first(self):
        aps = [
            AccessPointSite(3, 500.0, 500.0),
            AccessPointSite(1, 500.0, 500.0),
            AccessPointSite(2, 1500.0, 1500.0),
        ]
        clients = [ClientSite(i, 400.0 + 10 * i, 450.0, ap_id=2) for i in range(5)]
        topology = Topology(2000.0, aps, clients)
        channel = _channel(4, 7.0)
        got, block = reassociate_strongest(topology, channel)
        assert np.array_equal(block[:, 0], block[:, 1])
        assert all(c.ap_id == 3 for c in got.clients)
        assert_same_association(
            got, scalar_reassociate_strongest(topology, channel.loss_db)
        )

    @settings(max_examples=20, deadline=None)
    @given(order=st.permutations(list(range(6))), n_clients=st.integers(1, 9))
    def test_equal_losses_pick_the_first_ap_in_list_order(self, order, n_clients):
        aps = [AccessPointSite(ap_id, 100.0 * ap_id, 0.0) for ap_id in order]
        clients = [ClientSite(i, 50.0, 50.0, ap_id=order[-1]) for i in range(n_clients)]
        topology = Topology(1000.0, aps, clients)
        got, _ = reassociate_strongest(topology, _FlatChannel())
        assert [c.ap_id for c in got.clients] == [order[0]] * n_clients
        assert_same_association(
            got, scalar_reassociate_strongest(topology, _FlatChannel.loss_db)
        )

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 50), n_aps=st.integers(4, 10))
    def test_scenario_and_shard_workers_match_oracle(self, seed, n_aps):
        scenario = build_scenario(seed, n_aps, 3)
        channel = scenario.channel
        spawned = random_topology(
            RngStreams(seed).stream("topology"), n_aps=n_aps, clients_per_ap=3,
            client_range_m=CLIENT_RANGE_M,
        )
        want = scalar_reassociate_strongest(spawned, channel.loss_db)
        want_block = scalar_block(channel, want.aps, want.clients)
        assert_same_association(scenario.topology, want)
        assert_bits_equal(scenario.loss_block, want_block)
        assert not scenario.loss_block.flags.writeable

        unsharded = SaturatedLteRun(TECH_LTE, seed, n_aps, 3, epochs=1, scenario=scenario)
        assert_bits_equal(unsharded.net.gain_cache.matrix(), want_block)
        sharded = SaturatedLteRun(
            TECH_LTE, seed, n_aps, 3, epochs=1, scenario=scenario,
            shards=2, shard_mode="inline",
        )
        try:
            for worker in sharded.net.workers:
                assert_same_association(worker.net.topology, want)
                assert worker.net.topology is not sharded.net.topology
                assert worker.net.channel is not channel
                assert_bits_equal(worker.net.gain_cache.matrix(), want_block)
        finally:
            sharded.close()


class TestSeededGainCache:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_aps=st.integers(1, 8),
        clients_per_ap=st.integers(1, 4),
        fill_mode=st.sampled_from([FILL_BATCHED, FILL_SCALAR]),
        data=st.data(),
    )
    def test_seeded_cache_is_bit_identical_to_fresh(
        self, seed, n_aps, clients_per_ap, fill_mode, data
    ):
        scenario = build_scenario(seed, n_aps, clients_per_ap)
        topology = scenario.topology
        fresh = GainMatrixCache(
            scenario.channel, topology.aps, topology.clients, fill_mode=fill_mode
        )
        seeded = GainMatrixCache(
            scenario.channel, topology.aps, topology.clients, fill_mode=fill_mode
        )
        seeded.seed(scenario.loss_block, scenario.build_clients)
        assert seeded._row_valid.all()
        assert_bits_equal(seeded.matrix(), fresh.matrix())

        old = data.draw(st.sampled_from(topology.clients))
        x = data.draw(st.floats(0.0, topology.area_m))
        y = data.draw(st.floats(0.0, topology.area_m))
        site = ClientSite(old.client_id, x, y, old.ap_id)
        for cache in (fresh, seeded):
            cache.invalidate_client(old.client_id, site)
        # A cache holding a moved site no longer holds the block's sites.
        with pytest.raises(ValueError, match="not the cache's client sites"):
            seeded.seed(scenario.loss_block, scenario.build_clients)
        assert_bits_equal(seeded.matrix(), fresh.matrix())
        row = seeded.rows([old.client_id])[0]
        assert_bits_equal(
            row, scalar_block(scenario.channel, topology.aps, [site])[0]
        )

    def test_seed_rejects_antennas_and_bad_shapes(self):
        scenario = build_scenario(1, 3, 2)
        topology = scenario.topology
        cache = GainMatrixCache(
            scenario.channel, topology.aps, topology.clients,
            ap_antennas={topology.aps[0].ap_id: object()},
        )
        with pytest.raises(ValueError, match="antennas"):
            cache.seed(scenario.loss_block, scenario.build_clients)
        cache = GainMatrixCache(scenario.channel, topology.aps, topology.clients[1:])
        with pytest.raises(ValueError, match="does not match"):
            cache.seed(scenario.loss_block, scenario.build_clients)
        # Equal sites are not enough: the block belongs to the very objects.
        copies = [ClientSite(c.client_id, c.x, c.y, c.ap_id) for c in topology.clients]
        cache = GainMatrixCache(scenario.channel, topology.aps, copies)
        with pytest.raises(ValueError, match="not the cache's client sites"):
            cache.seed(scenario.loss_block, scenario.build_clients)
        assert not cache._row_valid.any()

    def test_a_move_in_one_run_touches_no_other_cache(self):
        scenario = build_scenario(2, 8, 4)
        block_before = scenario.loss_block.copy()
        first = SaturatedLteRun(TECH_CELLFI, 2, 8, 4, epochs=1, scenario=scenario)
        second = SaturatedLteRun(TECH_LTE, 2, 8, 4, epochs=1, scenario=scenario)
        second_before = second.net.gain_cache.matrix().copy()

        mover = scenario.build_clients[5]
        first.net.move_client(mover.client_id, mover.x + 300.0, mover.y + 40.0)
        moved = first.net.topology.client(mover.client_id)
        assert moved is not mover
        want_row = scalar_block(scenario.channel, scenario.aps, [moved])[0]
        assert_bits_equal(first.net.gain_cache.rows([mover.client_id])[0], want_row)
        assert second.net.topology.client(mover.client_id) is mover

        assert_bits_equal(scenario.loss_block, block_before)
        assert_bits_equal(second.net.gain_cache.matrix(), second_before)
        with pytest.raises(ValueError):
            scenario.loss_block[0, 0] = 0.0
        # A run built after the move starts from the scenario as built.
        third = SaturatedLteRun(TECH_LTE, 2, 8, 4, epochs=1, scenario=scenario)
        assert third.net.topology.client(mover.client_id) is mover
        assert_bits_equal(third.net.gain_cache.matrix(), block_before)


@pytest.mark.skipif(not HAVE_FORK, reason="process shards need fork")
class TestShardRespawnFromBuildState:
    def test_killed_worker_respawns_from_build_time_scenario(self):
        seed, n_aps, clients_per_ap, epochs = 3, 16, 3, 6
        sharded = SaturatedLteRun(
            TECH_CELLFI, seed, n_aps, clients_per_ap, epochs=epochs,
            shards=2, shard_mode="process", shard_supervise=True,
            chaos="kill@3:1",
        )
        unsharded = SaturatedLteRun(
            TECH_CELLFI, seed, n_aps, clients_per_ap, epochs=epochs
        )
        runs = (unsharded, sharded)
        area_m = unsharded.scenario.topology.area_m
        n_clients = n_aps * clients_per_ap
        events = np.random.default_rng(99)
        digests = {id(run): [] for run in runs}
        try:
            for _ in range(epochs):
                for run in runs:
                    digests[id(run)].append(epoch_digest(run.step_epoch()))
                moves = [
                    (int(events.integers(n_clients)),
                     float(events.uniform(0.0, area_m)),
                     float(events.uniform(0.0, area_m)))
                    for _ in range(4)
                ]
                handovers = [
                    (int(events.integers(n_clients)), int(events.integers(n_aps)))
                    for _ in range(2)
                ]
                for run in runs:
                    for cid, x, y in moves:
                        run.net.move_client(cid, x, y)
                    for cid, ap_id in handovers:
                        run.net.reattach_client(cid, ap_id)
            assert digests[id(sharded)] == digests[id(unsharded)]
            stats = sharded.supervision_stats()
            assert stats["crashes"] >= 1 and stats["restarts"] >= 1
            # Snapshot load re-applies positions and serving APs, so the
            # digests alone would also hold for a factory that read the
            # parent's live topology; pin the build-time state directly.
            scenario = sharded.scenario
            assert sharded.net.topology.clients != list(scenario.build_clients)
            assert scenario.topology.clients == list(scenario.build_clients)
            rebuilt = sharded.net._net_factory(sharded.net.shard_plan[1])
            assert rebuilt.topology.clients == list(scenario.build_clients)
            assert_bits_equal(rebuilt.gain_cache.matrix(), scenario.loss_block)
        finally:
            sharded.close()


class TestRunsOwnTheirState:
    def test_events_in_one_run_leave_every_other_run_at_build_time(self):
        seed, n_aps, clients_per_ap = 4, 12, 3
        scenario = build_scenario(seed, n_aps, clients_per_ap)
        build_clients = list(scenario.build_clients)
        mover_run = SaturatedLteRun(
            TECH_CELLFI, seed, n_aps, clients_per_ap, epochs=1,
            scenario=scenario, shards=2, shard_mode="inline",
        )
        others = [
            SaturatedLteRun(
                tech, seed, n_aps, clients_per_ap, epochs=1, scenario=scenario
            )
            for tech in (TECH_CELLFI, TECH_LTE, TECH_ORACLE)
        ]
        later = None
        try:
            # One move and one re-attach across the shard boundary.
            plan = mover_run.net.shard_plan
            mover = next(c for c in build_clients if c.ap_id in plan[0])
            mover_run.net.move_client(mover.client_id, mover.x + 250.0, mover.y)
            mover_run.net.reattach_client(mover.client_id, plan[1][0])
            moved = mover_run.net.topology.client(mover.client_id)
            assert (moved.x, moved.ap_id) == (mover.x + 250.0, plan[1][0])
            for worker in mover_run.net.workers:
                assert worker.net.topology.client(mover.client_id) == moved

            for run in others:
                topology, cache = run.net.topology, run.net.gain_cache
                assert topology.clients == build_clients
                assert all(
                    held is site
                    for held, site in zip(cache._clients, topology.clients)
                )
                assert_bits_equal(cache.matrix(), scenario.loss_block)
            assert scenario.topology.clients == build_clients
            assert scenario.topology.client(mover.client_id) is mover

            later = SaturatedLteRun(
                TECH_CELLFI, seed, n_aps, clients_per_ap, epochs=1,
                scenario=scenario, shards=2, shard_mode="inline",
            )
            assert later.net.topology.clients == build_clients
            for worker in later.net.workers:
                assert worker.net.topology.clients == later.net.topology.clients
                assert_bits_equal(
                    worker.net.gain_cache.matrix(), scenario.loss_block
                )
        finally:
            mover_run.close()
            if later is not None:
                later.close()

        with pytest.raises(dataclasses.FrozenInstanceError):
            scenario.build_clients = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            scenario.topology = scenario.topology
