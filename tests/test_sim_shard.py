"""Spatial shard engine: partitioning, bit-identity and boundary handover.

The headline invariance net for ``repro.sim.shard``: sharding is a pure
execution strategy, so the churn fuzz scenario (mobility / handover /
demand / decision churn including zero-activity epochs) must produce
per-epoch digests, merged snapshots and RNG stream states *bitwise
identical* to the unsharded incremental epoch at shards ∈ {1, 2, 4} --
and the Hypothesis boundary walk holds the 2-shard engine to exact
equality with the scalar oracle while a UE random-walks across the shard
edge.
"""

import hashlib
import multiprocessing as mp

import numpy as np
import pytest

from repro.lte.network import AllSubchannelsPolicy, LteNetworkSimulator
from repro.lte.scalar_oracle import ScalarOracleSimulator
from repro.phy.resource_grid import ResourceGrid
from repro.sim.checkpoint import hash_state
from repro.sim.rng import RngStreams
from repro.sim.shard import EPOCH_STREAMS, ShardedNetwork
from repro.sim.topology import (
    grid_partition,
    grid_topology,
    halo_ap_ids,
)

from tests.test_lte_network_incremental import (
    CULL_DB,
    SEED,
    assert_epochs_identical,
    churn_run,
    make_channel,
    make_net,
    make_topology,
)

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - CI installs hypothesis
    HAVE_HYPOTHESIS = False


def epoch_digest(result):
    """Same digest the benchmark uses: exact IEEE-754 round-trip reprs."""
    payload = repr(
        (
            sorted(result.served_bits.items()),
            sorted(result.connected.items()),
            [
                (
                    ap_id,
                    obs.n_active_clients,
                    obs.estimated_contenders,
                    [
                        (
                            cid,
                            c.subband_cqi,
                            c.max_subband_cqi,
                            c.interference_detected,
                            sorted(c.scheduled_fraction.items()),
                        )
                        for cid, c in sorted(obs.clients.items())
                    ],
                )
                for ap_id, obs in sorted(result.observations.items())
            ],
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def shard_factory(cull_loss_db=CULL_DB):
    """Deterministic per-worker rebuild of the churn-fuzz scenario."""

    def factory(ap_ids):
        channel = make_channel()
        topology = make_topology(channel)
        return LteNetworkSimulator(
            topology=topology,
            grid=ResourceGrid(5e6),
            channel=channel,
            rngs=RngStreams(SEED),
            cull_loss_db=cull_loss_db,
            shard_ap_ids=ap_ids,
        )

    return factory


def make_sharded(n_shards, mode="inline", cull_loss_db=CULL_DB):
    channel = make_channel()
    topology = make_topology(channel)
    plan = grid_partition(topology, n_shards)
    return ShardedNetwork(
        topology,
        plan,
        shard_factory(cull_loss_db),
        RngStreams(SEED),
        ResourceGrid(5e6),
        mode=mode,
    )


class TestGridPartition:
    def test_partition_covers_every_ap_exactly_once(self):
        topology = make_topology(make_channel())
        for n in (1, 2, 3, 4, 6):
            plan = grid_partition(topology, n)
            # Empty tiles are dropped, so the plan may be shorter than
            # requested -- but never empty-sharded and never over-length.
            assert 1 <= len(plan) <= n
            assert all(plan)
            flat = [ap_id for shard in plan for ap_id in shard]
            assert sorted(flat) == sorted(ap.ap_id for ap in topology.aps)
            assert len(set(flat)) == len(flat)

    def test_four_shards_tile_two_by_two(self):
        topology = grid_topology(4, 1, spacing_m=500.0)
        plan = grid_partition(topology, 4)
        # Row-major 2x2 tiles over a 4x4 AP grid: each tile holds one
        # quadrant's 2x2 block of AP ids.
        assert plan[0] == [0, 1, 4, 5]
        assert plan[1] == [2, 3, 6, 7]
        assert plan[2] == [8, 9, 12, 13]
        assert plan[3] == [10, 11, 14, 15]

    def test_more_shards_than_aps_rejected(self):
        topology = grid_topology(2, 1, spacing_m=100.0)
        # 16 shards over 4 APs would leave workerless shards: refuse
        # loudly instead of building them.
        with pytest.raises(ValueError, match="cannot split 4 APs into 16"):
            grid_partition(topology, 16)

    def test_empty_tiles_are_dropped_not_returned(self):
        # A degenerate line of co-located APs tiles into a grid where
        # some cells are empty; the plan must omit them entirely.
        topology = grid_topology(5, 1, spacing_m=100.0)
        plan = grid_partition(topology, 4)
        assert all(plan), f"workerless shard in {plan}"
        flat = [ap_id for shard in plan for ap_id in shard]
        assert sorted(flat) == sorted(ap.ap_id for ap in topology.aps)

    def test_invalid_shard_count_rejected(self):
        topology = grid_topology(2, 1, spacing_m=100.0)
        with pytest.raises(ValueError):
            grid_partition(topology, 0)
        with pytest.raises(ValueError):
            grid_partition(topology, -1)

    def test_halo_excludes_members_and_grows_with_margin(self):
        topology = grid_topology(4, 1, spacing_m=500.0)
        shard = grid_partition(topology, 4)[0]
        near = halo_ap_ids(topology, shard, margin_m=600.0)
        far = halo_ap_ids(topology, shard, margin_m=5000.0)
        assert not set(near) & set(shard)
        assert set(near) <= set(far)
        assert set(far) == {ap.ap_id for ap in topology.aps} - set(shard)


class TestShardModeGuards:
    def test_shard_view_requires_incremental_backend(self):
        # Only the production (incremental) epoch runs a shard view: the
        # scalar oracle rejects ``shard_ap_ids``.
        channel = make_channel()
        topology = make_topology(channel)
        with pytest.raises(ValueError, match="shard_ap_ids"):
            ScalarOracleSimulator(
                topology=topology,
                grid=ResourceGrid(5e6),
                channel=channel,
                rngs=RngStreams(SEED),
                shard_ap_ids=[0, 1],
            )

    def test_sharded_run_rejects_non_incremental_backend(self, monkeypatch):
        # Shard workers only run the incremental epoch, and no argument of
        # a run selects another: one that asks for a backend must fail
        # loudly before any worker is built.
        import repro.experiments.large_scale as large_scale

        def no_workers(*args, **kwargs):
            raise AssertionError("shard workers built before the check")

        monkeypatch.setattr(large_scale, "ShardedNetwork", no_workers)
        with pytest.raises(TypeError, match="backend"):
            large_scale.SaturatedLteRun(
                large_scale.TECH_LTE, seed=4, n_aps=4, clients_per_ap=3,
                epochs=2, backend="scalar", shards=2, shard_mode="inline",
            )

    def test_unknown_shard_ap_ids_rejected(self):
        with pytest.raises(ValueError):
            shard_factory()([0, 999])

    def test_shard_view_requires_merged_prach_counts(self):
        net = shard_factory()([0, 1, 2])
        with pytest.raises(ValueError):
            net.run_epoch(0, {}, {})

    def test_overlapping_plan_rejected(self):
        channel = make_channel()
        topology = make_topology(channel)
        ids = [ap.ap_id for ap in topology.aps]
        with pytest.raises(ValueError):
            ShardedNetwork(
                topology,
                [ids, ids[:1]],
                shard_factory(),
                RngStreams(SEED),
                ResourceGrid(5e6),
                mode="inline",
            )

    def test_partial_plan_rejected(self):
        channel = make_channel()
        topology = make_topology(channel)
        ids = [ap.ap_id for ap in topology.aps]
        with pytest.raises(ValueError):
            ShardedNetwork(
                topology,
                [ids[:3]],
                shard_factory(),
                RngStreams(SEED),
                ResourceGrid(5e6),
                mode="inline",
            )


class TestShardInvariance:
    """The headline net: shards ∈ {1, 2, 4} ≡ unsharded, bit for bit."""

    N_EPOCHS = 12

    @pytest.fixture(scope="class")
    def baseline(self):
        net = make_net(cull_loss_db=CULL_DB)
        results = churn_run(net, self.N_EPOCHS)
        return {
            "results": results,
            "digests": [epoch_digest(r) for r in results],
            "state_hash": hash_state(net.state_dict()),
            "rng_states": {
                name: net.rngs.stream(name).bit_generator.state
                for name in EPOCH_STREAMS
            },
            "stats": dict(net.last_epoch_stats),
        }

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_churn_fuzz_bit_identical_digests(self, baseline, n_shards):
        sharded = make_sharded(n_shards, mode="inline")
        results = churn_run(sharded, self.N_EPOCHS)
        assert [epoch_digest(r) for r in results] == baseline["digests"]
        assert_epochs_identical(results, baseline["results"])
        # Merged snapshot and epoch RNG streams land on the same bytes.
        assert hash_state(sharded.state_dict()) == baseline["state_hash"]
        for name in EPOCH_STREAMS:
            assert (
                sharded.rngs.stream(name).bit_generator.state
                == baseline["rng_states"][name]
            )
        # Per-AP work counters sum across shards to the unsharded totals.
        assert sharded.last_epoch_stats == baseline["stats"]

    def test_two_shards_identical_without_cull_horizon(self):
        # Bit-identity never depended on culling: owned rows span every
        # AP, so the full-interference configuration shards exactly too.
        unsharded = make_net(cull_loss_db=None)
        expected = churn_run(unsharded, 6)
        sharded = make_sharded(2, mode="inline", cull_loss_db=None)
        assert_epochs_identical(churn_run(sharded, 6), expected)

    @pytest.mark.skipif(
        "fork" not in mp.get_all_start_methods(),
        reason="process workers need the fork start method",
    )
    def test_process_mode_matches_inline(self, baseline):
        sharded = make_sharded(2, mode="process")
        try:
            results = churn_run(sharded, self.N_EPOCHS)
            assert [epoch_digest(r) for r in results] == baseline["digests"]
            assert hash_state(sharded.state_dict()) == baseline["state_hash"]
        finally:
            sharded.close()

    def test_ownership_stays_a_partition_under_churn(self):
        sharded = make_sharded(4, mode="inline")
        churn_run(sharded, 8)
        owned_sets = [worker.net._owned_clients for worker in sharded.workers]
        all_ids = {c.client_id for c in sharded.topology.clients}
        union = set()
        total = 0
        for owned in owned_sets:
            union |= owned
            total += len(owned)
        assert union == all_ids
        assert total == len(all_ids)
        # And ownership matches the serving AP's shard everywhere.
        for client in sharded.topology.clients:
            owner = sharded.shard_of_client(client.client_id)
            assert client.client_id in owned_sets[owner]


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestBoundaryHandover:
    """UEs random-walking across the shard edge vs the scalar oracle.

    ``grid_topology(3, ...)`` under a 2-shard plan splits the map into a
    left and right column group; the walker starts on the seam and the
    walk repeatedly crosses it, so every example exercises cross-shard
    handover (row migration) at the epoch barrier.  The scalar oracle is
    the ground truth: equality proves no interference is double-counted
    and the share-formula inputs ``N_i`` (n_active_clients) and ``NP_i``
    (estimated_contenders) are exact.
    """

    SPACING_M = 400.0

    def _build_pair(self):
        def build_topology():
            return grid_topology(3, 2, spacing_m=self.SPACING_M)

        def oracle():
            topology = build_topology()
            return ScalarOracleSimulator(
                topology=topology,
                grid=ResourceGrid(5e6),
                channel=make_channel(),
                rngs=RngStreams(SEED),
                cull_loss_db=CULL_DB,
            )

        def factory(ap_ids):
            topology = build_topology()
            return LteNetworkSimulator(
                topology=topology,
                grid=ResourceGrid(5e6),
                channel=make_channel(),
                rngs=RngStreams(SEED),
                cull_loss_db=CULL_DB,
                shard_ap_ids=ap_ids,
            )

        topology = build_topology()
        plan = grid_partition(topology, 2)
        sharded = ShardedNetwork(
            topology,
            plan,
            factory,
            RngStreams(SEED),
            ResourceGrid(5e6),
            mode="inline",
        )
        return sharded, oracle()

    @staticmethod
    def _nearest_ap(topology, x, y):
        return min(
            topology.aps,
            key=lambda ap: ((ap.x - x) ** 2 + (ap.y - y) ** 2, ap.ap_id),
        ).ap_id

    @given(
        walk=st.lists(
            st.tuples(
                st.integers(-300, 300),
                st.integers(-300, 300),
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=12, deadline=None)
    def test_boundary_walk_matches_scalar_oracle(self, walk):
        sharded, oracle = self._build_pair()
        area = sharded.topology.area_m
        walker = sharded.topology.clients[0].client_id
        # Start the walker on the seam between the two shard columns.
        x, y = area / 2.0, area / 2.0
        demands = {
            c.client_id: float("inf") for c in sharded.topology.clients
        }
        policy = AllSubchannelsPolicy(
            [ap.ap_id for ap in sharded.topology.aps],
            sharded.grid.n_subchannels,
        )
        allowed = policy.decide(0, None)
        for epoch, (dx, dy) in enumerate(walk):
            x = min(max(x + dx, 0.0), area)
            y = min(max(y + dy, 0.0), area)
            target = self._nearest_ap(sharded.topology, x, y)
            for net in (sharded, oracle):
                net.move_client(walker, x, y)
                net.reattach_client(walker, target)
            got = sharded.run_epoch(epoch, allowed, demands)
            want = oracle.run_epoch(epoch, allowed, demands)
            # Never loses attachment: the walker is observed by exactly
            # its serving AP, in exactly one shard.
            serving = sharded.topology.client(walker).ap_id
            assert serving == target
            assert walker in got.observations[serving].clients
            owners = [
                k
                for k, worker in enumerate(sharded.workers)
                if walker in worker.net._owned_clients
            ]
            assert owners == [sharded.shard_of_client(walker)]
            # No client double-counted anywhere in the merged result.
            assert len(got.served_bits) == len(sharded.topology.clients)
            # Share-formula inputs S_i = N_i * S / NP_i match the oracle
            # exactly, as does everything downstream of them.
            for ap_id, obs in want.observations.items():
                assert got.observations[ap_id].n_active_clients == (
                    obs.n_active_clients
                )
                assert got.observations[ap_id].estimated_contenders == (
                    obs.estimated_contenders
                )
            assert_epochs_identical([got], [want])
