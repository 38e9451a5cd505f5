"""Shard engine protocol: one op table, one barrier, one failure path.

``repro.sim.shard`` dispatches every worker op through one table, runs
one barrier for supervised and unsupervised nets alike, and hands every
worker failure to one handler.  This suite pins the consequences:

* a failing event op is deferred in both transports, surfaces at the
  next op that replies, and is recorded as one ``worker-op-error`` event
  per ``(shard, signature)`` -- inline or process, supervised or not;
* a degraded shard that fails the same request again is raised, never
  retried forever;
* the barrier goes through each worker's ``begin_epoch`` /
  ``read_partial`` / ``commit_epoch`` / ``read_result`` exactly once per
  epoch in every mode, so per-phase tracing attributes shard time even
  under supervision;
* the paper's own path -- CellFi hopping under mobility and handover
  churn at 64 APs -- gives the same per-epoch digests on the scalar
  oracle, on incremental at 1 shard and on 2 and 4 inline shards;
* the same holds when every client moves every epoch, so the batched
  block pass recomputes nearly every AP at once, also under a culling
  horizon;
* the PRACH partial counts of any ``grid_partition`` add up exactly to
  the unsharded contender counts.
"""

import multiprocessing as mp
import warnings

import numpy as np
import pytest

from repro.core.interference.manager import CellFiInterferenceManager
from repro.experiments.common import build_scenario
from repro.experiments.large_scale import TECH_CELLFI, SaturatedLteRun
from repro.lte.network import AllSubchannelsPolicy, LteNetworkSimulator
from repro.lte.scalar_oracle import ScalarOracleSimulator
from repro.phy.resource_grid import ResourceGrid
from repro.sim.rng import RngStreams
from repro.sim.shard import (
    _EVENT_OPS,
    _OPS,
    ShardDegradedWarning,
    ShardedNetwork,
    SupervisionConfig,
    _ShardServer,
)
from repro.sim.topology import grid_partition, random_topology, reassociate_strongest

from tests.test_lte_network_incremental import (
    CULL_DB,
    SEED,
    churn_run,
    make_channel,
    make_topology,
    oracle_run,
)
from tests.test_sim_shard import epoch_digest, shard_factory

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - CI installs hypothesis
    HAVE_HYPOTHESIS = False

HAVE_FORK = "fork" in mp.get_all_start_methods()

MODES = [
    "inline",
    pytest.param(
        "process",
        marks=pytest.mark.skipif(
            not HAVE_FORK, reason="fork start method unavailable"
        ),
    ),
]

MOVE_SIG = "move: ValueError: move refused"


def build_net(n_shards, mode, supervised, factory=None, **config_kwargs):
    channel = make_channel()
    topology = make_topology(channel)
    if supervised:
        config_kwargs.setdefault("phase_timeout_s", 30.0)
    return ShardedNetwork(
        topology,
        grid_partition(topology, n_shards),
        factory or shard_factory(CULL_DB),
        RngStreams(SEED),
        ResourceGrid(5e6),
        mode=mode,
        supervision=SupervisionConfig(**config_kwargs) if supervised else None,
    )


def all_on(net):
    allowed = AllSubchannelsPolicy(
        [ap.ap_id for ap in net.topology.aps], net.grid.n_subchannels
    ).decide(0, None)
    demands = {c.client_id: float("inf") for c in net.topology.clients}
    return allowed, demands


def refusing_move_factory():
    """Shard nets whose ``move_client`` always raises."""
    build = shard_factory(CULL_DB)

    def factory(ap_ids):
        net = build(ap_ids)

        def move_client(client_id, x, y):
            raise ValueError("move refused")

        net.move_client = move_client
        return net

    return factory


class TestOpTable:
    def test_event_ops_defer_and_poison(self):
        server = _ShardServer(refusing_move_factory(), [0, 1])
        assert server.serve(("move", 0, 1.0, 2.0)) is None
        assert server.serve(("move", 0, 3.0, 4.0)) is None
        tag, payload = server.serve(("build_stats",))
        assert tag == "error"
        rows = {row["signature"]: row["count"] for row in payload["deferred_ops"]}
        # The first failure poisons the shard: the second move is skipped.
        assert rows[MOVE_SIG] == 1
        assert sum(rows.values()) == 2

    def test_unknown_op_is_an_error_reply(self):
        server = _ShardServer(shard_factory(CULL_DB), [0, 1])
        tag, payload = server.serve(("bogus",))
        assert tag == "error"
        assert "unknown shard worker op 'bogus'" in payload

    def test_table_holds_every_op(self):
        assert set(_OPS) == {
            "move", "reattach", "import", "export", "begin", "commit",
            "build_stats", "tel_flush", "state", "load",
        }
        assert _EVENT_OPS <= set(_OPS)


class TestOneFailureSurface:
    @pytest.mark.parametrize("supervised", [False, True])
    @pytest.mark.parametrize("mode", MODES)
    def test_event_error_surfaces_at_next_reply(self, mode, supervised):
        net = build_net(
            2, mode, supervised, factory=refusing_move_factory(),
            retry_budget=1, backoff_base_s=0.0,
        )
        try:
            allowed, demands = all_on(net)
            net.run_epoch(0, allowed, demands)
            clients = net.topology.clients
            # Fire-and-forget in both transports: neither call raises.
            net.move_client(clients[0].client_id, 10.0, 20.0)
            net.move_client(clients[1].client_id, 30.0, 40.0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ShardDegradedWarning)
                with pytest.raises(RuntimeError, match="move refused"):
                    net.run_epoch(1, allowed, demands)
            events = [e for e in net.events.events if e.kind == "worker-op-error"]
            keys = [(e.source, e.detail.split(" ", 1)[1]) for e in events]
            assert len(keys) == len(set(keys)), keys
            assert [key for key in keys if key[1] == MOVE_SIG] == [
                ("shard0", MOVE_SIG)
            ]
        finally:
            net.close()


def refusing_counts_factory():
    """Shard nets whose PRACH partial count always raises."""
    build = shard_factory(CULL_DB)

    def factory(ap_ids):
        net = build(ap_ids)

        def prach_partial_counts(demands_bits):
            raise ValueError("no counts")

        net.prach_partial_counts = prach_partial_counts
        return net

    return factory


class TestDeterministicBarrierFailure:
    @pytest.mark.parametrize("mode", MODES)
    def test_degraded_shard_failing_again_is_raised(self, mode):
        # The journal replay of a degraded shard succeeds, but the
        # re-posted request fails the same way: raised, not retried
        # forever.
        net = build_net(
            2, mode, True, factory=refusing_counts_factory(),
            retry_budget=1, backoff_base_s=0.0,
        )
        try:
            allowed, demands = all_on(net)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ShardDegradedWarning)
                with pytest.raises(RuntimeError, match="even after degrading"):
                    net.run_epoch(0, allowed, demands)
            assert net.supervisor.degraded[0]
        finally:
            net.close()


class TestBarrierPhaseMethods:
    N_EPOCHS = 4

    @pytest.mark.parametrize("supervised", [False, True])
    @pytest.mark.parametrize("mode", MODES)
    def test_each_phase_method_runs_once_per_worker_per_epoch(
        self, mode, supervised
    ):
        net = build_net(2, mode, supervised)
        calls = []
        try:
            for k, worker in enumerate(net.workers):
                for name in (
                    "begin_epoch", "read_partial", "commit_epoch", "read_result"
                ):
                    original = getattr(worker, name)

                    def counted(*args, _orig=original, _key=(k, name), **kwargs):
                        calls.append(_key)
                        return _orig(*args, **kwargs)

                    setattr(worker, name, counted)
            churn_run(net, self.N_EPOCHS)
            if supervised:
                assert net.supervisor.stats["restarts"] == 0
        finally:
            net.close()
        for k in range(2):
            for name in (
                "begin_epoch", "read_partial", "commit_epoch", "read_result"
            ):
                assert calls.count((k, name)) == self.N_EPOCHS, (k, name)


class TestPaperPathBitIdentity:
    """CellFi hopping under churn: scalar == incremental at 1/2/4 shards."""

    SEED = 3
    N_EPOCHS = 10

    N_APS = 64
    CLIENTS_PER_AP = 4

    def _run(self, run):
        grants = []
        decide = run.policy.decide

        def recording(epoch, observations):
            allowed = decide(epoch, observations)
            grants.append({ap: frozenset(subs) for ap, subs in allowed.items()})
            return allowed

        run.policy.decide = recording
        churn = np.random.default_rng(1000 + self.SEED)
        topology = run.net.topology
        ap_ids = [ap.ap_id for ap in topology.aps]
        digests = []
        try:
            for _ in range(self.N_EPOCHS):
                digests.append(epoch_digest(run.step_epoch()))
                for _ in range(6):
                    mover = topology.clients[
                        int(churn.integers(len(topology.clients)))
                    ]
                    run.net.move_client(
                        mover.client_id,
                        float(churn.uniform(0.0, topology.area_m)),
                        float(churn.uniform(0.0, topology.area_m)),
                    )
                for _ in range(3):
                    roamer = topology.clients[
                        int(churn.integers(len(topology.clients)))
                    ]
                    run.net.reattach_client(
                        roamer.client_id, ap_ids[int(churn.integers(len(ap_ids)))]
                    )
        finally:
            run.close()
        return digests, grants

    def test_backends_and_shard_counts_agree_per_epoch(self):
        oracle, grants = self._run(oracle_run(
            TECH_CELLFI, self.SEED, self.N_APS, self.CLIENTS_PER_AP,
            self.N_EPOCHS,
        ))
        changed = sum(1 for a, b in zip(grants, grants[1:]) if a != b)
        # Hopping must actually happen, or the comparison is vacuous.
        assert changed * 2 >= len(grants) - 1, changed
        for shards in (1, 2, 4):
            digests, run_grants = self._run(SaturatedLteRun(
                TECH_CELLFI, self.SEED, n_aps=self.N_APS,
                clients_per_ap=self.CLIENTS_PER_AP, epochs=self.N_EPOCHS,
                shards=shards, shard_mode="inline",
            ))
            assert run_grants == grants, f"grants diverged at {shards} shard(s)"
            for epoch, (got, want) in enumerate(zip(digests, oracle)):
                assert got == want, f"{shards} shard(s): epoch {epoch} diverged"


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestPrachReduction:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_shards=st.integers(1, 4),
        data=st.data(),
    )
    def test_partials_sum_to_unsharded_counts(self, seed, n_shards, data):
        channel = make_channel()
        topology, _ = reassociate_strongest(
            random_topology(
                np.random.default_rng(seed),
                n_aps=12,
                clients_per_ap=3,
                area_m=2000.0,
                client_range_m=600.0,
            ),
            channel,
        )
        mask = data.draw(
            st.lists(
                st.booleans(),
                min_size=len(topology.clients),
                max_size=len(topology.clients),
            ),
            label="active",
        )
        demands = {
            c.client_id: (1e5 if on else 0.0)
            for c, on in zip(topology.clients, mask)
        }

        def build(shard_ap_ids=None):
            return LteNetworkSimulator(
                topology=topology,
                grid=ResourceGrid(5e6),
                channel=channel,
                rngs=RngStreams(seed),
                shard_ap_ids=shard_ap_ids,
            )

        whole = build()
        active = np.array(mask, dtype=bool)
        want = whole._prach_mat[active].sum(axis=0)
        partials = [
            build(shard).prach_partial_counts(demands)
            for shard in grid_partition(topology, n_shards)
        ]
        got = partials[0]
        for partial in partials[1:]:
            got = got + partial
        assert np.issubdtype(got.dtype, np.integer)
        assert np.array_equal(got, want)


class TestAllDirtyChurn:
    """Every client moves every epoch: the batched block pass at full load.

    Nearly every AP's block is stale every epoch, with full recomputes
    (re-attached rows, changed signatures) and dirty-row patches mixed in
    one batch.  The policy's grants are handed over in a shuffled AP
    order, so the interference sums must follow the grant order, not the
    topology order.  The scalar oracle, incremental and 2 inline shards
    must agree on every ``EpochResult`` and on the RNG stream states after
    every epoch, and the two incremental runs on ``last_epoch_stats``.
    """

    SEED = 11
    N_APS = 30
    CLIENTS_PER_AP = 4
    N_EPOCHS = 6
    STEP_M = 80.0

    def _saturated_runs(self):
        runs = [
            oracle_run(
                TECH_CELLFI, self.SEED, self.N_APS, self.CLIENTS_PER_AP,
                self.N_EPOCHS,
            ),
            *(
                SaturatedLteRun(
                    TECH_CELLFI, self.SEED, n_aps=self.N_APS,
                    clients_per_ap=self.CLIENTS_PER_AP, epochs=self.N_EPOCHS,
                    shards=shards, shard_mode="inline",
                )
                for shards in (1, 2)
            ),
        ]
        return [(run.net, run.policy) for run in runs], runs

    def _culled_runs(self, cull_loss_db):
        def scenario():
            return build_scenario(self.SEED, self.N_APS, self.CLIENTS_PER_AP)

        def single(simulator):
            sc = scenario()
            return sc, simulator(
                topology=sc.topology, grid=sc.grid(), channel=sc.channel,
                rngs=sc.rngs.fork("net"), cull_loss_db=cull_loss_db,
            )

        def sharded():
            sc = scenario()

            def factory(ap_ids):
                fresh = scenario()
                return LteNetworkSimulator(
                    topology=fresh.topology, grid=fresh.grid(),
                    channel=fresh.channel, rngs=fresh.rngs.fork("net"),
                    cull_loss_db=cull_loss_db, shard_ap_ids=ap_ids,
                )

            return sc, ShardedNetwork(
                sc.topology, grid_partition(sc.topology, 2), factory,
                sc.rngs.fork("net"), sc.grid(), mode="inline",
            )

        pairs = []
        for sc, net in (single(ScalarOracleSimulator),
                        single(LteNetworkSimulator), sharded()):
            policy = CellFiInterferenceManager(
                sc.ap_ids, net.grid.n_subchannels, sc.rngs.fork("manager")
            )
            pairs.append((net, policy))
        return pairs, [net for net, _ in pairs[2:]]

    def _drive(self, pairs):
        """Run the churn on every (net, policy) pair in lockstep."""
        churn = np.random.default_rng(2000 + self.SEED)
        observations = [None] * len(pairs)
        stats = []
        for epoch in range(self.N_EPOCHS):
            order = churn.permutation(self.N_APS).tolist()
            results = []
            for k, (net, policy) in enumerate(pairs):
                allowed = policy.decide(epoch, observations[k])
                ap_ids = list(allowed)
                shuffled = {ap_ids[i]: allowed[ap_ids[i]] for i in order}
                demands = {c.client_id: float("inf") for c in net.topology.clients}
                results.append(net.run_epoch(epoch, shuffled, demands))
                observations[k] = results[-1].observations
            for k, got in enumerate(results[1:], 1):
                assert got == results[0], f"run {k}: epoch {epoch} diverged"
                assert got.allocations == results[0].allocations
                assert got.observations == results[0].observations
            for name in ("net", "policy"):
                states = [
                    (net if name == "net" else policy).rngs.state_dict()
                    for net, policy in pairs
                ]
                assert all(s == states[0] for s in states), (name, epoch)
            epoch_stats = [dict(net.last_epoch_stats) for net, _ in pairs[1:]]
            assert epoch_stats[1] == epoch_stats[0], f"stats, epoch {epoch}"
            stats.append(epoch_stats[0])
            # Every client walks; a few re-attach to a random cell.
            topology = pairs[0][0].topology
            steps = churn.uniform(-self.STEP_M, self.STEP_M, (len(topology.clients), 2))
            moves = [
                (
                    c.client_id,
                    float(np.clip(c.x + dx, 0.0, topology.area_m)),
                    float(np.clip(c.y + dy, 0.0, topology.area_m)),
                )
                for c, (dx, dy) in zip(topology.clients, steps.tolist())
            ]
            roamers = [
                (
                    topology.clients[int(churn.integers(len(topology.clients)))].client_id,
                    int(churn.integers(self.N_APS)),
                )
                for _ in range(3)
            ]
            for net, _ in pairs:
                for move in moves:
                    net.move_client(*move)
                for roamer in roamers:
                    net.reattach_client(*roamer)
        return stats

    def _check_load(self, stats):
        n_clients = self.N_APS * self.CLIENTS_PER_AP
        for epoch_stats in stats[1:]:
            # Every row is recomputed, and nearly every AP is dirty.
            assert epoch_stats["dirty_rows"] == n_clients
            assert epoch_stats["clean_rows"] == 0
            assert epoch_stats["dirty_aps"] >= self.N_APS - 3

    def test_scalar_incremental_and_two_shards_agree(self):
        pairs, runs = self._saturated_runs()
        try:
            self._check_load(self._drive(pairs))
        finally:
            for run in runs:
                run.close()

    def test_culled_horizon_variant_agrees(self):
        pairs, sharded = self._culled_runs(cull_loss_db=125.0)
        try:
            stats = self._drive(pairs)
        finally:
            for net in sharded:
                net.close()
        self._check_load(stats)
        assert all(s["culled_columns"] > 0 for s in stats)
