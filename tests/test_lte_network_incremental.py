"""Incremental epoch: bit-identity, dirty tracking and culling.

The incremental epoch reuses cached per-AP blocks across epochs and
skips interference from culled neighbours, so these tests hold it to
*exact* equality with the scalar oracle (no tolerances) under seeded
mobility, handover and hopping churn -- including zero-activity epochs,
where the cache does all the work.

Also pinned here: the hot-path bugfix sweep that rode along with the
incremental epoch -- the ``_rows_of_ap`` handover staleness fix, the read-only
gain-matrix accessors, the zero-signal CQI clamp, and the PF scheduler
fast path.
"""

import math
import pickle

import numpy as np
import pytest

from repro.experiments.large_scale import (
    TECH_CELLFI,
    TECH_LTE,
    SaturatedLteRun,
    _make_policy,
)
from repro.lte.network import (
    ZERO_SIGNAL_SINR_DB,
    AllSubchannelsPolicy,
    LteNetworkSimulator,
    _elementwise_db,
)
from repro.lte.scalar_oracle import ScalarOracleSimulator
from repro.lte.scheduler import (
    MINISLOTS_PER_EPOCH,
    Allocation,
    ProportionalFairScheduler,
)
from repro.obs import Telemetry, activated
from repro.phy.mcs import CQI_OUT_OF_RANGE, cqi_from_sinr
from repro.phy.propagation import (
    CompositeChannel,
    GainMatrixCache,
    LogNormalShadowing,
    UrbanHataPathLoss,
)
from repro.phy.resource_grid import ResourceGrid
from repro.sim.rng import RngStreams
from repro.sim.topology import Topology, random_topology, reassociate_strongest

N_CELLS = 20
CLIENTS_PER_AP = 4
SEED = 42
CULL_DB = 135.0


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
    topology, _ = reassociate_strongest(topology, channel)
    return topology


def make_net(simulator=LteNetworkSimulator, cull_loss_db=None):
    """The churn-fuzz deployment on ``simulator`` (production or oracle)."""
    channel = make_channel()
    topology = make_topology(channel)
    return simulator(
        topology=topology,
        grid=ResourceGrid(5e6),
        channel=channel,
        rngs=RngStreams(SEED),
        cull_loss_db=cull_loss_db,
    )


def oracle_run(tech, seed, n_aps, clients_per_ap, epochs):
    """A :class:`SaturatedLteRun` whose network is the scalar oracle.

    The oracle takes over the parts the scenario builder gave the
    production network: its own topology, seeded gain cache, channel,
    grid and ``net-{tech}`` streams.  The policy is rebuilt over it;
    CellFi's ``manager`` stream fork is a pure seed derivation, so it
    starts where the replaced policy's did.
    """
    run = SaturatedLteRun(
        tech, seed, n_aps=n_aps, clients_per_ap=clients_per_ap, epochs=epochs
    )
    built = run.net
    run.net = ScalarOracleSimulator(
        topology=built.topology,
        grid=built.grid,
        channel=built.channel,
        rngs=built.rngs,
        gain_cache=built.gain_cache,
    )
    run.policy = _make_policy(tech, run.scenario, run.net)
    return run


def dead_links(net):
    """Every ``(client_id, ap_id)`` whose stored link power is exactly 0 W."""
    cid_of = {row: cid for cid, row in net._client_row.items()}
    ap_of = {col: ap_id for ap_id, col in net._ap_col.items()}
    rows, cols = np.nonzero(net._rx_w_mat == 0.0)
    return [(cid_of[r], ap_of[c]) for r, c in zip(rows.tolist(), cols.tolist())]


class RotatingSubsetPolicy:
    """Partial, shifting subchannel sets: hopping-style churn."""

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
    """Idle, bounded and saturated clients side by side."""
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


def churn_run(net, n_epochs):
    """Seeded mobility + handover + hopping churn with zero-activity epochs.

    Every stochastic choice comes from dedicated generators seeded
    identically per run, so the production epoch and the scalar oracle
    replay the same event sequence in lockstep.
    """
    policy = RotatingSubsetPolicy(
        [ap.ap_id for ap in net.topology.aps], net.grid.n_subchannels
    )
    demand_fn = mixed_demand_fn(net.topology)
    churn_rng = np.random.default_rng(7)
    results = []
    for epoch in range(n_epochs):
        if epoch % 4 == 3:
            demands = {c.client_id: 0.0 for c in net.topology.clients}
        else:
            demands = demand_fn(epoch)
        allowed = policy.decide(epoch, None)
        results.append(net.run_epoch(epoch, allowed, demands))
        # Mobility: jitter a couple of clients.
        for _ in range(2):
            mover = net.topology.clients[
                int(churn_rng.integers(len(net.topology.clients)))
            ]
            net.move_client(
                mover.client_id,
                float(churn_rng.uniform(0.0, net.topology.area_m)),
                float(churn_rng.uniform(0.0, net.topology.area_m)),
            )
        # Handover: re-attach one client to a random cell.
        roamer = net.topology.clients[
            int(churn_rng.integers(len(net.topology.clients)))
        ]
        net.reattach_client(roamer.client_id, int(churn_rng.integers(N_CELLS)))
    return results


def light_load_run(net, activity, n_epochs=3):
    """Light load on a share of the cells, one mover per active cell.

    ``activity`` is the fraction of cells that are active: their clients
    carry a bounded 1e5-bit demand and one of them wanders within 50 m
    of its start each epoch.  Every other cell idles (its clients carry
    no demand), so after the warm-up epoch only the movers' serving
    cells have anything to recompute.  Returns the per-epoch results,
    the per-epoch ``dirty_aps`` counters after warm-up, and the mover
    count.
    """
    rng = np.random.default_rng(SEED + 1)
    n_active = max(1, round(activity * N_CELLS))
    demands = {}
    movers = []
    for ap_id in sorted(rng.choice(N_CELLS, size=n_active, replace=False)):
        clients = net.topology.clients_of(int(ap_id))
        demands.update((c.client_id, 1e5) for c in clients)
        if clients:
            movers.append((clients[0].client_id, clients[0].x, clients[0].y))
    policy = AllSubchannelsPolicy(
        [ap.ap_id for ap in net.topology.aps], net.grid.n_subchannels
    )
    allowed = policy.decide(0, None)
    area = net.topology.area_m
    results = [net.run_epoch(0, allowed, demands)]
    dirty = []
    for epoch in range(1, n_epochs + 1):
        for cid, x, y in movers:
            net.move_client(
                cid,
                min(max(x + rng.uniform(-50.0, 50.0), 0.0), area),
                min(max(y + rng.uniform(-50.0, 50.0), 0.0), area),
            )
        results.append(net.run_epoch(epoch, allowed, demands))
        dirty.append(net.last_epoch_stats["dirty_aps"])
    return results, dirty, len(movers)


class TestBackendSelection:
    """The production class is the incremental epoch; no option selects it."""

    def test_incremental_backend_accepted(self):
        # Network state written while an option still chose the incremental
        # epoch carries an always-empty ``max_cqi_state``: it loads and
        # resumes exactly.
        def run_from(net, first, n_epochs):
            policy = AllSubchannelsPolicy(
                [ap.ap_id for ap in net.topology.aps], net.grid.n_subchannels
            )
            demand_fn = mixed_demand_fn(net.topology)
            return [
                net.run_epoch(e, policy.decide(e, None), demand_fn(e))
                for e in range(first, first + n_epochs)
            ]

        straight = make_net()
        expected = run_from(straight, 0, 2)[1:]

        first = make_net()
        run_from(first, 0, 1)
        legacy = dict(first.state_dict(), max_cqi_state=[])
        resumed = make_net()
        resumed.load_state(legacy)
        resumed.rngs.load_state(first.rngs.state_dict())
        assert_epochs_identical(run_from(resumed, 1, 1), expected)

    def test_cull_conflict_with_injected_cache_rejected(self):
        channel = make_channel()
        topology = make_topology(channel)
        cache = GainMatrixCache(
            channel, topology.aps, topology.clients, cull_loss_db=140.0
        )
        with pytest.raises(ValueError):
            LteNetworkSimulator(
                topology=topology,
                grid=ResourceGrid(5e6),
                channel=channel,
                rngs=RngStreams(SEED),
                gain_cache=cache,
                cull_loss_db=150.0,
            )


class TestBitForBitFuzz:
    """Scalar oracle vs incremental in lockstep over seeded churn."""

    def test_backends_identical_under_churn(self):
        assert_epochs_identical(
            churn_run(make_net(ScalarOracleSimulator), 8),
            churn_run(make_net(), 8),
        )

    def test_culled_incremental_matches_culled_scalar_oracle(self):
        # Culling changes the physics (dead links carry nothing), so the
        # reference is the *scalar oracle with the same horizon*.
        assert_epochs_identical(
            churn_run(make_net(ScalarOracleSimulator, cull_loss_db=CULL_DB), 8),
            churn_run(make_net(cull_loss_db=CULL_DB), 8),
        )
        # Light load with idle cells: most cached blocks stay clean.
        for activity in (0.10, 0.50):
            oracle, _, _ = light_load_run(
                make_net(ScalarOracleSimulator, cull_loss_db=CULL_DB), activity
            )
            production, _, _ = light_load_run(
                make_net(cull_loss_db=CULL_DB), activity
            )
            assert_epochs_identical(oracle, production)

    def test_culling_horizon_actually_culls(self):
        net = make_net(cull_loss_db=CULL_DB)
        policy = AllSubchannelsPolicy(
            [ap.ap_id for ap in net.topology.aps], net.grid.n_subchannels
        )
        demands = {c.client_id: float("inf") for c in net.topology.clients}
        net.run_epoch(0, policy.decide(0, None), demands)
        assert net.last_epoch_stats["culled_columns"] > 0
        dead = dead_links(net)
        assert dead
        for cid, ap_id in dead:
            assert net.rx_rb_power_dbm(cid, ap_id) == float("-inf")
            assert not net.prach_audible(cid, ap_id)


class TestDenseEpochOutcome:
    """The paper's path: CellFi hopping, mixed demands, 20 APs.

    The incremental epoch draws each stream once per epoch and slices the
    draws per AP; comparing the stream states after every epoch pins those
    offsets to the scalar oracle's one-draw-at-a-time loop.
    """

    def test_cellfi_mixed_demands_match_scalar_oracle(self):
        def mixed(topology):
            def fn(epoch):
                return {
                    c.client_id: (0.0, 3e5, 4e6, math.inf)[(c.client_id + epoch) % 4]
                    for c in topology.clients
                }

            return fn

        runs = [
            oracle_run(TECH_CELLFI, seed=2, n_aps=20, clients_per_ap=6, epochs=6),
            SaturatedLteRun(
                TECH_CELLFI, seed=2, n_aps=20, clients_per_ap=6, epochs=6
            ),
        ]
        for run in runs:
            run._demand_fn = mixed(run.scenario.topology)
        dropped = 0
        for epoch in range(6):
            want, got = (run.step_epoch() for run in runs)
            assert got == want, f"epoch {epoch}"
            assert got.allocations == want.allocations
            assert got.observations == want.observations
            for name in ("net", "policy"):
                states = [getattr(run, name).rngs.state_dict() for run in runs]
                assert states[1] == states[0], f"{name} streams, epoch {epoch}"
            # Demanding clients the scheduler never saw lost their link.
            scheduled = set().union(
                *(alloc.served_bits for alloc in want.allocations.values())
            )
            dropped += sum(
                1
                for cid, bits in runs[0]._demand_fn(epoch).items()
                if bits > 0.0 and cid not in scheduled
            )
        assert dropped > 0  # the RLF draws actually disconnected someone

    def test_empty_topology_runs_an_empty_epoch(self):
        channel = make_channel()
        for simulator in (ScalarOracleSimulator, LteNetworkSimulator):
            net = simulator(
                topology=Topology(area_m=100.0, aps=[], clients=[]),
                grid=ResourceGrid(5e6),
                channel=channel,
                rngs=RngStreams(SEED),
            )
            result = net.run_epoch(0, {}, {})
            assert result.served_bits == {} and result.observations == {}


def _lte_runs(epochs=3):
    """Plain LTE on the oracle and in production: no policy reads the
    observations."""
    return [
        oracle_run(TECH_LTE, seed=4, n_aps=12, clients_per_ap=4, epochs=epochs),
        SaturatedLteRun(
            TECH_LTE, seed=4, n_aps=12, clients_per_ap=4, epochs=epochs
        ),
    ]


def _unread(result):
    return all(obs._clients is None for obs in result.observations.values())


def _kinds(result):
    """The Python types inside every observation, per AP and client."""
    return {
        ap_id: [
            (type(cid), [type(v) for v in c.subband_cqi],
             [type(v) for v in c.max_subband_cqi],
             [type(v) for v in c.interference_detected],
             [(type(k), type(v)) for k, v in c.scheduled_fraction.items()])
            for cid, c in obs.clients.items()
        ]
        for ap_id, obs in result.observations.items()
    }


class TestLazyObservations:
    """Incremental observations build their per-client objects on first
    read; every reader must see what the eager scalar oracle built."""

    def test_unread_observations_equal_scalar_oracle(self):
        runs = _lte_runs()
        for epoch in range(3):
            want, got = (run.step_epoch() for run in runs)
            assert _unread(got)
            assert got == want, f"epoch {epoch}"
            assert _kinds(got) == _kinds(want)

    def test_unread_observations_survive_pickle(self):
        runs = _lte_runs()
        for _ in range(2):
            want, got = (run.step_epoch() for run in runs)
            assert _unread(got)
            restored = pickle.loads(pickle.dumps(got))
            assert restored == want
            assert _kinds(restored) == _kinds(want)

    def test_unread_snapshot_is_byte_identical_to_eager(self, tmp_path):
        snapshots = []
        for read in (False, True):
            run = SaturatedLteRun(TECH_LTE, seed=4, n_aps=12, clients_per_ap=4,
                                  epochs=4)
            for _ in range(2):
                result = run.step_epoch()
                if read:
                    for obs in result.observations.values():
                        obs.clients
            assert _unread(result) != read
            path = run.save_checkpoint(str(tmp_path / str(read)))
            with open(path, "rb") as handle:
                snapshots.append(handle.read())
        assert snapshots[0] == snapshots[1]

    def test_telemetry_cqi_counters_equal_scalar_oracle(self):
        counters = []
        for run in _lte_runs():
            tel = Telemetry()
            with activated(tel):
                for _ in range(3):
                    run.step_epoch()
            counters.append({
                name: value
                for name, value in tel.snapshot()["counters"].items()
                if name.startswith("cqi.")
            })
        assert counters[1] == counters[0]
        assert counters[0]["cqi.reports"] == 3 * 12 * 4
        assert counters[0]["cqi.interference_flags"] > 0


class TestDirtyTracking:
    def _run_one(self, net, policy, epoch, demands):
        return net.run_epoch(epoch, policy.decide(epoch, None), demands)

    def test_quiescent_epochs_are_fully_clean(self):
        net = make_net()
        policy = AllSubchannelsPolicy(
            [ap.ap_id for ap in net.topology.aps], net.grid.n_subchannels
        )
        demands = {c.client_id: float("inf") for c in net.topology.clients}
        self._run_one(net, policy, 0, demands)
        assert net.last_epoch_stats["dirty_aps"] == N_CELLS
        self._run_one(net, policy, 1, demands)
        assert net.last_epoch_stats["dirty_aps"] == 0
        assert net.last_epoch_stats["clean_aps"] == N_CELLS
        assert net.last_epoch_stats["dirty_rows"] == 0

    def test_mobility_dirties_exactly_the_serving_ap(self):
        net = make_net()
        policy = AllSubchannelsPolicy(
            [ap.ap_id for ap in net.topology.aps], net.grid.n_subchannels
        )
        demands = {c.client_id: float("inf") for c in net.topology.clients}
        self._run_one(net, policy, 0, demands)
        moved = net.topology.clients[0]
        net.move_client(moved.client_id, 500.0, 500.0)
        self._run_one(net, policy, 1, demands)
        assert net.last_epoch_stats["dirty_aps"] == 1
        assert net.last_epoch_stats["clean_aps"] == N_CELLS - 1

    def test_reattach_dirties_both_cells(self):
        net = make_net()
        policy = AllSubchannelsPolicy(
            [ap.ap_id for ap in net.topology.aps], net.grid.n_subchannels
        )
        demands = {c.client_id: float("inf") for c in net.topology.clients}
        self._run_one(net, policy, 0, demands)
        roamer = net.topology.clients[0]
        target = next(
            ap.ap_id for ap in net.topology.aps if ap.ap_id != roamer.ap_id
        )
        net.reattach_client(roamer.client_id, target)
        self._run_one(net, policy, 1, demands)
        assert net.last_epoch_stats["dirty_aps"] == 2
        assert net.last_epoch_stats["clean_aps"] == N_CELLS - 2

    @pytest.mark.parametrize("activity", [0.10, 0.50])
    def test_movers_dirty_at_most_their_serving_cells(self, activity):
        _, dirty, n_movers = light_load_run(
            make_net(cull_loss_db=CULL_DB), activity
        )
        assert n_movers > 0
        # Each mover dirties its serving cell's block and no other.
        assert all(d <= n_movers for d in dirty), (dirty, n_movers)
        assert max(dirty) > 0, dirty

    def test_hopping_decision_change_dirties_affected_cells(self):
        net = make_net()
        policy = RotatingSubsetPolicy(
            [ap.ap_id for ap in net.topology.aps], net.grid.n_subchannels
        )
        demands = {c.client_id: float("inf") for c in net.topology.clients}
        self._run_one(net, policy, 0, demands)
        # The rotating policy shifts every AP's subchannel set each epoch,
        # so every cached block's decision signature misses.
        self._run_one(net, policy, 1, demands)
        assert net.last_epoch_stats["dirty_aps"] == N_CELLS

    def test_recomputed_links_each_evaluate_harq_once(self):
        # No memo: an epoch that recomputes every block evaluates one
        # HARQ scale per (row, subchannel) link whose CQI is above 0,
        # repeats within the epoch and keys of the previous epoch alike.
        net = make_net()
        policy = AllSubchannelsPolicy(
            [ap.ap_id for ap in net.topology.aps], net.grid.n_subchannels
        )
        demands = {c.client_id: float("inf") for c in net.topology.clients}
        self._run_one(net, policy, 0, demands)
        net._ap_blocks.clear()
        net._block_fast.clear()
        tel = Telemetry()
        with activated(tel):
            self._run_one(net, policy, 1, demands)
        assert net.last_epoch_stats["dirty_rows"] == len(net.topology.clients)
        live = int((net._cqi_mat > 0).sum())
        assert live > 0
        assert tel.registry.snapshot()["counters"]["harq.evaluations"] == live


class TestReattachRegression:
    """The ``_rows_of_ap`` handover-staleness bug (diverged before the fix)."""

    def test_reattach_matches_fresh_simulator(self):
        net = make_net()
        roamer = net.topology.clients[0]
        target = next(
            ap.ap_id for ap in net.topology.aps if ap.ap_id != roamer.ap_id
        )
        net.reattach_client(roamer.client_id, target)

        channel = make_channel()
        topology = make_topology(channel)
        topology.reattach_client(roamer.client_id, target)
        fresh = LteNetworkSimulator(
            topology=topology,
            grid=ResourceGrid(5e6),
            channel=channel,
            rngs=RngStreams(SEED),
        )
        for ap_id in net._rows_of_ap:
            assert np.array_equal(
                net._rows_of_ap[ap_id], fresh._rows_of_ap[ap_id]
            ), f"stale row mapping for AP {ap_id}"
        assert np.array_equal(net._rx_dbm_mat, fresh._rx_dbm_mat)
        assert np.array_equal(net._rx_w_mat, fresh._rx_w_mat)
        assert np.array_equal(net._prach_mat, fresh._prach_mat)

    def test_epochs_after_reattach_match_fresh_simulator(self):
        nets = {}
        for flavor in ("reattached", "fresh"):
            channel = make_channel()
            topology = make_topology(channel)
            roamer_id = topology.clients[0].client_id
            target = next(
                ap.ap_id
                for ap in topology.aps
                if ap.ap_id != topology.clients[0].ap_id
            )
            if flavor == "fresh":
                topology.reattach_client(roamer_id, target)
            net = LteNetworkSimulator(
                topology=topology,
                grid=ResourceGrid(5e6),
                channel=channel,
                rngs=RngStreams(SEED),
            )
            if flavor == "reattached":
                net.reattach_client(roamer_id, target)
            nets[flavor] = net
        demands = {
            c.client_id: float("inf")
            for c in nets["fresh"].topology.clients
        }
        results = {}
        for flavor, net in nets.items():
            policy = RotatingSubsetPolicy(
                [ap.ap_id for ap in net.topology.aps], net.grid.n_subchannels
            )
            results[flavor] = net.run(2, policy, lambda e: dict(demands))
        assert_epochs_identical(results["reattached"], results["fresh"])

    def test_topology_reattach_preserves_canonical_order(self):
        channel = make_channel()
        topology = make_topology(channel)
        mover = topology.clients[0]
        target = next(
            ap.ap_id for ap in topology.aps if ap.ap_id != mover.ap_id
        )
        topology.reattach_client(mover.client_id, target)
        for ap in topology.aps:
            expected = [
                c for c in topology.clients if c.ap_id == ap.ap_id
            ]
            assert topology.clients_of(ap.ap_id) == expected


class TestZeroSignalClamp:
    """``log10(0)`` must clamp, not leak NaN into the highest CQI bin."""

    def test_elementwise_db_clamps_zero(self):
        out = _elementwise_db(np.array([[1.0, 0.0], [0.0, 100.0]]))
        assert out[0, 0] == 0.0
        assert out[0, 1] == ZERO_SIGNAL_SINR_DB
        assert out[1, 0] == ZERO_SIGNAL_SINR_DB
        assert out[1, 1] == 20.0
        assert np.isfinite(out).all()

    def test_clamped_sinr_maps_to_cqi_zero_both_quantisers(self):
        assert cqi_from_sinr(ZERO_SIGNAL_SINR_DB) == CQI_OUT_OF_RANGE
        table = np.array(
            [e.min_sinr_db for e in __import__("repro.phy.mcs", fromlist=["LTE_CQI_TABLE"]).LTE_CQI_TABLE]
        )
        assert (
            int(np.searchsorted(table, ZERO_SIGNAL_SINR_DB, side="right"))
            == CQI_OUT_OF_RANGE
        )

    def test_scalar_sinr_queries_clamp_on_dead_links(self):
        net = make_net(ScalarOracleSimulator, cull_loss_db=CULL_DB)
        cid, ap_id = dead_links(net)[0]
        assert net.sinr_db(cid, ap_id, ()) == ZERO_SIGNAL_SINR_DB
        assert net.clean_sinr_db(cid, ap_id) == ZERO_SIGNAL_SINR_DB
        assert (
            net._weighted_sinr_db(cid, ap_id, [ap_id], [0.5])
            == ZERO_SIGNAL_SINR_DB
        )


class TestGainCacheAccessors:
    def test_matrix_is_read_only(self):
        channel = make_channel()
        topology = make_topology(channel)
        cache = GainMatrixCache(channel, topology.aps, topology.clients)
        matrix = cache.matrix()
        with pytest.raises(ValueError):
            matrix[0, 0] = 0.0

    def test_rows_subset_fills_lazily(self):
        channel = make_channel()
        topology = make_topology(channel)
        cache = GainMatrixCache(channel, topology.aps, topology.clients)
        wanted = [c.client_id for c in topology.clients[:3]]
        subset = cache.rows(wanted)
        assert subset.shape == (3, len(topology.aps))
        # Only the requested rows were materialised.
        filled = int(cache._row_valid.sum())
        assert filled == 3
        with pytest.raises(ValueError):
            subset[0, 0] = 0.0
        for i, cid in enumerate(wanted):
            for ap in topology.aps:
                assert subset[i, cache.ap_index[ap.ap_id]] == cache.loss_db(
                    cid, ap.ap_id
                )

    def test_rows_empty_subset_normalized(self):
        # Regression: fancy-indexing with an empty index list is
        # dtype-ambiguous on some NumPy versions (an empty asarray defaults
        # to float64 *indices*), which surfaced as a 0-row view with the
        # wrong dtype.  The empty subset must be an explicit float64
        # (0, n_aps) read-only array and must not materialise any rows.
        channel = make_channel()
        topology = make_topology(channel)
        cache = GainMatrixCache(channel, topology.aps, topology.clients)
        subset = cache.rows([])
        assert subset.shape == (0, len(topology.aps))
        assert subset.dtype == np.float64
        assert not subset.flags.writeable
        assert int(cache._row_valid.sum()) == 0

    def test_is_culled_matches_horizon(self):
        channel = make_channel()
        topology = make_topology(channel)
        cache = GainMatrixCache(
            channel, topology.aps, topology.clients, cull_loss_db=CULL_DB
        )
        culled = live = 0
        for client in topology.clients[:8]:
            for ap in topology.aps:
                expected = cache.loss_db(client.client_id, ap.ap_id) > CULL_DB
                assert cache.is_culled(client.client_id, ap.ap_id) == expected
                culled += expected
                live += not expected
        assert live > 0

    def test_bad_horizon_rejected(self):
        channel = make_channel()
        topology = make_topology(channel)
        with pytest.raises(ValueError):
            GainMatrixCache(
                channel, topology.aps, topology.clients, cull_loss_db=-3.0
            )


class _ReferencePfScheduler(ProportionalFairScheduler):
    """The pre-fast-path PF scheduler: pick closure + generic slot engine.

    Kept verbatim as the reference for the bit-identity test of the
    inlined fast path; :meth:`_slot_allocate` is the mini-slot engine the
    schedulers once shared.
    """

    @staticmethod
    def _slot_allocate(allowed_subchannels, demands_bits, rate_fn, epoch_s, pick):
        """``pick(subchannel, remaining_demand, served_so_far)`` returns the
        client to serve, or -1 for none."""
        allocation = Allocation(epoch_s=epoch_s)
        remaining = dict(demands_bits)
        served = {c: 0.0 for c in demands_bits}
        slot_s = epoch_s / MINISLOTS_PER_EPOCH
        for _ in range(MINISLOTS_PER_EPOCH):
            for sub in allowed_subchannels:
                client = pick(sub, remaining, served)
                if client < 0:
                    continue
                bits = min(rate_fn(client, sub) * slot_s, remaining[client])
                if bits <= 0.0:
                    continue
                remaining[client] -= bits
                served[client] += bits
                key = (client, sub)
                allocation.time_fraction[key] = (
                    allocation.time_fraction.get(key, 0.0) + 1.0 / MINISLOTS_PER_EPOCH
                )
        allocation.served_bits = served
        return allocation

    def allocate(self, allowed_subchannels, demands_bits, rate_fn, epoch_s=1.0):
        for client in demands_bits:
            self._average_bps.setdefault(client, self.floor_bps)

        def pick(sub, remaining, served):
            best_client = -1
            best_metric = 0.0
            for client, demand in remaining.items():
                if demand <= 0.0:
                    continue
                rate = rate_fn(client, sub)
                if rate <= 0.0:
                    continue
                history_bits = self.smoothing * self._average_bps[client] * epoch_s
                denom = max(
                    served[client] + history_bits,
                    self.floor_bps * epoch_s / 100.0,
                )
                metric = rate / denom
                if metric > best_metric:
                    best_metric = metric
                    best_client = client
            return best_client

        allocation = self._slot_allocate(
            allowed_subchannels, demands_bits, rate_fn, epoch_s, pick
        )
        for client in demands_bits:
            realised = allocation.served_bits.get(client, 0.0) / epoch_s
            self._average_bps[client] = (
                (1.0 - self.smoothing) * self._average_bps[client]
                + self.smoothing * max(realised, self.floor_bps)
            )
        return allocation


class TestPfFastPathEquivalence:
    def test_fast_path_matches_reference_closure(self):
        rng = np.random.default_rng(11)
        rates = {
            (c, s): float(rng.uniform(0.0, 5e6)) if rng.random() > 0.1 else 0.0
            for c in range(9)
            for s in range(6)
        }

        def rate_fn(client, sub):
            return rates[(client, sub)]

        fast = ProportionalFairScheduler()
        reference = _ReferencePfScheduler()
        demand_cases = [
            {c: float("inf") for c in range(9)},
            {c: 3e5 * (c + 1) for c in range(9)},
            {0: 0.0, 1: float("inf"), 2: 1e4, 5: 2e6, 8: float("inf")},
            {},
        ]
        for epoch, demands in enumerate(demand_cases * 3):
            a = fast.allocate(list(range(6)), dict(demands), rate_fn)
            b = reference.allocate(list(range(6)), dict(demands), rate_fn)
            assert a.served_bits == b.served_bits, f"case {epoch}"
            assert a.time_fraction == b.time_fraction, f"case {epoch}"
            assert fast._average_bps == reference._average_bps, f"case {epoch}"


class TestCheckpointState:
    def test_positions_and_serving_roundtrip(self):
        net = make_net()
        moved = net.topology.clients[0]
        net.move_client(moved.client_id, 123.0, 456.0)
        roamer = net.topology.clients[1]
        target = next(
            ap.ap_id for ap in net.topology.aps if ap.ap_id != roamer.ap_id
        )
        net.reattach_client(roamer.client_id, target)

        state = net.state_dict()
        restored = make_net()
        restored.load_state(state)
        assert restored.topology.client(moved.client_id).x == 123.0
        assert restored.topology.client(moved.client_id).y == 456.0
        assert restored.topology.client(roamer.client_id).ap_id == target
        assert np.array_equal(restored._rx_dbm_mat, net._rx_dbm_mat)
        for ap_id in net._rows_of_ap:
            assert np.array_equal(
                restored._rows_of_ap[ap_id], net._rows_of_ap[ap_id]
            )
        # Volatile caches restart cold.
        assert restored._ap_blocks == {}
        assert restored._block_fast == {}

    def test_resumed_run_digest_matches_straight_through(self):
        def epoch_pass(net, start, n):
            policy = RotatingSubsetPolicy(
                [ap.ap_id for ap in net.topology.aps], net.grid.n_subchannels
            )
            demands = {
                c.client_id: float("inf") for c in net.topology.clients
            }
            out = []
            for epoch in range(start, start + n):
                out.append(
                    net.run_epoch(epoch, policy.decide(epoch, None), demands)
                )
                mover = net.topology.clients[epoch % len(net.topology.clients)]
                net.move_client(
                    mover.client_id, 100.0 + 37.0 * epoch, 900.0 - 11.0 * epoch
                )
            return out

        straight = make_net()
        full = epoch_pass(straight, 0, 4)

        first = make_net()
        head = epoch_pass(first, 0, 2)
        net_state = first.state_dict()
        rng_state = first.rngs.state_dict()

        resumed = make_net()
        resumed.load_state(net_state)
        resumed.rngs.load_state(rng_state)
        tail = epoch_pass(resumed, 2, 2)
        assert_epochs_identical(full, head + tail)
