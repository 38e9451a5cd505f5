"""Fault-tolerant shard supervision: chaos recovery must be bit-identical.

The robustness net for ``repro.sim.shard``'s :class:`ShardSupervisor`:
seeded chaos schedules (worker kills, stalls, malformed replies, latency
spikes) hit the supervised churn-fuzz scenario and every surviving run
must produce per-epoch digests *bitwise identical* to the fault-free
unsharded incremental epoch -- recovery respawns the worker from the
last merged snapshot and replays the op journal, so a fault is never
allowed to leak into the physics.  Exhausting the retry budget must
degrade the shard to inline execution with a structured warning, never
abort, and never change a digest either.
"""

import multiprocessing as mp
import warnings

import pytest

from repro.lte.network import AllSubchannelsPolicy
from repro.phy.resource_grid import ResourceGrid
from repro.sim.checkpoint import hash_state
from repro.sim.rng import RngStreams
from repro.sim.shard import (
    ChaosEvent,
    ChaosPolicy,
    ShardDegradedWarning,
    ShardedNetwork,
    SupervisionConfig,
)
from repro.sim.topology import grid_partition

from tests.test_lte_network_incremental import (
    CULL_DB,
    SEED,
    churn_run,
    make_channel,
    make_net,
    make_topology,
)
from tests.test_sim_shard import epoch_digest, shard_factory

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - CI installs hypothesis
    HAVE_HYPOTHESIS = False

HAVE_FORK = "fork" in mp.get_all_start_methods()

N_EPOCHS = 8

#: Fixed deadline for process-mode tests: long enough that a healthy CI
#: worker never trips it, short enough that the stall test stays quick.
PROC_TIMEOUT_S = 30.0


def make_supervised(n_shards, mode="inline", chaos=None, **config_kwargs):
    channel = make_channel()
    topology = make_topology(channel)
    plan = grid_partition(topology, n_shards)
    return ShardedNetwork(
        topology,
        plan,
        shard_factory(CULL_DB),
        RngStreams(SEED),
        ResourceGrid(5e6),
        mode=mode,
        supervision=SupervisionConfig(**config_kwargs),
        chaos=chaos,
    )


@pytest.fixture(scope="module")
def reference_digests():
    """Fault-free unsharded digests the chaos arms are held to."""
    return [
        epoch_digest(r)
        for r in churn_run(make_net(cull_loss_db=CULL_DB), N_EPOCHS)
    ]


def supervised_digests(net, n_epochs=N_EPOCHS):
    try:
        return [epoch_digest(r) for r in churn_run(net, n_epochs)]
    finally:
        net.close()


def assert_digests_match(digests, reference):
    assert len(digests) == len(reference)
    for epoch, (got, want) in enumerate(zip(digests, reference)):
        assert got == want, f"digest diverged at epoch {epoch}"


class TestFaultFreeSupervision:
    def test_supervision_alone_changes_nothing(self, reference_digests):
        net = make_supervised(2)
        digests = supervised_digests(net)
        assert_digests_match(digests, reference_digests)

    def test_snapshot_cadence(self, reference_digests):
        net = make_supervised(2, checkpoint_every=2)
        stats = net.supervisor.stats
        digests = supervised_digests(net)
        assert_digests_match(digests, reference_digests)
        # One baseline snapshot at attach plus one every 2 of 8 epochs.
        assert stats["snapshots"] == 1 + N_EPOCHS // 2
        assert stats["restarts"] == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SupervisionConfig(retry_budget=-1)
        with pytest.raises(ValueError):
            SupervisionConfig(checkpoint_every=0)
        with pytest.raises(ValueError):
            SupervisionConfig(journal_cap=0)


class TestChaosRecoveryInline:
    @pytest.mark.parametrize("n_shards", [2, 4])
    @pytest.mark.parametrize("phase", ["partial", "commit"])
    def test_kill_recovers_bit_identical(
        self, reference_digests, n_shards, phase
    ):
        chaos = ChaosPolicy(
            events=(ChaosEvent("kill", 3, n_shards - 1, phase=phase),)
        )
        net = make_supervised(n_shards, chaos=chaos, checkpoint_every=3)
        stats = net.supervisor.stats
        digests = supervised_digests(net)
        assert_digests_match(digests, reference_digests)
        assert stats["crashes"] == 1
        assert stats["restarts"] == 1
        assert stats["replayed_ops"] > 0

    def test_malformed_reply_recovers_bit_identical(self, reference_digests):
        chaos = ChaosPolicy(events=(ChaosEvent("malformed", 2, 0),))
        net = make_supervised(2, chaos=chaos, checkpoint_every=3)
        stats = net.supervisor.stats
        digests = supervised_digests(net)
        assert_digests_match(digests, reference_digests)
        assert stats["protocol_errors"] == 1
        assert stats["restarts"] == 1

    def test_repeated_kills_of_same_shard(self, reference_digests):
        chaos = ChaosPolicy(
            events=(
                ChaosEvent("kill", 2, 1),
                ChaosEvent("kill", 5, 1, phase="partial"),
            )
        )
        net = make_supervised(2, chaos=chaos, checkpoint_every=3)
        stats = net.supervisor.stats
        digests = supervised_digests(net)
        assert_digests_match(digests, reference_digests)
        assert stats["restarts"] == 2

    def test_recovery_events_are_logged(self, reference_digests):
        chaos = ChaosPolicy(events=(ChaosEvent("kill", 3, 0),))
        net = make_supervised(2, chaos=chaos)
        log = net.supervisor.log
        digests = supervised_digests(net)
        assert_digests_match(digests, reference_digests)
        kinds = [event.kind for event in log.events]
        assert "chaos-kill" in kinds
        assert "worker-crash" in kinds
        assert "worker-respawn" in kinds

    @pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_chaos_schedule_property(self, reference_digests, data):
        """Any seeded schedule of recoverable faults keeps bit-identity."""
        n_shards = data.draw(st.sampled_from([2, 4]), label="n_shards")
        n_events = data.draw(st.integers(1, 3), label="n_events")
        events = [
            ChaosEvent(
                kind=data.draw(
                    st.sampled_from(["kill", "malformed"]), label=f"kind{i}"
                ),
                epoch=data.draw(st.integers(1, N_EPOCHS - 1), label=f"epoch{i}"),
                shard=data.draw(
                    st.integers(0, n_shards - 1), label=f"shard{i}"
                ),
                phase=data.draw(
                    st.sampled_from(["partial", "commit"]), label=f"phase{i}"
                ),
            )
            for i in range(n_events)
        ]
        checkpoint_every = data.draw(
            st.sampled_from([1, 2, 3, 5]), label="checkpoint_every"
        )
        net = make_supervised(
            n_shards,
            chaos=ChaosPolicy(events=events),
            checkpoint_every=checkpoint_every,
        )
        digests = supervised_digests(net)
        assert_digests_match(digests, reference_digests)


@pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
class TestChaosRecoveryProcess:
    def test_sigkill_respawns_from_checkpoint(self, reference_digests):
        chaos = ChaosPolicy(events=(ChaosEvent("kill", 3, 1),))
        net = make_supervised(
            2,
            mode="process",
            chaos=chaos,
            checkpoint_every=3,
            phase_timeout_s=PROC_TIMEOUT_S,
        )
        stats = net.supervisor.stats
        digests = supervised_digests(net)
        assert_digests_match(digests, reference_digests)
        assert stats["crashes"] == 1
        assert stats["restarts"] == 1

    def test_indefinite_stall_detected_as_hang(self, reference_digests):
        # No delay: the worker stays SIGSTOPped until the barrier deadline
        # trips, so the supervisor must classify a hang and respawn.
        chaos = ChaosPolicy(events=(ChaosEvent("stall", 2, 0),))
        net = make_supervised(
            2,
            mode="process",
            chaos=chaos,
            checkpoint_every=2,
            phase_timeout_s=2.0,
        )
        stats = net.supervisor.stats
        digests = supervised_digests(net)
        assert_digests_match(digests, reference_digests)
        assert stats["hangs"] == 1
        assert stats["restarts"] == 1

    def test_slow_spike_needs_no_recovery(self, reference_digests):
        # A latency spike resumes on its own: the deadline is generous, so
        # the barrier just waits it out -- no restart, same digests.
        chaos = ChaosPolicy(events=(ChaosEvent("slow", 2, 1, delay_s=0.2),))
        net = make_supervised(
            2,
            mode="process",
            chaos=chaos,
            phase_timeout_s=PROC_TIMEOUT_S,
        )
        stats = net.supervisor.stats
        digests = supervised_digests(net)
        assert_digests_match(digests, reference_digests)
        assert stats["chaos_injected"] == 1
        assert stats["restarts"] == 0

    def test_rate_scheduled_chaos(self, reference_digests):
        # Probabilistic injection drawn from the policy's private RNG:
        # whatever fires, the digests must hold.
        chaos = ChaosPolicy(seed=11, rates={"kill": 0.2})
        net = make_supervised(
            2,
            mode="process",
            chaos=chaos,
            checkpoint_every=2,
            phase_timeout_s=PROC_TIMEOUT_S,
        )
        stats = net.supervisor.stats
        digests = supervised_digests(net)
        assert_digests_match(digests, reference_digests)
        assert stats["chaos_injected"] >= 1


class TestGracefulDegradation:
    def test_budget_exhaustion_degrades_inline(self, reference_digests):
        chaos = ChaosPolicy(events=(ChaosEvent("kill", 2, 1),))
        net = make_supervised(2, chaos=chaos, retry_budget=0)
        stats = net.supervisor.stats
        log = net.supervisor.log
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            digests = supervised_digests(net)
        assert_digests_match(digests, reference_digests)
        assert any(
            issubclass(w.category, ShardDegradedWarning) for w in caught
        )
        assert stats["degraded"] == 1
        assert net.supervisor.degraded[1]
        assert "worker-degraded-inline" in [e.kind for e in log.events]

    def test_degraded_shard_survives_later_epochs(self, reference_digests):
        # Degrade early, then keep running: the inline replacement must
        # carry the rest of the run (including later cross-shard churn).
        chaos = ChaosPolicy(events=(ChaosEvent("kill", 1, 0),))
        net = make_supervised(2, chaos=chaos, retry_budget=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ShardDegradedWarning)
            digests = supervised_digests(net)
        assert_digests_match(digests, reference_digests)


class TestSupervisedStateRoundtrip:
    @staticmethod
    def _tail_digests(net, start_epoch, n_epochs):
        """Deterministic all-on epochs continuing from ``start_epoch``."""
        policy = AllSubchannelsPolicy(
            [ap.ap_id for ap in net.topology.aps], net.grid.n_subchannels
        )
        allowed = policy.decide(start_epoch, None)
        demands = {
            c.client_id: float("inf") for c in net.topology.clients
        }
        return [
            epoch_digest(net.run_epoch(epoch, allowed, demands))
            for epoch in range(start_epoch, start_epoch + n_epochs)
        ]

    def test_snapshot_and_restore_keep_digests(self):
        # Churn for half the run, snapshot, keep driving the donor as the
        # reference tail -- then restore into a fresh supervised net and
        # drive the same tail with a chaos kill in the middle of it.
        half = N_EPOCHS // 2
        donor = make_supervised(2, checkpoint_every=2)
        try:
            churn_run(donor, half)
            state = donor.state_dict()
            # RNG streams are a separate checkpoint subsystem (a registry
            # would snapshot them alongside the network state).
            rng_state = donor.rngs.state_dict()
            reference_tail = self._tail_digests(donor, half, 3)
        finally:
            donor.close()
        chaos = ChaosPolicy(events=(ChaosEvent("kill", half + 1, 0),))
        net = make_supervised(2, chaos=chaos, checkpoint_every=2)
        try:
            net.rngs.load_state(rng_state)
            net.load_state(state)
            tail = self._tail_digests(net, half, 3)
            stats = dict(net.supervisor.stats)
        finally:
            net.close()
        assert tail == reference_tail
        assert stats["restarts"] == 1

    def test_state_dict_matches_unsharded(self):
        plain = make_net(cull_loss_db=CULL_DB)
        churn_run(plain, 3)
        net = make_supervised(2, checkpoint_every=2)
        try:
            churn_run(net, 3)
            assert hash_state(net.state_dict()) == hash_state(
                plain.state_dict()
            )
        finally:
            net.close()


class TestDeferredErrorDedup:
    """Repeated identical worker op failures collapse to one obs event."""

    def _payload(self, signature, count):
        return {
            "deferred_ops": [
                {"signature": signature, "count": count, "traceback": "tb"}
            ]
        }

    def test_identical_reports_recorded_once_with_count(self):
        net = make_supervised(2)
        try:
            sig = "reattach: ValueError: unknown client 999"
            # A poisoned worker re-reports the same signatures at every
            # replying op; only the first report may become an event.
            net._note_error_report(0, self._payload(sig, 3))
            net._note_error_report(0, self._payload(sig, 3))
            net._note_error_report(0, self._payload(sig, 3))
            events = [
                e for e in net.events.events if e.kind == "worker-op-error"
            ]
            assert len(events) == 1
            assert events[0].source == "shard0"
            assert "x3" in events[0].detail
            assert sig in events[0].detail
        finally:
            net.close()

    def test_distinct_signatures_and_shards_get_their_own_event(self):
        net = make_supervised(2)
        try:
            sig_a = "reattach: ValueError: unknown client 999"
            sig_b = "move: KeyError: 7"
            net._note_error_report(0, self._payload(sig_a, 1))
            net._note_error_report(0, self._payload(sig_b, 2))
            net._note_error_report(1, self._payload(sig_a, 1))
            events = [
                e for e in net.events.events if e.kind == "worker-op-error"
            ]
            assert len(events) == 3
            assert {e.source for e in events} == {"shard0", "shard1"}
        finally:
            net.close()

    def test_non_deferred_payloads_are_ignored(self):
        net = make_supervised(2)
        try:
            net._note_error_report(0, "plain traceback text")
            net._note_error_report(0, {"other": 1})
            assert not [
                e for e in net.events.events if e.kind == "worker-op-error"
            ]
        finally:
            net.close()


class TestChaosPolicyParsing:
    def test_parse_full_grammar(self):
        policy = ChaosPolicy.parse(
            "kill@3:1,stall@5:0:0.3,seed=7,malformed=0.05"
        )
        assert policy.seed == 7
        assert policy.rates == {"malformed": 0.05}
        kinds = [(e.kind, e.epoch, e.shard) for e in policy.events]
        assert ("kill", 3, 1) in kinds
        assert ("stall", 5, 0) in kinds
        stall = next(e for e in policy.events if e.kind == "stall")
        assert stall.delay_s == 0.3

    @pytest.mark.parametrize(
        "spec",
        [
            "explode@3:1",
            "kill@3",
            "kill=1.5",
            "bogus=1",
            "kill@3:1:x:y",
            "justtext",
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            ChaosPolicy.parse(spec)

    def test_events_for_is_deterministic_and_bounded(self):
        policy = ChaosPolicy(
            events=(ChaosEvent("kill", 2, 5),), seed=3, rates={"stall": 0.5}
        )
        first = policy.events_for(2, 2)
        second = policy.events_for(2, 2)
        assert first == second
        # The explicit event targets shard 5: filtered out at 2 shards.
        assert all(e.shard < 2 for e in first)
        assert ChaosEvent("kill", 2, 5) in policy.events_for(2, 8)
