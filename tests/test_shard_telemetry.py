"""Cross-shard telemetry plane: digest neutrality + exactly-once merging.

The supervision suite (tests/test_shard_supervision.py) proves the shard
engine recovers bit-identically; this suite proves the telemetry plane
rides along without disturbing that:

* a traced supervised run -- including a chaos kill with checkpoint
  respawn and journal replay -- produces the same per-epoch digests as
  the untraced run (telemetry is extra wire data, never sim input);
* merged ``shard<k>.`` metric totals account for every epoch exactly
  once despite the replay, and their per-shard sums match an inline
  unsharded run of the same scenario;
* the degrade/kill path records ``shard.telemetry_dropped`` when a dead
  worker's buffer is unrecoverable, and salvages it when the worker is
  still answering (malformed-reply recovery);
* with telemetry off, the barrier wire format stays the pre-telemetry
  4-tuple -- byte-identical payloads, no conditional fields.
"""

import multiprocessing as mp

import pytest

from repro.obs import Telemetry, activated, disable
from repro.obs.report import barrier_report
from repro.obs.trace import load_jsonl
from repro.obs.validate import validate_chrome_trace, validate_jsonl_file
from repro.sim.shard import ChaosEvent, ChaosPolicy

from tests.test_lte_network_incremental import CULL_DB, churn_run, make_net
from tests.test_shard_supervision import (
    N_EPOCHS,
    PROC_TIMEOUT_S,
    make_supervised,
    supervised_digests,
)
from tests.test_sim_shard import epoch_digest, make_sharded

HAVE_FORK = "fork" in mp.get_all_start_methods()

KILL_EPOCH = 3


def teardown_module(module):
    disable()


def kill_chaos():
    return ChaosPolicy(events=(ChaosEvent("kill", KILL_EPOCH, 1),))


def run_supervised(tel, chaos=None, mode="inline", **config_kwargs):
    """Digests + supervisor stats for one supervised churn run."""
    if mode == "process":
        config_kwargs.setdefault("phase_timeout_s", PROC_TIMEOUT_S)
    else:
        config_kwargs.setdefault("phase_timeout_s", None)
    ctx = activated(tel) if tel is not None else None
    if ctx is not None:
        ctx.__enter__()
    try:
        net = make_supervised(2, mode=mode, chaos=chaos, **config_kwargs)
        supervisor = net.supervisor
        digests = supervised_digests(net)
        return digests, dict(supervisor.stats)
    finally:
        if ctx is not None:
            ctx.__exit__(None, None, None)


class TestDigestNeutrality:
    def test_traced_kill_run_digests_equal_untraced(self):
        untraced, _ = run_supervised(None, chaos=kill_chaos())
        traced, stats = run_supervised(
            Telemetry(trace=True), chaos=kill_chaos()
        )
        assert traced == untraced
        assert stats["restarts"] == 1

    def test_metrics_only_telemetry_is_also_neutral(self):
        untraced, _ = run_supervised(None, chaos=kill_chaos())
        traced, _ = run_supervised(Telemetry(), chaos=kill_chaos())
        assert traced == untraced


class TestMergedTimeline:
    MODE = "inline"

    @pytest.fixture(scope="class")
    def traced(self):
        tel = Telemetry(trace=True)
        digests, stats = run_supervised(tel, chaos=kill_chaos(), mode=self.MODE)
        return tel, digests, stats

    def test_recovery_spans_on_supervisor_track(self, traced):
        tel, _, _ = traced
        by_name = {r.name: r for r in tel.tracer.records}
        respawn = by_name["shard.respawn"]
        assert respawn.args["of"] == 1
        assert respawn.args["kind"] == "crash"
        assert respawn.wall_dur_ns > 0
        replay = by_name["shard.replay"]
        assert replay.args["of"] == 1
        assert replay.args["ops"] == stats_ops(traced)
        # Supervisor spans carry no "shard" arg: they stay on the parent
        # track instead of being hoisted onto a shard track.
        assert "shard" not in respawn.args
        assert "shard" in by_name["lte.epoch"].args

    def test_barrier_phase_spans_per_epoch(self, traced):
        tel, _, _ = traced
        partials = [
            r for r in tel.tracer.records if r.name == "shard.barrier.partial"
        ]
        commits = [
            r for r in tel.tracer.records if r.name == "shard.barrier.commit"
        ]
        assert len(partials) == N_EPOCHS == len(commits)
        assert {r.args["epoch"] for r in commits} == set(range(N_EPOCHS))

    def test_every_shard_contributes_spans(self, traced):
        tel, _, _ = traced
        shards = {
            r.args["shard"]
            for r in tel.tracer.records
            if isinstance(r.args.get("shard"), int)
        }
        assert shards == {0, 1}

    def test_exactly_once_epoch_accounting_across_replay(self, traced):
        tel, _, stats = traced
        assert stats["replayed_ops"] > 0  # the replay really happened
        counters = tel.registry.snapshot()["counters"]
        for shard in (0, 1):
            assert counters[f"shard{shard}.lte.epochs"] == float(N_EPOCHS)

    def test_supervision_gauges_present(self, traced):
        tel, _, _ = traced
        gauges = tel.registry.snapshot()["gauges"]
        assert "shard.journal_depth" in gauges
        assert "shard.checkpoint_epoch" in gauges
        assert "shard.checkpoint_refreshes" in gauges
        assert "shard.checkpoint_age_epochs" in gauges

    def test_chrome_export_validates_with_shard_tracks(self, traced):
        tel, _, _ = traced
        doc = tel.tracer.chrome_trace()
        assert validate_chrome_trace(doc) > 0
        pids = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["name"] == "process_name"
        }
        assert pids == {"shard0", "shard1"}

    def test_jsonl_export_validates_and_reports_the_recovery(self, traced, tmp_path):
        tel, _, _ = traced
        path = tmp_path / "merged.jsonl"
        tel.tracer.write_jsonl(str(path))
        assert validate_jsonl_file(path) == len(tel.tracer)
        recovery = barrier_report(load_jsonl(str(path)))["recovery"]
        assert recovery["respawns"] == 1
        assert recovery["replays"] == 1


@pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
class TestMergedTimelineProcess(TestMergedTimeline):
    """The same timeline when the killed worker is a real process."""

    MODE = "process"


def stats_ops(traced):
    _, _, stats = traced
    return stats["max_replay_depth"]


class TestMergedTotalsMatchInline:
    def test_per_shard_sums_equal_unsharded_run(self):
        tel = Telemetry()
        with activated(tel):
            net = make_supervised(2)
            supervised_digests(net)
        merged = tel.registry.snapshot()["counters"]
        tel_inline = Telemetry()
        with activated(tel_inline):
            churn_run(make_net(cull_loss_db=CULL_DB), N_EPOCHS)
        inline = tel_inline.registry.snapshot()["counters"]
        assert inline, "inline run recorded no counters"
        for name, total in inline.items():
            if name == "lte.epochs":
                # Ticks once per run_epoch per *worker*: every shard sees
                # every epoch rather than a partition of them.
                for k in (0, 1):
                    assert merged[f"shard{k}.{name}"] == total
                continue
            shard_sum = sum(
                merged.get(f"shard{k}.{name}", 0.0) for k in (0, 1)
            )
            if float(total).is_integer() and float(shard_sum).is_integer():
                assert shard_sum == total, name
            else:
                # Float accumulation order differs across shards; the
                # totals agree to rounding, not bit-for-bit.
                assert shard_sum == pytest.approx(total, rel=1e-9), name


class TestSalvageAndDrop:
    def test_kill_drops_the_dead_workers_buffer(self):
        tel = Telemetry(trace=True)
        _, stats = run_supervised(tel, chaos=kill_chaos())
        assert stats["telemetry_dropped"] == 1
        assert stats["telemetry_salvaged"] == 0
        counters = tel.registry.snapshot()["counters"]
        assert counters["shard.telemetry_dropped"] == 1.0

    def test_degrade_path_also_accounts_for_the_buffer(self):
        from repro.sim.shard import ShardDegradedWarning

        tel = Telemetry(trace=True)
        with pytest.warns(ShardDegradedWarning):
            _, stats = run_supervised(
                tel, chaos=kill_chaos(), retry_budget=0
            )
        assert stats["degraded"] == 1
        assert stats["telemetry_dropped"] + stats["telemetry_salvaged"] == 1

    def test_untraced_runs_count_nothing(self):
        _, stats = run_supervised(None, chaos=kill_chaos())
        assert stats["telemetry_dropped"] == 0
        assert stats["telemetry_salvaged"] == 0

    @pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
    def test_malformed_reply_recovery_salvages_the_buffer(self):
        tel = Telemetry(trace=True)
        chaos = ChaosPolicy(events=(ChaosEvent("malformed", KILL_EPOCH, 1),))
        digests, stats = run_supervised(tel, chaos=chaos, mode="process")
        untraced, _ = run_supervised(None, chaos=chaos, mode="process")
        assert digests == untraced
        assert stats["telemetry_salvaged"] == 1
        assert stats["telemetry_dropped"] == 0


@pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
class TestProcessMode:
    def test_traced_process_kill_run_is_digest_neutral(self):
        untraced, _ = run_supervised(None, chaos=kill_chaos(), mode="process")
        tel = Telemetry(trace=True)
        traced, stats = run_supervised(
            tel, chaos=kill_chaos(), mode="process"
        )
        assert traced == untraced
        assert stats["restarts"] == 1
        names = {r.name for r in tel.tracer.records}
        assert {"shard.respawn", "shard.replay"} <= names
        shards = {
            r.args["shard"]
            for r in tel.tracer.records
            if isinstance(r.args.get("shard"), int)
        }
        assert shards == {0, 1}


class TestWireFormat:
    def test_disabled_telemetry_keeps_the_4_tuple_reply(self):
        net = make_sharded(2, mode="inline")
        try:
            assert net._worker_tel_cfg is None
            assert net._tel_merger is None
            worker = net.workers[0]
            assert worker._tel is None and worker._shipper is None
        finally:
            net.close()

    def test_enabled_telemetry_appends_the_payload_element(self):
        tel = Telemetry(trace=True)
        with activated(tel):
            net = make_sharded(2, mode="inline")
            try:
                assert net._worker_tel_cfg == {"trace": True, "profile": False}
                digests = [
                    epoch_digest(r) for r in churn_run(net, 2)
                ]
                assert len(digests) == 2
            finally:
                net.close()
        # Workers buffered locally and shipped: the parent registry holds
        # only shard-prefixed names, never the workers' raw names.
        counters = tel.registry.snapshot()["counters"]
        assert counters
        assert all(name.startswith("shard") for name in counters)

    def test_inline_worker_outcome_arity_tracks_telemetry(self):
        import numpy as np

        net_off = make_sharded(2, mode="inline")
        tel = Telemetry(trace=True)
        with activated(tel):
            net_on = make_sharded(2, mode="inline")
        try:
            for net, want in ((net_off, 4), (net_on, 5)):
                worker = net.workers[0]
                from repro.sim.shard import _epoch_stream_states

                states = _epoch_stream_states(net.rngs)
                demands = {
                    c.client_id: 1e5 for c in net.topology.clients
                }
                allowed = {
                    ap.ap_id: set(range(net.grid.n_subchannels))
                    for ap in net.topology.aps
                }
                worker.begin_epoch(0, allowed, demands, states)
                partial = worker.read_partial()
                worker.commit_epoch(np.asarray(partial))
                outcome = worker.read_result()
                assert len(outcome) == want
                if want == 5:
                    payload = outcome[4]
                    assert payload["kind"] == "epoch"
                    assert payload["epoch"] == 0
        finally:
            net_off.close()
            net_on.close()
