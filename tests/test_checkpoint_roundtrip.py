"""Checkpoint/restore roundtrip fuzz: halted+resumed == uninterrupted.

For every checkpointable driver -- the event-granular outage run, the
epoch-granular saturated-LTE run, and the replication-granular convergence
run -- a run that is snapshotted mid-flight, halted, and resumed from the
snapshot must finish with exactly the same final metrics and full-state
digest as the same configuration run straight through.  One case restores
in a *fresh process* to prove nothing leaks through interpreter state.
"""

import json
import subprocess
import sys

import pytest

from repro.experiments.convergence import ConvergenceRun
from repro.experiments.db_outage import DbOutageRun
from repro.experiments.large_scale import (
    TECH_CELLFI,
    TECH_LTE,
    TECH_ORACLE,
    SaturatedLteRun,
)
from repro.sim.checkpoint import Snapshot, latest_checkpoint


def _db_config(seed):
    # Small but non-trivial: one outage, wire faults on, short tail.
    return dict(
        seed=seed,
        outages=((30.0, 25.0),),
        timeout_prob=0.05,
        drop_prob=0.05,
        latency_spike_prob=0.05,
        tail_s=60.0,
    )


class TestDbOutageRoundtrip:
    @pytest.mark.parametrize("seed", [2, 11, 23])
    def test_resume_matches_uninterrupted(self, seed, tmp_path):
        baseline = DbOutageRun(**_db_config(seed))
        expected = baseline.run()

        halted = DbOutageRun(**_db_config(seed))
        out = halted.run(
            checkpoint_dir=str(tmp_path),
            checkpoint_every=40.0,
            halt_at=halted.boot + 40.0,
        )
        assert out is None, "halting before the window must not yield a result"

        resume_path = latest_checkpoint(str(tmp_path))
        assert resume_path is not None
        resumed = DbOutageRun.restore(resume_path)
        result = resumed.run()
        assert result is not None
        assert result.digest == expected.digest
        assert result.counts == expected.counts
        assert resumed.run_digest() == baseline.run_digest()

    def test_restore_in_fresh_process(self, tmp_path):
        run = DbOutageRun(**_db_config(7))
        run.run(
            checkpoint_dir=str(tmp_path),
            checkpoint_every=50.0,
            halt_at=run.boot + 50.0,
        )
        path = latest_checkpoint(str(tmp_path))
        assert path is not None

        script = (
            "import json, sys\n"
            "from repro.experiments.db_outage import DbOutageRun\n"
            "run = DbOutageRun.restore(sys.argv[1])\n"
            "result = run.run()\n"
            "print(json.dumps({'digest': result.digest,"
            " 'state': run.run_digest()}))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, path],
            capture_output=True,
            text=True,
            check=True,
        )
        child = json.loads(proc.stdout.strip().splitlines()[-1])

        same = DbOutageRun(**_db_config(7))
        expected = same.run()
        assert child["digest"] == expected.digest
        assert child["state"] == same.run_digest()


class TestSaturatedLteRoundtrip:
    @pytest.mark.parametrize(
        "tech,seed", [(TECH_CELLFI, 3), (TECH_LTE, 5), (TECH_ORACLE, 9)]
    )
    def test_resume_matches_uninterrupted(self, tech, seed, tmp_path):
        kwargs = dict(
            tech=tech, seed=seed, n_aps=3, clients_per_ap=3, epochs=6
        )
        baseline = SaturatedLteRun(**kwargs)
        expected = baseline.run()

        halted = SaturatedLteRun(**kwargs)
        out = halted.run(
            checkpoint_dir=str(tmp_path), checkpoint_every=2, halt_at=3
        )
        assert out is None

        resumed = SaturatedLteRun.restore(latest_checkpoint(str(tmp_path)))
        result = resumed.run()
        assert result is not None
        assert result.throughput_bps == expected.throughput_bps
        assert result.connected_fraction == expected.connected_fraction
        assert resumed.run_digest() == baseline.run_digest()

    @staticmethod
    def _legacy_snapshot(tmp_path, kwargs, backend):
        """A fresh mid-run snapshot dressed as one an older release wrote:
        its config names the epoch backend and the network state carries
        the ``max_cqi_state`` list that release always left empty."""
        halted = SaturatedLteRun(**kwargs)
        halted.run(checkpoint_dir=str(tmp_path), checkpoint_every=2, halt_at=3)
        snapshot = Snapshot.load(latest_checkpoint(str(tmp_path)))
        snapshot.meta["config"]["backend"] = backend
        snapshot.subsystems["net"]["max_cqi_state"] = []
        return snapshot

    def _assert_legacy_snapshot_resumes(self, tmp_path, backend):
        """Restore the legacy snapshot, finish, and match the straight run."""
        kwargs = dict(
            tech=TECH_CELLFI, seed=3, n_aps=3, clients_per_ap=3, epochs=6
        )
        baseline = SaturatedLteRun(**kwargs)
        expected = baseline.run()

        snapshot = self._legacy_snapshot(tmp_path, kwargs, backend)
        resumed = SaturatedLteRun.from_snapshot(snapshot)
        assert "backend" not in resumed.config
        result = resumed.run()
        assert result.throughput_bps == expected.throughput_bps
        assert result.connected_fraction == expected.connected_fraction
        assert resumed.run_digest() == baseline.run_digest()

    def test_legacy_vectorized_snapshot_resumes_bit_identically(
        self, tmp_path
    ):
        self._assert_legacy_snapshot_resumes(tmp_path, "vectorized")

    def test_legacy_incremental_snapshot_resumes_bit_identically(
        self, tmp_path
    ):
        self._assert_legacy_snapshot_resumes(tmp_path, "incremental")

    def test_legacy_scalar_snapshot_is_rejected(self, tmp_path):
        # The scalar oracle kept its max-CQI history in ``max_cqi_state``,
        # not ``max_cqi_vec``: such a snapshot cannot resume exactly.
        kwargs = dict(
            tech=TECH_CELLFI, seed=3, n_aps=3, clients_per_ap=3, epochs=6
        )
        snapshot = self._legacy_snapshot(tmp_path, kwargs, "scalar")
        with pytest.raises(ValueError, match="scalar"):
            SaturatedLteRun.from_snapshot(snapshot)

    @pytest.mark.parametrize("tech", [TECH_LTE, TECH_CELLFI])
    def test_sharded_resume_matches_unsharded_straight_through(
        self, tech, tmp_path
    ):
        # Kill a 2-shard run at the epoch barrier, restore from the merged
        # snapshot, and require the resumed digest to equal both its own
        # straight-through run *and* the plain unsharded run: the snapshot
        # merge and the restore fan-out are both bit-exact.
        kwargs = dict(
            tech=tech,
            seed=4,
            n_aps=4,
            clients_per_ap=3,
            epochs=6,
            shards=2,
            shard_mode="inline",
        )
        unsharded = SaturatedLteRun(
            tech=tech, seed=4, n_aps=4, clients_per_ap=3, epochs=6
        )
        expected = unsharded.run()

        baseline = SaturatedLteRun(**kwargs)
        assert baseline.net.n_shards == 2
        straight = baseline.run()
        assert straight.throughput_bps == expected.throughput_bps
        assert baseline.run_digest() == unsharded.run_digest()

        halted = SaturatedLteRun(**kwargs)
        out = halted.run(
            checkpoint_dir=str(tmp_path), checkpoint_every=2, halt_at=3
        )
        assert out is None

        resumed = SaturatedLteRun.restore(latest_checkpoint(str(tmp_path)))
        assert resumed.net.n_shards == 2
        result = resumed.run()
        assert result is not None
        assert result.throughput_bps == expected.throughput_bps
        assert result.connected_fraction == expected.connected_fraction
        assert resumed.run_digest() == baseline.run_digest()
        assert resumed.run_digest() == unsharded.run_digest()

    def test_retired_setting_in_a_sharded_snapshot_is_dropped(self, tmp_path):
        # Older sharded snapshots may name a setting the constructor has
        # since retired (such as the switch that made shard supervision
        # optional); it changes no result bit, so the restore drops it.
        kwargs = dict(
            tech=TECH_LTE, seed=4, n_aps=4, clients_per_ap=3, epochs=4,
            shards=2, shard_mode="inline",
        )
        baseline = SaturatedLteRun(**kwargs)
        baseline.run()
        halted = SaturatedLteRun(**kwargs)
        halted.run(checkpoint_dir=str(tmp_path), checkpoint_every=2, halt_at=2)
        snapshot = Snapshot.load(latest_checkpoint(str(tmp_path)))
        snapshot.meta["config"]["retired_switch"] = True
        resumed = SaturatedLteRun.from_snapshot(snapshot)
        assert "retired_switch" not in resumed.config
        resumed.run()
        assert resumed.run_digest() == baseline.run_digest()
        assert resumed.supervision_stats()["restarts"] == 0


class TestConvergenceRoundtrip:
    @pytest.mark.parametrize("seed,n_nodes", [(17, 8), (4, 12)])
    def test_resume_matches_uninterrupted(self, seed, n_nodes, tmp_path):
        kwargs = dict(
            n_nodes=n_nodes, fading_p=0.3, replications=5, seed=seed
        )
        baseline = ConvergenceRun(**kwargs)
        expected = baseline.run()

        halted = ConvergenceRun(**kwargs)
        out = halted.run(
            checkpoint_dir=str(tmp_path), checkpoint_every=2, halt_at=2
        )
        assert out is None

        resumed = ConvergenceRun.restore(latest_checkpoint(str(tmp_path)))
        result = resumed.run()
        assert result == expected
        assert resumed.run_digest() == baseline.run_digest()


class TestSnapshotHygiene:
    def test_latest_checkpoint_orders_by_position(self, tmp_path):
        (tmp_path / "ckpt_00000100.000.json").write_text("{}")
        (tmp_path / "ckpt_00000090.000.json").write_text("{}")
        (tmp_path / "not_a_ckpt.json").write_text("{}")
        assert latest_checkpoint(str(tmp_path)).endswith(
            "ckpt_00000100.000.json"
        )

    def test_latest_checkpoint_missing_dir(self, tmp_path):
        assert latest_checkpoint(str(tmp_path / "nope")) is None

    def test_snapshot_digest_matches_live_registry(self, tmp_path):
        run = DbOutageRun(**_db_config(2))
        run.run_to_boot()
        path = run.save_checkpoint(str(tmp_path))
        snapshot = Snapshot.load(path)
        assert snapshot.digest() == run.run_digest()
        assert snapshot.meta["driver"] == "db_outage"
