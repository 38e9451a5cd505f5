"""Registry completeness: every checkpointed subsystem's hash is *live*.

A subsystem whose ``state_dict`` misses mutable state would snapshot and
restore "successfully" while silently losing data -- the digests would
still match because both sides hash the same incomplete view.  These
tests close that hole from the public-API side: mutate each subsystem
through its ordinary interface and assert its state hash responds.
"""

import numpy as np
import pytest

from repro.experiments.db_outage import DbOutageRun
from repro.experiments.large_scale import TECH_CELLFI, SaturatedLteRun
from repro.core.interference.hopping import (
    ClientSense,
    HopperConfig,
    SubchannelHopper,
)
from repro.sim.checkpoint import (
    CheckpointRegistry,
    hash_state,
    registered_dataclasses,
)
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.traffic.flows import Flow, FlowTracker
from repro.tvws.channels import US_CHANNEL_PLAN
from repro.tvws.database import SpectrumDatabase
from repro.tvws.regulatory import EtsiComplianceRules
from repro.tvws.transport import RobustnessLog


def _hash(subsystem):
    """Hash any state_dict-bearing subsystem."""
    return hash_state(subsystem.state_dict())


def _db_run():
    return DbOutageRun(
        seed=2,
        outages=((30.0, 25.0),),
        timeout_prob=0.05,
        drop_prob=0.05,
        latency_spike_prob=0.05,
        tail_s=60.0,
    )


class TestFullGraphCompleteness:
    def test_every_db_outage_subsystem_hash_evolves(self):
        # Driving the run end to end through public API only must move
        # EVERY registered hash: a frozen hash means dead state_dict.
        run = _db_run()
        before = run.registry.state_hashes()
        assert set(before) == {
            "sim",
            "rng",
            "database",
            "paws",
            "compliance",
            "robustness",
            "transport",
            "ap",
            "selector",
            "driver",
        }
        run.run()
        after = run.registry.state_hashes()
        frozen = [name for name in before if before[name] == after[name]]
        assert frozen == []

    def test_every_saturated_lte_subsystem_hash_evolves(self):
        run = SaturatedLteRun(
            TECH_CELLFI, seed=3, n_aps=3, clients_per_ap=3, epochs=4
        )
        before = run.registry.state_hashes()
        assert set(before) == {
            "rng",
            "net-rng",
            "net",
            "policy",
            "policy-rng",
            "driver",
        }
        run.step_epoch()
        run.step_epoch()
        after = run.registry.state_hashes()
        frozen = [name for name in before if before[name] == after[name]]
        # The scenario stream set is consumed at build time; epochs draw
        # from the network / policy streams instead.
        assert frozen == ["rng"]
        # ... but the scenario streams still hash live state:
        run.scenario.rngs.stream("probe").random()
        assert run.registry.state_hashes()["rng"] != after["rng"]


class TestTargetedPublicApiMutations:
    """One subsystem, one ordinary API call, one hash flip."""

    def test_simulator_heap_and_clock(self):
        sim = Simulator()
        registry = CheckpointRegistry(sim)
        tick = registry.register_callback("tick", lambda: None)
        h0 = registry.state_hashes()["sim"]
        sim.schedule(1.0, tick)
        h1 = registry.state_hashes()["sim"]
        assert h1 != h0
        sim.run(until=2.0)
        assert registry.state_hashes()["sim"] != h1

    def test_rng_streams(self):
        streams = RngStreams(7)
        streams.stream("a")  # materialise before hashing
        h0 = _hash(streams)
        streams.stream("a").random()
        assert _hash(streams) != h0
        h1 = _hash(streams)
        streams.stream("b")  # a new stream alone also changes state
        assert _hash(streams) != h1

    def test_spectrum_database(self):
        database = SpectrumDatabase(US_CHANNEL_PLAN)
        h0 = _hash(database)
        channel = US_CHANNEL_PLAN.channels[0].number
        database.withdraw_channel(channel)
        h1 = _hash(database)
        assert h1 != h0
        database.restore_channel(channel)
        assert _hash(database) != h1

    def test_compliance_rules(self):
        rules = EtsiComplianceRules()
        h0 = _hash(rules)
        rules.lease_granted("dev-1", expires_at=60.0)
        h1 = _hash(rules)
        assert h1 != h0
        rules.channel_lost("dev-1", now=10.0)
        assert _hash(rules) != h1

    def test_robustness_log(self):
        log = RobustnessLog()
        h0 = _hash(log)
        log.record(1.0, "primary-db", "retry", "attempt 2")
        assert _hash(log) != h0

    def test_flow_tracker(self):
        tracker = FlowTracker()
        h0 = _hash(tracker)
        tracker.arrive(Flow(client_id=1, arrival_s=0.0, size_bits=1e4))
        h1 = _hash(tracker)
        assert h1 != h0
        tracker.serve(1, 1e4, 0.0, 1.0)
        assert _hash(tracker) != h1

    def test_subchannel_hopper(self):
        hopper = SubchannelHopper(
            HopperConfig(n_subchannels=13), np.random.default_rng(5)
        )
        h0 = hash_state(hopper.state_dict())
        hopper.step(4, {})
        h1 = hash_state(hopper.state_dict())
        assert h1 != h0
        noisy = ClientSense(
            subband_cqi=[3] * 13,
            max_subband_cqi=[9] * 13,
            interference_detected=[True] * 13,
            scheduled_fraction={k: 1.0 for k in hopper.holdings},
        )
        hopper.step(4, {0: noisy})
        assert hash_state(hopper.state_dict()) != h1

    def test_paws_server_notification(self):
        run = _db_run()
        h0 = _hash(run.paws)
        run.paws.notify_spectrum_use(run.ap.device, 21, now=0.0)
        assert _hash(run.paws) != h0

    def test_transport_fault_log(self):
        run = _db_run()
        h0 = _hash(run.transport)
        run.transport.fault_log.append((0.0, "probe", "timeout"))
        assert _hash(run.transport) != h0

    def test_driver_boot_flag(self):
        run = _db_run()
        h0 = run.registry.state_hashes()["driver"]
        run.run_to_boot()
        assert run.registry.state_hashes()["driver"] != h0


class TestDataclassWhitelist:
    def test_expected_dataclasses_are_registered(self):
        names = registered_dataclasses()
        suffixes = {name.rsplit(".", 1)[-1] for name in names}
        assert {
            "Record",
            "Flow",
            "SelectorEvent",
            "SibMessage",
            "ReacquisitionTiming",
            "ClientObservation",
            "ApObservation",
            "ComplianceViolation",
            "Incumbent",
            "ChannelLease",
            "RetryPolicy",
            "FaultSpec",
        } <= suffixes
