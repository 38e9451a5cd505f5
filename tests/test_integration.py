"""Cross-module integration tests: full-system scenarios end to end."""

import numpy as np

from repro.core.cellfi import CellFiAccessPoint
from repro.core.interference.manager import CellFiInterferenceManager
from repro.experiments.common import build_scenario
from repro.lte.rrc import ReacquisitionTiming
from repro.lte.ue import ConnectionState, UserEquipment
from repro.sim.engine import Simulator
from repro.traffic.backlogged import saturated_demand_fn
from repro.traffic.flows import Flow, FlowTracker
from repro.traffic.web import generate_web_sessions
from repro.tvws.channels import US_CHANNEL_PLAN
from repro.tvws.database import Incumbent, SpectrumDatabase
from repro.tvws.paws import PawsServer
from repro.tvws.regulatory import EtsiComplianceRules


class _Node:
    def __init__(self, x, y):
        self.x, self.y = x, y


class TestMultiApControlPlane:
    """Several CellFi APs sharing one database, full lifecycle."""

    def _world(self, n_aps=3):
        sim = Simulator()
        database = SpectrumDatabase(US_CHANNEL_PLAN)
        paws = PawsServer(database)
        compliance = EtsiComplianceRules()
        timing = ReacquisitionTiming(
            radio_off_latency_s=1.0, ap_reboot_s=4.0, cell_search_s=2.0
        )
        aps = []
        for i in range(n_aps):
            ap = CellFiAccessPoint(
                sim=sim, paws=paws, x=600.0 * i, y=0.0,
                serial=f"ap-{i}", timing=timing, compliance=compliance,
            )
            ue = UserEquipment(ue_id=i, node=_Node(600.0 * i + 80.0, 0.0))
            ap.register_client(ue)
            aps.append((ap, ue))
        return sim, database, compliance, aps

    def test_all_aps_come_up_and_serve(self):
        sim, database, compliance, aps = self._world()
        for ap, _ in aps:
            ap.start()
        sim.run(until=20.0)
        assert all(ap.radio_on for ap, _ in aps)
        assert all(
            ue.state is ConnectionState.CONNECTED for _, ue in aps
        )
        assert compliance.compliant

    def test_local_incumbent_only_displaces_nearby_ap(self):
        sim, database, compliance, aps = self._world()
        for ap, _ in aps:
            ap.start()
        sim.run(until=20.0)
        channel = aps[0][0].selector.current_channel
        # A microphone near AP 0 only; APs 1 and 2 are outside its contour.
        database.register_incumbent(
            Incumbent("mic", channel, x=0.0, y=0.0, protection_radius_m=300.0,
                      active_from=sim.now)
        )
        sim.run(until=sim.now + 15.0)
        assert aps[0][0].selector.current_channel != channel
        # The distant APs keep their channel (database is location-aware).
        assert aps[2][0].selector.current_channel == channel
        assert compliance.compliant

    def test_every_ap_holds_independent_lease(self):
        sim, database, compliance, aps = self._world()
        for ap, _ in aps:
            ap.start()
        sim.run(until=20.0)
        serials = {ap.device.serial_number for ap, _ in aps}
        assert len(serials) == 3
        assert database.query_count >= 3


class TestDataControlSplitConsistency:
    """The epoch simulator and the event-driven control plane agree."""

    def test_cellfi_network_converges_and_stays_connected(self):
        scenario = build_scenario(seed=21, n_aps=8, clients_per_ap=5)
        net = scenario.lte_net("net")
        manager = CellFiInterferenceManager(
            scenario.ap_ids, net.grid.n_subchannels, scenario.rngs.fork("mgr")
        )
        results = net.run(12, manager, saturated_demand_fn(net.topology))
        early = np.mean(list(results[1].connected.values()))
        late = np.mean(
            [np.mean(list(r.connected.values())) for r in results[8:]]
        )
        assert late >= early - 0.05  # Convergence must not degrade coverage.
        assert late >= 0.85

    def test_hop_rate_decays_after_convergence(self):
        scenario = build_scenario(seed=22, n_aps=8, clients_per_ap=5)
        net = scenario.lte_net("net")
        manager = CellFiInterferenceManager(
            scenario.ap_ids, net.grid.n_subchannels, scenario.rngs.fork("mgr")
        )
        demand = saturated_demand_fn(net.topology)
        net.run(6, manager, demand)
        early_hops = manager.stats.total_hops
        observations = None
        # Continue for 6 more epochs by re-running through the policy.
        results = net.run(6, manager, demand)
        late_hops = manager.stats.total_hops - early_hops
        # The paper: "the vast majority of access points only hop very few
        # times"; steady-state hop rate must not exceed the initial one.
        assert late_hops <= max(early_hops, 3)


class TestWebWorkloadEndToEnd:
    def test_lte_family_drains_offered_load(self):
        scenario = build_scenario(seed=23, n_aps=4, clients_per_ap=3)
        net = scenario.lte_net("net")
        manager = CellFiInterferenceManager(
            scenario.ap_ids, net.grid.n_subchannels, scenario.rngs.fork("mgr")
        )
        client_ids = [c.client_id for c in net.topology.clients]
        pages = generate_web_sessions(
            client_ids, 10.0, scenario.rngs.stream("web")
        )
        tracker = FlowTracker()
        cursor = 0
        observations = None
        for epoch in range(20):  # Twice the arrival horizon: time to drain.
            t0, t1 = float(epoch), float(epoch + 1)
            while cursor < len(pages) and pages[cursor].arrival_s < t1:
                page = pages[cursor]
                tracker.arrive(
                    Flow(page.client_id, page.arrival_s, page.total_bytes * 8.0)
                )
                cursor += 1
            demands = {cid: tracker.queued_bits(cid) for cid in client_ids}
            allowed = manager.decide(epoch, observations)
            result = net.run_epoch(epoch, allowed, demands)
            observations = result.observations
            for cid, bits in result.served_bits.items():
                if bits > 0.0:
                    tracker.serve(cid, bits, t0, t1)
        # Most pages complete; completion times are sane.
        total = len(tracker.completed) + tracker.in_flight()
        assert total == len(pages)
        assert len(tracker.completed) / total >= 0.7
        for flow in tracker.completed:
            assert flow.completion_time_s >= 0.0


class TestSeedRobustness:
    """The headline ordering must hold across seeds, not on a lucky draw."""

    def test_cellfi_beats_lte_across_seeds(self):
        from repro.baselines.plain_lte import PlainLtePolicy

        wins = 0
        seeds = (101, 202, 303)
        for seed in seeds:
            scenario = build_scenario(seed=seed, n_aps=8, clients_per_ap=5)
            demands = saturated_demand_fn(scenario.topology)

            def run(policy_factory, label):
                net = scenario.lte_net(label)
                policy = policy_factory(net)
                results = net.run(10, policy, demands)
                return np.mean(
                    [np.mean(list(r.connected.values())) for r in results[5:]]
                )

            cellfi = run(
                lambda net: CellFiInterferenceManager(
                    scenario.ap_ids, net.grid.n_subchannels,
                    scenario.rngs.fork("mgr"),
                ),
                "cellfi",
            )
            lte = run(
                lambda net: PlainLtePolicy(
                    scenario.ap_ids, net.grid.n_subchannels
                ),
                "lte",
            )
            if cellfi >= lte - 1e-9:
                wins += 1
        assert wins == len(seeds), f"CellFi lost on {len(seeds) - wins} seed(s)"
