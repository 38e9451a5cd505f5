"""Paper Section 5.4 / Figure 5: the two information-asymmetry cases.

(a) **Incorrect share**: an AP overestimates its share because it cannot
    sense a remote client.  The paper's resolution: "AP 1 will sense that
    there are less free subchannels available than it expected, and will
    not schedule any transmission in subchannels the client is facing
    interference on, reducing its effective share."

(b) **Suboptimal share**: an AP could safely take more spectrum but cannot
    know it ("It can also not be more aggressive in this case as it could
    unfairly take a share from AP 2").  The resolution is the share
    formula's conservatism itself.
"""

import numpy as np

from repro.core.interference.manager import CellFiInterferenceManager
from repro.core.interference.share import compute_share
from repro.lte.network import LteNetworkSimulator
from repro.phy.propagation import CompositeChannel, UrbanHataPathLoss
from repro.phy.resource_grid import ResourceGrid
from repro.sim.rng import RngStreams
from repro.sim.topology import AccessPointSite, ClientSite, Topology


class TestSuboptimalShare:
    """Figure 5(b): fairness wins over opportunism, by construction."""

    def test_ap_reserves_fair_share_not_slack(self):
        # AP 1 serves 2 clients and hears 4 contenders in total; even if
        # the other AP only ended up using 1 subchannel, AP 1's claim stays
        # floor(2 * 4 / 4) = 2 of 4 -- it cannot know the slack is safe.
        assert compute_share(4, 2, 4) == 2

    def test_share_independent_of_other_aps_usage(self):
        # The formula takes only (S, N_i, NP_i): there is no input through
        # which another AP's actual usage could tempt it.
        for phantom_usage in range(5):
            assert compute_share(4, 2, 4) == 2

    def test_absent_contenders_restore_full_share(self):
        # Should the three clients on the right disappear, the fair share
        # grows automatically at the next sensing epoch.
        assert compute_share(4, 2, 2) == 4


class TestIncorrectShare:
    """Figure 5(a): an unsensed client makes AP 0 over-claim; the system
    converges to a feasible *effective* allocation anyway."""

    def _world(self):
        # AP 0 with one client near it; AP 1 with a client in the middle.
        # The middle client (UE 2 in the figure) is power-controlled toward
        # its own nearby serving AP... here we place it so that AP 0 cannot
        # hear its PRACH yet suffers AP 0's downlink.
        aps = [AccessPointSite(0, 0.0, 0.0), AccessPointSite(1, 900.0, 0.0)]
        clients = [
            ClientSite(0, 80.0, 0.0, ap_id=0),     # AP 0's own client.
            ClientSite(1, 700.0, 0.0, ap_id=1),    # The contested client.
            ClientSite(2, 860.0, 40.0, ap_id=1),   # AP 1 interior client.
        ]
        topology = Topology(area_m=1000.0, aps=aps, clients=clients)
        rngs = RngStreams(33)
        net = LteNetworkSimulator(
            topology, ResourceGrid(5e6),
            CompositeChannel(UrbanHataPathLoss()), rngs.fork("net"),
        )
        manager = CellFiInterferenceManager([0, 1], 13, rngs.fork("mgr"))
        return topology, net, manager

    def test_overclaim_exists(self):
        topology, net, manager = self._world()
        demands = {0: float("inf"), 1: float("inf"), 2: float("inf")}
        results = net.run(2, manager, lambda e: demands)
        obs = results[-1].observations
        # AP 0 does not hear the contested client's (power-controlled)
        # PRACH, so its contention estimate misses it.
        assert not net.prach_audible(1, 0)
        share_0 = compute_share(13, obs[0].n_active_clients,
                                obs[0].estimated_contenders)
        share_1 = compute_share(13, obs[1].n_active_clients,
                                obs[1].estimated_contenders)
        # The combined claims exceed the carrier: the (a)-case asymmetry.
        assert share_0 + share_1 > 13

    def test_system_still_converges_to_service(self):
        topology, net, manager = self._world()
        demands = {0: float("inf"), 1: float("inf"), 2: float("inf")}
        results = net.run(15, manager, lambda e: demands)
        tail = results[8:]
        # Every client, including the contested one, ends up served: the
        # detection -> bucket-drain -> hop loop resolves the over-claim.
        for cid in (0, 1, 2):
            mean_tput = np.mean([r.throughput_bps[cid] for r in tail])
            assert mean_tput > 50e3, f"client {cid} starved at steady state"

    def test_contested_client_sees_less_interference_over_time(self):
        topology, net, manager = self._world()
        demands = {0: float("inf"), 1: float("inf"), 2: float("inf")}
        results = net.run(15, manager, lambda e: demands)
        # Interference flags on the contested client's scheduled
        # subchannels should subside as holdings disentangle.
        def flagged_fraction(result):
            obs = result.observations[1].clients[1]
            scheduled = [
                k for k, frac in obs.scheduled_fraction.items() if frac > 0.0
            ]
            if not scheduled:
                return 1.0
            return np.mean([obs.interference_detected[k] for k in scheduled])

        early = np.mean([flagged_fraction(r) for r in results[1:4]])
        late = np.mean([flagged_fraction(r) for r in results[10:]])
        assert late <= early + 0.10
