"""Uplink protection (extension of paper Section 5).

"The following discussion focuses on the downlink because the uplink is
much less saturated; yet, the uplink can be managed similarly."  In TDD
the subchannel allocation applies to both directions, so CellFi's
downlink decisions protect the uplink for free.  This experiment
quantifies that: run the downlink algorithms to steady state, then
evaluate the uplink under the converged allocations for plain LTE
(everyone everywhere) vs CellFi (disentangled holdings).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.baselines.plain_lte import PlainLtePolicy
from repro.core.interference.manager import CellFiInterferenceManager
from repro.experiments.common import build_scenario
from repro.lte.uplink import UplinkModel


@dataclass
class UplinkComparison:
    """Uplink outcomes under each technology's converged allocation.

    Attributes:
        sinr_db: per-client uplink SINR samples per technology.
        throughput_bps: per-client uplink throughput per technology.
    """

    sinr_db: Dict[str, List[float]] = field(default_factory=dict)
    throughput_bps: Dict[str, List[float]] = field(default_factory=dict)

    def median_sinr_db(self, tech: str) -> float:
        """Median uplink SINR."""
        return float(np.median(self.sinr_db[tech]))

    def median_bps(self, tech: str) -> float:
        """Median uplink throughput."""
        return float(np.median(self.throughput_bps[tech]))


def run_uplink_comparison(
    seed: int = 2,
    n_aps: int = 8,
    clients_per_ap: int = 5,
    epochs: int = 10,
) -> UplinkComparison:
    """Converge each downlink policy, then score the uplink under it."""
    scenario = build_scenario(seed, n_aps, clients_per_ap)
    result = UplinkComparison()
    demands = {c.client_id: float("inf") for c in scenario.build_clients}

    for tech in ("LTE", "CellFi"):
        net = scenario.lte_net(f"ul-{tech}")
        if tech == "CellFi":
            policy = CellFiInterferenceManager(
                scenario.ap_ids, net.grid.n_subchannels,
                scenario.rngs.fork("ul-mgr"),
            )
        else:
            policy = PlainLtePolicy(scenario.ap_ids, net.grid.n_subchannels)
        observations = None
        allowed = None
        for epoch in range(epochs):
            allowed = policy.decide(epoch, observations)
            observations = net.run_epoch(epoch, allowed, demands).observations

        uplink = UplinkModel(net.topology, net.grid, net.channel)
        outcome = uplink.run_epoch(allowed, demands)
        clients = [c.client_id for c in net.topology.clients]
        result.sinr_db[tech] = [
            outcome.sinr_db.get(cid, -30.0) for cid in clients
        ]
        result.throughput_bps[tech] = [
            outcome.throughput_bps.get(cid, 0.0) for cid in clients
        ]
    return result
