"""Handover: A3-style strongest-cell roaming for mobile clients.

Paper Section 7: "CellFi inherits the benefits of the LTE architecture.
It provides seamless roaming across access points, which is difficult to
engineer in current WiFi deployments."  This module adds the measurement-
driven handover decision (the LTE A3 event): a client re-associates when a
neighbour cell's RSRP exceeds the serving cell's by a hysteresis margin
for a sustained time-to-trigger, which suppresses ping-pong at cell edges.

:class:`MobileNetworkRunner` glues mobility, handover and the epoch
simulator: each epoch it moves the clients through the simulator's
incremental mobility API (:meth:`LteNetworkSimulator.move_client`),
applies handover decisions through
:meth:`LteNetworkSimulator.reattach_client` and runs the scheduler --
CellFi's interference manager rides along unchanged.  Only the rows of
moved/handed-over clients are refreshed; everything else (gain cache,
schedulers, CQI tracking) persists across epochs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.lte.network import EpochResult, LteNetworkSimulator
from repro.sim.mobility import RandomWaypointModel
from repro.sim.topology import AccessPointSite, ClientSite, Topology


@dataclass(frozen=True)
class HandoverEvent:
    """One completed handover."""

    epoch: int
    client_id: int
    source_ap: int
    target_ap: int


class HandoverController:
    """A3-event handover decisions from RSRP measurements.

    Args:
        hysteresis_db: neighbour must beat serving by this margin (A3
            offset; LTE-typical 2-3 dB).
        time_to_trigger_epochs: consecutive epochs the condition must hold.
    """

    def __init__(
        self, hysteresis_db: float = 3.0, time_to_trigger_epochs: int = 2
    ) -> None:
        if hysteresis_db < 0.0:
            raise ValueError(f"hysteresis must be >= 0, got {hysteresis_db!r}")
        if time_to_trigger_epochs < 1:
            raise ValueError("time-to-trigger must be >= 1 epoch")
        self.hysteresis_db = hysteresis_db
        self.ttt_epochs = time_to_trigger_epochs
        self._streak: Dict[int, Tuple[int, int]] = {}  # client -> (target, count)

    def decide(
        self,
        serving: Mapping[int, int],
        rsrp_dbm: Mapping[int, Mapping[int, float]],
    ) -> Dict[int, int]:
        """Return ``client -> new AP`` for clients that should hand over.

        Args:
            serving: current serving AP per client.
            rsrp_dbm: per-client RSRP toward every AP.
        """
        decisions: Dict[int, int] = {}
        for client_id, levels in rsrp_dbm.items():
            current = serving[client_id]
            best_ap = max(levels, key=lambda ap: levels[ap])
            qualifies = (
                best_ap != current
                and levels[best_ap] >= levels[current] + self.hysteresis_db
            )
            if not qualifies:
                self._streak.pop(client_id, None)
                continue
            target, count = self._streak.get(client_id, (best_ap, 0))
            if target != best_ap:
                target, count = best_ap, 0
            count += 1
            if count >= self.ttt_epochs:
                decisions[client_id] = best_ap
                self._streak.pop(client_id, None)
            else:
                self._streak[client_id] = (target, count)
        return decisions


class MobileNetworkRunner:
    """Epoch loop with mobility and roaming on top of the LTE simulator.

    Args:
        topology: initial layout.
        grid, channel, rngs: as for :class:`LteNetworkSimulator`.
        mobility: the walker model (clients are auto-registered).
        controller: handover decision logic.
        net_kwargs: forwarded to the simulator.
    """

    def __init__(
        self,
        topology: Topology,
        grid,
        channel,
        rngs,
        mobility: RandomWaypointModel,
        controller: Optional[HandoverController] = None,
        **net_kwargs,
    ) -> None:
        self.channel = channel
        self.grid = grid
        self.rngs = rngs
        self.mobility = mobility
        self.controller = controller or HandoverController()
        self.handovers: List[HandoverEvent] = []
        for client in topology.clients:
            mobility.add_client(client.client_id, client.x, client.y)
        self.net = LteNetworkSimulator(
            topology, grid, channel, rngs, **net_kwargs
        )
        # The runner mutates the simulator's topology in place (moves and
        # re-attachments); expose that single live object.
        self.topology = self.net.topology

    def _rsrp(self, topology: Topology) -> Dict[int, Dict[int, float]]:
        return {
            client.client_id: self.net.rx_rb_levels_dbm(client.client_id)
            for client in topology.clients
        }

    def run(
        self,
        n_epochs: int,
        policy,
        demand_fn,
        epoch_s: float = 1.0,
    ) -> List[EpochResult]:
        """Run with per-epoch movement and handover.

        Each epoch: move every walker through the simulator's incremental
        mobility path, evaluate A3 measurements against the refreshed
        links, apply qualifying handovers via ``reattach_client``, then
        run the epoch.  No caches are rebuilt wholesale -- the dirty-row
        machinery refreshes exactly the touched rows, so the incremental
        epoch sees precisely the cells events touched.
        """
        results: List[EpochResult] = []
        observations = None
        serving = {c.client_id: c.ap_id for c in self.topology.clients}
        for epoch in range(n_epochs):
            positions = self.mobility.step(epoch_s)
            for client_id, (x, y) in positions.items():
                site = self.topology.client(client_id)
                if site.x != x or site.y != y:
                    self.net.move_client(client_id, x, y)
            rsrp = self._rsrp(self.topology)
            for client_id, target in self.controller.decide(serving, rsrp).items():
                self.handovers.append(
                    HandoverEvent(
                        epoch=epoch,
                        client_id=client_id,
                        source_ap=serving[client_id],
                        target_ap=target,
                    )
                )
                serving[client_id] = target
                self.net.reattach_client(client_id, target)
            allowed = policy.decide(epoch, observations)
            result = self.net.run_epoch(epoch, allowed, demand_fn(epoch))
            observations = result.observations
            results.append(result)
        return results
