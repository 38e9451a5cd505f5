#!/usr/bin/env python3
"""Quickstart: a CellFi network in ~40 lines.

Builds a random 6-cell deployment in a 2 km x 2 km area, runs CellFi's
decentralized interference management for 10 one-second epochs, and prints
per-client throughput plus each AP's converged subchannel holdings.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core.interference.manager import CellFiInterferenceManager
from repro.lte.network import LteNetworkSimulator
from repro.phy.propagation import (
    CompositeChannel,
    LogNormalShadowing,
    UrbanHataPathLoss,
)
from repro.phy.resource_grid import ResourceGrid
from repro.sim.rng import RngStreams
from repro.sim.topology import random_topology, reassociate_strongest
from repro.utils.render import format_table


def main() -> None:
    rngs = RngStreams(42)

    # Substrate: urban propagation, a 5 MHz TDD carrier (13 subchannels),
    # six APs with six clients each.
    channel = CompositeChannel(UrbanHataPathLoss(), LogNormalShadowing(7.0, seed=42))
    topology = random_topology(
        rngs.stream("topology"), n_aps=6, clients_per_ap=6, client_range_m=800.0
    )
    topology, _ = reassociate_strongest(topology, channel)
    grid = ResourceGrid(5e6)

    # The system simulator plus CellFi's interference manager.
    net = LteNetworkSimulator(topology, grid, channel, rngs.fork("net"))
    manager = CellFiInterferenceManager(
        [ap.ap_id for ap in topology.aps], grid.n_subchannels, rngs.fork("manager")
    )

    # Saturated downlink for 10 epochs.
    demands = {c.client_id: float("inf") for c in topology.clients}
    results = net.run(10, manager, lambda epoch: demands)

    # Report: steady-state throughput per client.
    tail = results[5:]
    rows = []
    for client in topology.clients:
        throughput = np.mean([r.throughput_bps[client.client_id] for r in tail])
        rows.append([client.client_id, client.ap_id, f"{throughput / 1e3:.0f} kb/s"])
    print(format_table(["client", "AP", "throughput"], rows, title="CellFi quickstart"))

    print("\nConverged subchannel holdings per AP:")
    for ap_id, holdings in sorted(manager.holdings().items()):
        print(f"  AP {ap_id}: {sorted(holdings)}")
    print(f"\nTotal hops: {manager.stats.total_hops}, "
          f"re-use packing moves: {manager.stats.total_reuse_moves}")


if __name__ == "__main__":
    main()
