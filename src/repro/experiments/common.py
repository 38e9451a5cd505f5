"""Shared scenario construction for the large-scale experiments.

Every technology comparison in the paper runs on the *same* topology with
the same propagation, so differences are attributable to the MAC.  A
:class:`Scenario` bundles that common substrate; per-technology runners
live in :mod:`repro.experiments.large_scale`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.phy.propagation import (
    CompositeChannel,
    GainMatrixCache,
    LogNormalShadowing,
    UrbanHataPathLoss,
)
from repro.phy.resource_grid import ResourceGrid
from repro.sim.rng import RngStreams
from repro.sim.topology import (
    ClientSite,
    Topology,
    random_topology,
    reassociate_strongest,
)

#: Simulation area side (paper: "We simulate an area of 2 km x 2 km").
AREA_M = 2000.0

#: Clients are placed within this range of their AP (cell range ~1 km; the
#: strongest-cell reassociation then shortens most links).
CLIENT_RANGE_M = 800.0

#: LTE carrier for the large-scale runs (paper: "We choose 5 MHz channel").
LTE_BANDWIDTH_HZ = 5e6

#: Shadowing deviation for the urban area.
SHADOWING_SIGMA_DB = 7.0


#: Values of ``REPRO_FULL`` that enable paper-scale runs.
_TRUTHY = frozenset({"1", "true", "yes", "on"})


def full_scale() -> bool:
    """Whether to run paper-scale experiments (``REPRO_FULL`` truthy) or CI-scale.

    Accepts the usual truthy spellings (``1``/``true``/``yes``/``on``,
    any case); everything else -- including unset -- is CI scale.
    """
    return os.environ.get("REPRO_FULL", "").strip().lower() in _TRUTHY


@dataclass
class Scenario:
    """One evaluated deployment: topology + propagation + carrier.

    Construct via :func:`build_scenario` so all technologies share the
    association and shadowing draws.

    ``loss_block`` is the read-only ``(n_clients, n_aps)`` channel-loss
    matrix the association was decided on, over ``build_clients`` (the
    build-time client sites, in ``topology.clients`` order).  Runs move
    clients in the shared ``topology``; the build-time pair stays as
    built, so every gain cache and shard worker can start from it.
    """

    seed: int
    n_aps: int
    clients_per_ap: int
    topology: Topology
    channel: CompositeChannel
    rngs: RngStreams
    loss_block: np.ndarray
    build_clients: Tuple[ClientSite, ...]

    @property
    def ap_ids(self) -> List[int]:
        """All access-point ids."""
        return [ap.ap_id for ap in self.topology.aps]

    def grid(self) -> ResourceGrid:
        """A fresh LTE resource grid for this scenario."""
        return ResourceGrid(LTE_BANDWIDTH_HZ)

    def gain_cache(self) -> GainMatrixCache:
        """A fresh gain cache over ``topology``, seeded from ``loss_block``.

        Each run gets its own copy (see :meth:`GainMatrixCache.seed`);
        rows of clients moved since the build refill through the channel.
        """
        cache = GainMatrixCache(
            self.channel, self.topology.aps, self.topology.clients
        )
        cache.seed(self.loss_block, self.build_clients)
        return cache


def build_scenario(
    seed: int,
    n_aps: int,
    clients_per_ap: int = 6,
    area_m: float = AREA_M,
    client_range_m: float = CLIENT_RANGE_M,
) -> Scenario:
    """Create a deployment: random APs, clients, strongest-cell association.

    Args:
        seed: experiment seed; every stochastic component derives from it.
        n_aps: deployment density (paper sweeps 6..14).
        clients_per_ap: clients spawned per AP (paper: 6, denser: 16).
    """
    rngs = RngStreams(seed)
    channel = CompositeChannel(
        UrbanHataPathLoss(),
        LogNormalShadowing(SHADOWING_SIGMA_DB, seed=seed),
    )
    topology = random_topology(
        rngs.stream("topology"),
        n_aps=n_aps,
        clients_per_ap=clients_per_ap,
        area_m=area_m,
        client_range_m=client_range_m,
    )
    topology, loss_block = reassociate_strongest(topology, channel)
    loss_block.setflags(write=False)
    return Scenario(
        seed=seed,
        n_aps=n_aps,
        clients_per_ap=clients_per_ap,
        topology=topology,
        channel=channel,
        rngs=rngs,
        loss_block=loss_block,
        build_clients=tuple(topology.clients),
    )
