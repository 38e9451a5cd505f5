"""Shared scenario construction for the large-scale experiments.

Every technology comparison in the paper runs on the *same* topology with
the same propagation, so differences are attributable to the MAC.  A
:class:`Scenario` bundles that common substrate; per-technology runners
live in :mod:`repro.experiments.large_scale`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.lte.network import LteNetworkSimulator
from repro.phy.propagation import (
    CompositeChannel,
    GainMatrixCache,
    LogNormalShadowing,
    UrbanHataPathLoss,
)
from repro.phy.resource_grid import ResourceGrid
from repro.sim.rng import RngStreams
from repro.sim.topology import (
    AccessPointSite,
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


@dataclass(frozen=True, eq=False)
class Scenario:
    """One evaluated deployment as built: sites + propagation + carrier.

    Construct via :func:`build_scenario` so all technologies share the
    association and shadowing draws.  A scenario is immutable: ``aps``
    and ``build_clients`` are the build-time sites (clients reassociated
    to their strongest AP), and ``loss_block`` is the read-only
    ``(n_clients, n_aps)`` channel-loss matrix the association was
    decided on, rows in ``build_clients`` order.  Runs never share
    mutable state through it: :meth:`lte_net` and :attr:`topology` hand
    every caller its own :class:`Topology` over those sites, so a move
    in one run leaves every other run, and every later one, at build
    time.
    """

    seed: int
    n_aps: int
    clients_per_ap: int
    area_m: float
    aps: Tuple[AccessPointSite, ...]
    build_clients: Tuple[ClientSite, ...]
    channel: CompositeChannel
    rngs: RngStreams
    loss_block: np.ndarray

    @property
    def topology(self) -> Topology:
        """A new :class:`Topology` over the build-time sites, per call."""
        return Topology(
            area_m=self.area_m, aps=list(self.aps), clients=list(self.build_clients)
        )

    @property
    def ap_ids(self) -> List[int]:
        """All access-point ids."""
        return [ap.ap_id for ap in self.aps]

    def grid(self) -> ResourceGrid:
        """A fresh LTE resource grid for this scenario."""
        return ResourceGrid(LTE_BANDWIDTH_HZ)

    def lte_net(self, stream_label: str, **simulator_kwargs) -> LteNetworkSimulator:
        """An LTE network over this scenario as built, sharing no state.

        The one construction path for 1 or N shards (pass
        ``shard_ap_ids`` for a shard view): a fresh topology, a gain
        cache seeded with a copy of ``loss_block``, and a fresh
        :class:`CompositeChannel` over the same models (a channel
        memoizes AP-side arrays, so nets do not share one).
        ``stream_label`` names the net's RNG fork; ``fork`` is a pure
        seed derivation, so every build under one label draws the same
        streams.
        """
        topology = self.topology
        channel = CompositeChannel(self.channel.path_loss, self.channel.shadowing)
        gain_cache = GainMatrixCache(channel, topology.aps, topology.clients)
        gain_cache.seed(self.loss_block, self.build_clients)
        return LteNetworkSimulator(
            topology=topology,
            grid=self.grid(),
            channel=channel,
            rngs=self.rngs.fork(stream_label),
            gain_cache=gain_cache,
            **simulator_kwargs,
        )


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
        area_m=topology.area_m,
        aps=tuple(topology.aps),
        build_clients=tuple(topology.clients),
        channel=channel,
        rngs=rngs,
        loss_block=loss_block,
    )
