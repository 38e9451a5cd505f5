"""Network topology: node placement and geometric queries.

The paper's large-scale evaluation (Section 6.3.4) simulates a 2 km x 2 km
area with randomly placed access points and a fixed number of clients placed
within the coverage range of each AP.  :func:`random_topology` reproduces
that setup.  Every simulator owns its :class:`Topology` and mutates only
that one; the LTE, Wi-Fi and CellFi runs of one experiment each get a copy
over the same build-time sites (see
:class:`repro.experiments.common.Scenario`), so all technologies are
compared on identical layouts.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np


@dataclass(frozen=True)
class AccessPointSite:
    """A fixed access-point location.

    Attributes:
        ap_id: dense integer identifier, unique within a topology.
        x, y: position in metres.
        height_m: antenna height above ground (paper rooftop cells: 15 m).
    """

    ap_id: int
    x: float
    y: float
    height_m: float = 15.0

    def distance_to(self, other: "NodeSite") -> float:
        """Euclidean ground distance in metres."""
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class ClientSite:
    """A client location associated with one access point.

    Attributes:
        client_id: dense integer identifier, unique within a topology.
        x, y: position in metres.
        ap_id: identifier of the serving access point.
        height_m: device height (handheld: 1.5 m).
    """

    client_id: int
    x: float
    y: float
    ap_id: int
    height_m: float = 1.5

    def distance_to(self, other: "NodeSite") -> float:
        """Euclidean ground distance in metres."""
        return math.hypot(self.x - other.x, self.y - other.y)


# Either kind of placed node.
NodeSite = object


@dataclass
class Topology:
    """Node layout plus association and adjacency queries.

    The AP set and the client set are fixed at construction, and both AP
    ids and client ids must be unique.  Clients may move
    (:meth:`move_client`) and change serving AP (:meth:`reattach_client`);
    both replace the client's immutable :class:`ClientSite` in place, so a
    client keeps its slot in ``clients`` for the topology's lifetime.
    """

    area_m: float
    aps: List[AccessPointSite]
    clients: List[ClientSite]
    _clients_by_ap: Dict[int, List[ClientSite]] = field(init=False, repr=False)
    _slot: Dict[int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        ap_ids = {ap.ap_id for ap in self.aps}
        if len(ap_ids) != len(self.aps):
            raise ValueError("duplicate access-point ids in topology")
        self._slot = {c.client_id: i for i, c in enumerate(self.clients)}
        if len(self._slot) != len(self.clients):
            raise ValueError("duplicate client ids in topology")
        by_ap: Dict[int, List[ClientSite]] = {ap.ap_id: [] for ap in self.aps}
        for client in self.clients:
            if client.ap_id not in ap_ids:
                raise ValueError(
                    f"client {client.client_id} references unknown AP {client.ap_id}"
                )
            by_ap[client.ap_id].append(client)
        self._clients_by_ap = by_ap

    def clients_of(self, ap_id: int) -> List[ClientSite]:
        """Clients associated with access point ``ap_id``."""
        return list(self._clients_by_ap[ap_id])

    def ap(self, ap_id: int) -> AccessPointSite:
        """Look up an access point by id."""
        for candidate in self.aps:
            if candidate.ap_id == ap_id:
                return candidate
        raise KeyError(f"no access point with id {ap_id}")

    def client(self, client_id: int) -> ClientSite:
        """Look up a client by id."""
        slot = self._slot.get(client_id)
        if slot is None:
            raise KeyError(f"no client with id {client_id}")
        return self.clients[slot]

    def move_client(self, client_id: int, x: float, y: float) -> ClientSite:
        """Relocate a client (mobility step), keeping its association.

        Sites are immutable, so the client is replaced in place by a new
        :class:`ClientSite` at ``(x, y)``.  Anything caching per-link
        quantities (e.g. a :class:`repro.phy.propagation.GainMatrixCache`
        or a simulator's link powers) must be invalidated for this client.

        Returns:
            The new site.

        Raises:
            KeyError: for an unknown client id.
        """
        old = self.client(client_id)
        new = ClientSite(
            client_id=old.client_id,
            x=x,
            y=y,
            ap_id=old.ap_id,
            height_m=old.height_m,
        )
        self.clients[self._slot[client_id]] = new
        siblings = self._clients_by_ap[old.ap_id]
        for i, sibling in enumerate(siblings):
            if sibling is old:
                siblings[i] = new
                break
        return new

    def reattach_client(self, client_id: int, new_ap_id: int) -> ClientSite:
        """Move a client's association to another AP (handover/re-attach).

        Sites are immutable, so the client is replaced by a new
        :class:`ClientSite` with ``ap_id=new_ap_id`` at the same position.
        The client leaves the old serving AP's list and enters the new
        one's at its ``clients``-list slot, so both lists stay in that
        canonical order -- the same order a freshly built topology would
        produce.  Simulators iterate (and draw RNG values) in that order,
        so preserving it keeps incremental runs bit-identical to rebuilt
        ones.

        Returns:
            The new site (unchanged if already attached to ``new_ap_id``).

        Raises:
            KeyError: for an unknown client or AP id.
        """
        old = self.client(client_id)
        if new_ap_id not in self._clients_by_ap:
            raise KeyError(f"no access point with id {new_ap_id}")
        if old.ap_id == new_ap_id:
            return old
        new = ClientSite(
            client_id=old.client_id,
            x=old.x,
            y=old.y,
            ap_id=new_ap_id,
            height_m=old.height_m,
        )
        slot = self._slot[client_id]
        self.clients[slot] = new
        self._clients_by_ap[old.ap_id].remove(old)
        targets = self._clients_by_ap[new_ap_id]
        slots = [self._slot[c.client_id] for c in targets]
        targets.insert(bisect_left(slots, slot), new)
        return new


def random_topology(
    rng: np.random.Generator,
    n_aps: int,
    clients_per_ap: int,
    area_m: float = 2000.0,
    client_range_m: float = 1000.0,
    min_client_distance_m: float = 20.0,
) -> Topology:
    """Place APs uniformly in a square area and clients around each AP.

    Mirrors the paper's simulation settings: "We simulate an area of
    2 km x 2 km ... Base stations are randomly placed in this area with
    varying number of clients per AP."

    Clients are drawn uniformly *by area* within an annulus
    [``min_client_distance_m``, ``client_range_m``] of their AP, clipped to
    the simulation area.

    Raises:
        ValueError: on non-positive counts or inconsistent radii.
    """
    if n_aps <= 0:
        raise ValueError(f"need at least one AP, got {n_aps}")
    if clients_per_ap < 0:
        raise ValueError(f"clients_per_ap must be >= 0, got {clients_per_ap}")
    if not 0.0 <= min_client_distance_m < client_range_m:
        raise ValueError(
            "require 0 <= min_client_distance_m < client_range_m, got "
            f"{min_client_distance_m} and {client_range_m}"
        )

    aps = [
        AccessPointSite(ap_id=i, x=rng.uniform(0.0, area_m), y=rng.uniform(0.0, area_m))
        for i in range(n_aps)
    ]

    clients: List[ClientSite] = []
    client_id = 0
    for ap in aps:
        for _ in range(clients_per_ap):
            x, y = _draw_annulus_point(
                rng, ap.x, ap.y, min_client_distance_m, client_range_m, area_m
            )
            clients.append(ClientSite(client_id=client_id, x=x, y=y, ap_id=ap.ap_id))
            client_id += 1

    return Topology(area_m=area_m, aps=aps, clients=clients)


def _draw_annulus_point(
    rng: np.random.Generator,
    cx: float,
    cy: float,
    r_min: float,
    r_max: float,
    area_m: float,
    max_attempts: int = 64,
) -> Tuple[float, float]:
    """Sample a point uniformly by area in an annulus, clipped to the square.

    Rejection-samples against the area bounds; falls back to clamping after
    ``max_attempts`` so placement always terminates (an AP in a corner has a
    small acceptance region).
    """
    for _ in range(max_attempts):
        radius = math.sqrt(rng.uniform(r_min**2, r_max**2))
        theta = rng.uniform(0.0, 2.0 * math.pi)
        x = cx + radius * math.cos(theta)
        y = cy + radius * math.sin(theta)
        if 0.0 <= x <= area_m and 0.0 <= y <= area_m:
            return x, y
    return min(max(x, 0.0), area_m), min(max(y, 0.0), area_m)


def reassociate_strongest(topology: Topology, channel) -> Tuple[Topology, np.ndarray]:
    """Re-associate every client with the AP it receives most strongly.

    Real UEs camp on the strongest cell they can hear, not the one whose
    coverage disc they were spawned in; with shadowing the two differ.  The
    experiments apply this before comparing technologies so association is
    identical for all of them.

    The whole ``(n_clients, n_aps)`` loss block comes from one
    ``channel.loss_db_rows`` call (which chunks itself, so its
    temporaries stay bounded at any size), and each row's ``argmin``
    picks the serving AP.  ``loss_db_rows`` is bit-identical to
    ``loss_db`` per link, and ``argmin`` takes the first index on ties
    exactly as ``min(aps, key=...)`` does, so the association is that
    of the per-link scan.

    Args:
        topology: the original layout.
        channel: the propagation model (a
            :class:`~repro.phy.propagation.CompositeChannel` or anything
            with its ``loss_db_rows(aps, clients)``).

    Returns:
        The re-associated topology, and the loss block it was decided on:
        rows in client order, columns in AP order.  Losses depend on
        positions only, so the block is also the channel-loss matrix of
        the new topology -- what a
        :class:`~repro.phy.propagation.GainMatrixCache` can start from.
    """
    aps = list(topology.aps)
    clients = topology.clients
    block = channel.loss_db_rows(aps, clients)
    best = block.argmin(axis=1).tolist() if clients else []
    new_clients = [
        ClientSite(
            client_id=client.client_id,
            x=client.x,
            y=client.y,
            ap_id=aps[col].ap_id,
            height_m=client.height_m,
        )
        for client, col in zip(clients, best)
    ]
    return Topology(area_m=topology.area_m, aps=aps, clients=new_clients), block


def grid_topology(
    n_aps_side: int,
    clients_per_ap: int,
    spacing_m: float,
    client_offset_m: float = 100.0,
) -> Topology:
    """A deterministic grid layout, handy for unit tests and examples.

    APs form an ``n x n`` grid with the given spacing; each AP's clients are
    placed on a circle of radius ``client_offset_m`` around it.
    """
    if n_aps_side <= 0:
        raise ValueError(f"grid side must be positive, got {n_aps_side}")
    aps = []
    for row in range(n_aps_side):
        for col in range(n_aps_side):
            aps.append(
                AccessPointSite(
                    ap_id=row * n_aps_side + col,
                    x=(col + 0.5) * spacing_m,
                    y=(row + 0.5) * spacing_m,
                )
            )
    clients = []
    client_id = 0
    for ap in aps:
        for k in range(clients_per_ap):
            angle = 2.0 * math.pi * k / max(1, clients_per_ap)
            clients.append(
                ClientSite(
                    client_id=client_id,
                    x=ap.x + client_offset_m * math.cos(angle),
                    y=ap.y + client_offset_m * math.sin(angle),
                    ap_id=ap.ap_id,
                )
            )
            client_id += 1
    return Topology(area_m=n_aps_side * spacing_m, aps=aps, clients=clients)


def _grid_shape(n_shards: int) -> Tuple[int, int]:
    """Factor ``n_shards`` into the most square ``(cols, rows)`` tiling."""
    if n_shards <= 0:
        raise ValueError(f"shard count must be positive, got {n_shards}")
    rows = int(math.isqrt(n_shards))
    while n_shards % rows:
        rows -= 1
    return n_shards // rows, rows


def grid_partition(topology: Topology, n_shards: int) -> List[List[int]]:
    """Partition the map into up to ``n_shards`` rectangular tiles of AP ids.

    The square ``area_m x area_m`` map is split into a ``cols x rows``
    grid of equal rectangles (``cols * rows == n_shards``, as square as
    the factorization allows) and each AP is assigned to the tile
    containing its position.  Shards are returned row-major as sorted AP
    id lists.  Degenerate tilings are clamped instead of silently
    producing workerless shards: asking for more shards than there are
    APs raises ``ValueError`` (every worker must own at least one AP),
    and tiles that end up empty because the APs cluster elsewhere are
    dropped, so the returned plan may be shorter than ``n_shards`` but
    never contains an empty shard.  Clients are not partitioned here --
    a client belongs to the shard owning its serving AP, which is what
    makes cross-shard handover a row migration rather than a
    re-partition.
    """
    n_aps = len(topology.aps)
    if n_shards > n_aps:
        raise ValueError(
            f"cannot split {n_aps} APs into {n_shards} shards: every "
            "shard needs at least one AP to own (lower the shard count)"
        )
    cols, rows = _grid_shape(n_shards)
    tile_w = topology.area_m / cols
    tile_h = topology.area_m / rows
    shards: List[List[int]] = [[] for _ in range(n_shards)]
    for ap in topology.aps:
        col = min(int(ap.x / tile_w), cols - 1)
        row = min(int(ap.y / tile_h), rows - 1)
        shards[row * cols + col].append(ap.ap_id)
    return [sorted(shard) for shard in shards if shard]
