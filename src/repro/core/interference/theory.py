"""The abstract hopping game of Section 5.5 and the Theorem 1 bound.

The paper abstracts the network as an undirected conflict graph
``G = (V, E)``: vertices are APs with integer demands ``d_i``, sharing
``M`` subchannels.  Under two assumptions --

* **Demand**: every closed neighbourhood's demand sum leaves slack
  ``gamma``: ``sum_{l in N(v)} d_l <= (1 - gamma) M``;
* **Fading**: a chosen-free subchannel is unusable with probability ``p``,
  independently per attempt --

Theorem 1 states the randomized hopping converges with probability 1, in
``O(M log n / ((1 - p) gamma))`` rounds in expectation and w.h.p.

:class:`HoppingGame` simulates exactly this abstract process (not the full
LTE machinery) so the bound can be validated empirically, including the
log-n scaling and the 1/(1-p), 1/gamma dependencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set

import numpy as np

if TYPE_CHECKING:
    import networkx as nx


def theorem1_round_bound(
    n_nodes: int, m_subchannels: int, gamma: float, fading_p: float, constant: float = 1.0
) -> float:
    """The Theorem 1 convergence bound: ``c * M log n / ((1-p) gamma)``.

    Raises:
        ValueError: for parameters outside the theorem's assumptions.
    """
    if n_nodes < 1:
        raise ValueError(f"need at least one node, got {n_nodes}")
    if m_subchannels < 1:
        raise ValueError(f"need at least one subchannel, got {m_subchannels}")
    if not 1.0 / m_subchannels < gamma <= 1.0:
        raise ValueError(f"gamma must be in (1/M, 1], got {gamma!r}")
    if not 0.0 <= fading_p < 1.0:
        raise ValueError(f"fading probability must be in [0, 1), got {fading_p!r}")
    return constant * m_subchannels * math.log(max(n_nodes, 2)) / ((1.0 - fading_p) * gamma)


@dataclass
class GameResult:
    """Outcome of one hopping-game run.

    Attributes:
        converged: every node satisfied its demand.
        rounds: rounds executed (equals ``max_rounds`` if not converged).
        rounds_to_converge: first all-satisfied round, or ``None``.
    """

    converged: bool
    rounds: int
    rounds_to_converge: Optional[int]


class HoppingGame:
    """The abstract randomized-hopping process on a conflict graph.

    Per round, every node with unmet demand picks uniformly at random among
    the subchannels that *appear free* in its neighbourhood; an attempt
    fails if another neighbour made the same choice this round (clash) or
    the subchannel is faded (probability ``p``).  Acquired subchannels are
    kept -- the analysis's process, which the full CellFi hopper refines
    with buckets and utility.

    Args:
        graph: conflict graph; nodes are hashable AP ids.
        demands: subchannels each node must acquire.
        m_subchannels: total subchannels ``M``.
        fading_p: per-attempt fading probability.
        rng: randomness for choices and fading.

    Raises:
        ValueError: if any demand is negative or exceeds ``M``.
    """

    def __init__(
        self,
        graph: nx.Graph,
        demands: Dict,
        m_subchannels: int,
        fading_p: float,
        rng: np.random.Generator,
    ) -> None:
        if m_subchannels < 1:
            raise ValueError(f"need at least one subchannel, got {m_subchannels}")
        if not 0.0 <= fading_p < 1.0:
            raise ValueError(f"fading probability must be in [0, 1), got {fading_p!r}")
        for node, demand in demands.items():
            if demand < 0 or demand > m_subchannels:
                raise ValueError(f"demand {demand} of node {node!r} out of range")
        self.graph = graph
        self.demands = dict(demands)
        self.m = m_subchannels
        self.p = fading_p
        self.rng = rng
        self.held: Dict = {node: set() for node in graph.nodes}

    # -- Assumptions -----------------------------------------------------------

    def demand_slack(self) -> float:
        """The realised ``gamma``: min over closed neighbourhoods.

        ``gamma = 1 - max_v sum_{l in N[v]} d_l / M``.  Must be positive
        for Theorem 1 to apply.
        """
        worst = 0
        for node in self.graph.nodes:
            neighbourhood = set(self.graph.neighbors(node)) | {node}
            worst = max(worst, sum(self.demands.get(v, 0) for v in neighbourhood))
        return 1.0 - worst / self.m

    # -- Dynamics -----------------------------------------------------------------

    def _free_for(self, node) -> List[int]:
        """Subchannels not held by ``node`` or any neighbour."""
        taken: Set[int] = set(self.held[node])
        for neighbour in self.graph.neighbors(node):
            taken |= self.held[neighbour]
        return [k for k in range(self.m) if k not in taken]

    def round(self) -> None:
        """One synchronized hopping round."""
        # All unsatisfied nodes choose simultaneously (clashes possible).
        choices: Dict = {}
        for node in self.graph.nodes:
            deficit = self.demands[node] - len(self.held[node])
            if deficit <= 0:
                continue
            free = self._free_for(node)
            if not free:
                continue
            picks = self.rng.choice(
                free, size=min(deficit, len(free)), replace=False
            )
            choices[node] = {int(k) for k in picks}

        for node, picks in choices.items():
            for k in picks:
                clashed = any(
                    k in choices.get(neighbour, ())
                    for neighbour in self.graph.neighbors(node)
                )
                faded = self.rng.random() < self.p
                if not clashed and not faded:
                    self.held[node].add(k)

    def satisfied(self) -> bool:
        """Whether every node has met its demand."""
        return all(
            len(self.held[node]) >= self.demands[node] for node in self.graph.nodes
        )

    def run(self, max_rounds: int = 10_000) -> GameResult:
        """Run until convergence or ``max_rounds``."""
        for round_index in range(1, max_rounds + 1):
            if self.satisfied():
                return GameResult(
                    converged=True,
                    rounds=round_index - 1,
                    rounds_to_converge=round_index - 1,
                )
            self.round()
        converged = self.satisfied()
        return GameResult(
            converged=converged,
            rounds=max_rounds,
            rounds_to_converge=max_rounds if converged else None,
        )


def random_conflict_graph(
    n_nodes: int, mean_degree: float, rng: np.random.Generator
) -> nx.Graph:
    """An Erdos-Renyi conflict graph with the given expected degree."""
    if n_nodes < 1:
        raise ValueError(f"need at least one node, got {n_nodes}")
    probability = min(1.0, mean_degree / max(1, n_nodes - 1))
    seed = int(rng.integers(0, 2**31))
    # Imported here so that importing repro.core stays networkx-free.
    import networkx as nx

    return nx.gnp_random_graph(n_nodes, probability, seed=seed)


def feasible_uniform_demands(
    graph: nx.Graph, m_subchannels: int, gamma: float
) -> Dict:
    """Uniform demands sized so the demand assumption holds with slack gamma.

    Every closed neighbourhood gets total demand at most ``(1-gamma) M``.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must be in (0, 1], got {gamma!r}")
    max_closed_degree = max(
        (graph.degree(v) + 1 for v in graph.nodes), default=1
    )
    per_node = max(1, int((1.0 - gamma) * m_subchannels / max_closed_degree))
    return {node: per_node for node in graph.nodes}
