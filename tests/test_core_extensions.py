"""Tests for the Section 7 hybrid (per-provider centralized) control plane."""

import numpy as np
import pytest

from repro.core.interference.hybrid import HybridInterferenceManager
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


def _scenario(seed=13, n_aps=6):
    rngs = RngStreams(seed)
    channel = CompositeChannel(
        UrbanHataPathLoss(), LogNormalShadowing(7.0, seed=seed)
    )
    topo = random_topology(
        rngs.stream("topo"), n_aps=n_aps, clients_per_ap=4, client_range_m=800.0
    )
    topo, _ = reassociate_strongest(topo, channel)
    net = LteNetworkSimulator(topo, ResourceGrid(5e6), channel, rngs.fork("net"))
    return topo, net


class TestHybridManager:
    def test_rejects_overlapping_providers(self):
        with pytest.raises(ValueError):
            HybridInterferenceManager(
                {"a": [0, 1], "b": [1, 2]}, 13, RngStreams(1)
            )

    def test_first_epoch_full_carrier(self):
        manager = HybridInterferenceManager({"a": [0], "b": [1]}, 13, RngStreams(1))
        decisions = manager.decide(0, None)
        assert decisions[0] == set(range(13))

    def test_members_of_one_provider_never_overlap(self):
        topo, net = _scenario()
        ap_ids = [a.ap_id for a in topo.aps]
        half = len(ap_ids) // 2
        providers = {"alpha": ap_ids[:half], "beta": ap_ids[half:]}
        manager = HybridInterferenceManager(providers, 13, RngStreams(2))
        demands = {c.client_id: float("inf") for c in topo.clients}
        results = net.run(6, manager, lambda e: demands)
        holdings = manager.holdings()
        for members in providers.values():
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    assert not (holdings.get(a, set()) & holdings.get(b, set()))

    def test_split_respects_provider_holdings(self):
        topo, net = _scenario()
        ap_ids = [a.ap_id for a in topo.aps]
        providers = {"solo": ap_ids}
        manager = HybridInterferenceManager(providers, 13, RngStreams(3))
        demands = {c.client_id: float("inf") for c in topo.clients}
        net.run(5, manager, lambda e: demands)
        provider_set = manager.provider_holdings()["solo"]
        union = set()
        for subs in manager.holdings().values():
            union |= subs
        assert union <= provider_set

    def test_hybrid_not_worse_than_distributed(self):
        topo, net_hybrid = _scenario(seed=17, n_aps=6)
        ap_ids = [a.ap_id for a in topo.aps]
        providers = {"alpha": ap_ids[:3], "beta": ap_ids[3:]}
        demands = {c.client_id: float("inf") for c in topo.clients}

        hybrid = HybridInterferenceManager(providers, 13, RngStreams(4))
        hybrid_results = net_hybrid.run(10, hybrid, lambda e: demands)

        _, net_cellfi = _scenario(seed=17, n_aps=6)
        cellfi = CellFiInterferenceManager(ap_ids, 13, RngStreams(4))
        cellfi_results = net_cellfi.run(10, cellfi, lambda e: demands)

        def connected(results):
            return np.mean(
                [list(r.connected.values()) for r in results[5:]]
            )

        assert connected(hybrid_results) >= connected(cellfi_results) - 0.08

    def test_empty_provider_tolerated(self):
        topo, net = _scenario()
        ap_ids = [a.ap_id for a in topo.aps]
        providers = {"alpha": ap_ids, "ghost": []}
        manager = HybridInterferenceManager(providers, 13, RngStreams(5))
        demands = {c.client_id: float("inf") for c in topo.clients}
        results = net.run(3, manager, lambda e: demands)
        assert results  # No crash; ghost provider simply holds nothing.
