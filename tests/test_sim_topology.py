"""Unit tests for topology generation and queries."""

import numpy as np
import pytest

from repro.sim.topology import (
    AccessPointSite,
    ClientSite,
    Topology,
    grid_topology,
    random_topology,
    reassociate_strongest,
)


def _rng():
    return np.random.default_rng(123)


class TestRandomTopology:
    def test_counts(self):
        topo = random_topology(_rng(), n_aps=5, clients_per_ap=4)
        assert len(topo.aps) == 5
        assert len(topo.clients) == 20

    def test_clients_within_bounds(self):
        topo = random_topology(_rng(), n_aps=8, clients_per_ap=6, area_m=1000.0)
        for client in topo.clients:
            assert 0.0 <= client.x <= 1000.0
            assert 0.0 <= client.y <= 1000.0

    def test_clients_within_range_of_spawning_ap(self):
        topo = random_topology(
            _rng(), n_aps=4, clients_per_ap=10, client_range_m=500.0
        )
        for client in topo.clients:
            ap = topo.ap(client.ap_id)
            assert client.distance_to(ap) <= 500.0 + 1e-6

    def test_min_client_distance_respected(self):
        topo = random_topology(
            _rng(), n_aps=3, clients_per_ap=10,
            client_range_m=400.0, min_client_distance_m=100.0,
        )
        # Clamped corner cases aside, interior clients obey the annulus.
        interior = [
            c for c in topo.clients
            if 400.0 < c.x < 1600.0 and 400.0 < c.y < 1600.0
        ]
        for client in interior:
            assert client.distance_to(topo.ap(client.ap_id)) >= 99.0

    def test_unique_client_ids(self):
        topo = random_topology(_rng(), n_aps=6, clients_per_ap=6)
        ids = [c.client_id for c in topo.clients]
        assert len(set(ids)) == len(ids)

    def test_zero_aps_raises(self):
        with pytest.raises(ValueError):
            random_topology(_rng(), n_aps=0, clients_per_ap=1)

    def test_bad_radii_raise(self):
        with pytest.raises(ValueError):
            random_topology(
                _rng(), n_aps=1, clients_per_ap=1,
                client_range_m=100.0, min_client_distance_m=200.0,
            )

    def test_reproducible(self):
        a = random_topology(np.random.default_rng(5), 4, 3)
        b = random_topology(np.random.default_rng(5), 4, 3)
        assert [(c.x, c.y) for c in a.clients] == [(c.x, c.y) for c in b.clients]


class TestTopologyQueries:
    def test_clients_of(self):
        topo = random_topology(_rng(), n_aps=3, clients_per_ap=2)
        for ap in topo.aps:
            for client in topo.clients_of(ap.ap_id):
                assert client.ap_id == ap.ap_id

    def test_unknown_ap_raises(self):
        topo = random_topology(_rng(), n_aps=2, clients_per_ap=1)
        with pytest.raises(KeyError):
            topo.ap(99)

    def test_unknown_client_raises(self):
        topo = random_topology(_rng(), n_aps=2, clients_per_ap=1)
        with pytest.raises(KeyError):
            topo.client(999)

    def test_duplicate_ap_ids_rejected(self):
        with pytest.raises(ValueError):
            Topology(
                area_m=100.0,
                aps=[AccessPointSite(0, 0, 0), AccessPointSite(0, 1, 1)],
                clients=[],
            )

    def test_duplicate_client_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate client ids"):
            Topology(
                area_m=100.0,
                aps=[AccessPointSite(0, 0, 0), AccessPointSite(1, 1, 1)],
                clients=[
                    ClientSite(5, 1.0, 1.0, ap_id=0),
                    ClientSite(5, 2.0, 2.0, ap_id=1),
                ],
            )

    def test_client_referencing_unknown_ap_rejected(self):
        with pytest.raises(ValueError):
            Topology(
                area_m=100.0,
                aps=[AccessPointSite(0, 0, 0)],
                clients=[ClientSite(0, 1.0, 1.0, ap_id=7)],
            )


class TestGridTopology:
    def test_grid_counts(self):
        topo = grid_topology(n_aps_side=3, clients_per_ap=2, spacing_m=100.0)
        assert len(topo.aps) == 9
        assert len(topo.clients) == 18

    def test_grid_spacing(self):
        topo = grid_topology(n_aps_side=2, clients_per_ap=0, spacing_m=100.0)
        assert topo.aps[0].distance_to(topo.aps[1]) == pytest.approx(100.0)

    def test_clients_on_circle(self):
        topo = grid_topology(2, 4, 200.0, client_offset_m=50.0)
        for client in topo.clients:
            ap = topo.ap(client.ap_id)
            assert client.distance_to(ap) == pytest.approx(50.0)

    def test_bad_side_raises(self):
        with pytest.raises(ValueError):
            grid_topology(0, 1, 100.0)


class _DistanceChannel:
    """Ground distance as a monotone loss surrogate."""

    @staticmethod
    def loss_db_rows(aps, clients):
        return np.array(
            [[ap.distance_to(c) for ap in aps] for c in clients]
        ).reshape(len(clients), len(aps))


class TestReassociation:
    def test_reassociates_to_lowest_loss(self):
        aps = [AccessPointSite(0, 0.0, 0.0), AccessPointSite(1, 1000.0, 0.0)]
        # Client sits next to AP 1 but was spawned by AP 0.
        clients = [ClientSite(0, 990.0, 0.0, ap_id=0)]
        topo = Topology(area_m=1000.0, aps=aps, clients=clients)

        new, block = reassociate_strongest(topo, _DistanceChannel())
        assert new.clients[0].ap_id == 1
        assert block.tolist() == [[990.0, 10.0]]

    def test_preserves_positions_and_count(self):
        topo = random_topology(_rng(), n_aps=4, clients_per_ap=5)
        new, _ = reassociate_strongest(topo, _DistanceChannel())
        assert len(new.clients) == len(topo.clients)
        assert [(c.x, c.y) for c in new.clients] == [
            (c.x, c.y) for c in topo.clients
        ]

    def test_distance_association_is_stable(self):
        topo = random_topology(_rng(), n_aps=4, clients_per_ap=5)
        once, _ = reassociate_strongest(topo, _DistanceChannel())
        twice, _ = reassociate_strongest(once, _DistanceChannel())
        assert [c.ap_id for c in once.clients] == [c.ap_id for c in twice.clients]
