"""Tests for mobility and handover (paper Section 7 roaming)."""

import numpy as np
import pytest

from repro.core.interference.manager import CellFiInterferenceManager
from repro.lte.handover import (
    HandoverController,
    MobileNetworkRunner,
)
from repro.phy.propagation import CompositeChannel, UrbanHataPathLoss
from repro.phy.resource_grid import ResourceGrid
from repro.sim.mobility import RandomWaypointModel
from repro.sim.rng import RngStreams
from repro.sim.topology import AccessPointSite, ClientSite, Topology


class TestRandomWaypoint:
    def _model(self, seed=1, **kwargs):
        return RandomWaypointModel(1000.0, np.random.default_rng(seed), **kwargs)

    def test_positions_stay_in_area(self):
        model = self._model()
        for i in range(5):
            model.add_client(i, 500.0, 500.0)
        for _ in range(200):
            positions = model.step(5.0)
            for x, y in positions.values():
                assert 0.0 <= x <= 1000.0
                assert 0.0 <= y <= 1000.0

    def test_speed_bounded(self):
        model = self._model(pause_range_s=(0.0, 0.0), speed_range_m_s=(1.0, 2.0))
        model.add_client(0, 500.0, 500.0)
        previous = model.position(0)
        for _ in range(100):
            (x, y), = model.step(1.0).values()
            moved = np.hypot(x - previous[0], y - previous[1])
            assert moved <= 2.0 + 1e-9
            previous = (x, y)

    def test_walker_eventually_moves(self):
        model = self._model(pause_range_s=(0.0, 0.0))
        model.add_client(0, 500.0, 500.0)
        model.step(60.0)
        x, y = model.position(0)
        assert (x, y) != (500.0, 500.0)

    def test_duplicate_client_rejected(self):
        model = self._model()
        model.add_client(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            model.add_client(0, 2.0, 2.0)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            RandomWaypointModel(0.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            RandomWaypointModel(
                100.0, np.random.default_rng(0), speed_range_m_s=(0.0, 1.0)
            )
        model = self._model()
        with pytest.raises(ValueError):
            model.step(0.0)


class TestHandoverController:
    def test_no_handover_within_hysteresis(self):
        controller = HandoverController(hysteresis_db=3.0, time_to_trigger_epochs=1)
        decisions = controller.decide(
            {0: 0}, {0: {0: -90.0, 1: -88.0}}  # Only 2 dB better.
        )
        assert decisions == {}

    def test_handover_after_ttt(self):
        controller = HandoverController(hysteresis_db=3.0, time_to_trigger_epochs=2)
        rsrp = {0: {0: -90.0, 1: -85.0}}
        assert controller.decide({0: 0}, rsrp) == {}     # TTT epoch 1.
        assert controller.decide({0: 0}, rsrp) == {0: 1}  # TTT epoch 2.

    def test_streak_resets_when_condition_lapses(self):
        controller = HandoverController(hysteresis_db=3.0, time_to_trigger_epochs=2)
        good = {0: {0: -90.0, 1: -85.0}}
        bad = {0: {0: -90.0, 1: -90.0}}
        controller.decide({0: 0}, good)
        controller.decide({0: 0}, bad)      # Condition lapses.
        assert controller.decide({0: 0}, good) == {}  # Streak restarted.

    def test_streak_resets_on_target_change(self):
        controller = HandoverController(hysteresis_db=3.0, time_to_trigger_epochs=2)
        controller.decide({0: 0}, {0: {0: -90.0, 1: -85.0, 2: -95.0}})
        # A different neighbour takes the lead: counter restarts.
        decisions = controller.decide({0: 0}, {0: {0: -90.0, 1: -95.0, 2: -85.0}})
        assert decisions == {}

    def test_validation(self):
        with pytest.raises(ValueError):
            HandoverController(hysteresis_db=-1.0)
        with pytest.raises(ValueError):
            HandoverController(time_to_trigger_epochs=0)


class TestMobileRunner:
    def _world(self, seed=3):
        rngs = RngStreams(seed)
        aps = [AccessPointSite(0, 300.0, 500.0), AccessPointSite(1, 1700.0, 500.0)]
        clients = [
            ClientSite(0, 350.0, 500.0, ap_id=0),
            ClientSite(1, 1650.0, 500.0, ap_id=1),
        ]
        topology = Topology(area_m=2000.0, aps=aps, clients=clients)
        mobility = RandomWaypointModel(
            2000.0, rngs.stream("walk"),
            speed_range_m_s=(40.0, 60.0),  # Vehicular: forces roaming fast.
            pause_range_s=(0.0, 0.0),
        )
        runner = MobileNetworkRunner(
            topology,
            ResourceGrid(5e6),
            CompositeChannel(UrbanHataPathLoss()),
            rngs.fork("net"),
            mobility,
        )
        return runner

    def test_clients_roam_between_cells(self):
        runner = self._world()
        manager = CellFiInterferenceManager([0, 1], 13, RngStreams(9))
        demands = lambda e: {0: float("inf"), 1: float("inf")}  # noqa: E731
        runner.run(40, manager, demands)
        assert runner.handovers, "fast walkers must trigger at least one handover"
        for event in runner.handovers:
            assert event.source_ap != event.target_ap

    def test_service_continues_across_handover(self):
        runner = self._world(seed=4)
        manager = CellFiInterferenceManager([0, 1], 13, RngStreams(10))
        demands = lambda e: {0: float("inf"), 1: float("inf")}  # noqa: E731
        results = runner.run(40, manager, demands)
        connected = np.mean(
            [np.mean(list(r.connected.values())) for r in results]
        )
        assert connected >= 0.85  # Roaming, not dropping.

    def test_serving_cell_tracked_in_topology(self):
        runner = self._world(seed=5)
        manager = CellFiInterferenceManager([0, 1], 13, RngStreams(11))
        demands = lambda e: {0: float("inf"), 1: float("inf")}  # noqa: E731
        runner.run(40, manager, demands)
        if runner.handovers:
            last = runner.handovers[-1]
            client = runner.topology.client(last.client_id)
            # After the final recorded handover the topology must reflect
            # some serving cell consistent with the event history.
            assert client.ap_id in (0, 1)

    def test_rsrp_levels_equal_per_link_accessor(self):
        runner = self._world(seed=6)
        manager = CellFiInterferenceManager([0, 1], 13, RngStreams(12))
        demands = lambda e: {0: float("inf"), 1: float("inf")}  # noqa: E731
        runner.run(5, manager, demands)
        net = runner.net
        expected = {
            client.client_id: {
                ap.ap_id: net.rx_rb_power_dbm(client.client_id, ap.ap_id)
                for ap in runner.topology.aps
            }
            for client in runner.topology.clients
        }
        levels = runner._rsrp(runner.topology)
        assert levels == expected
        for cid, row in levels.items():
            assert list(row) == list(expected[cid])
            assert all(type(v) is float for v in row.values())
