"""Integration tests for the CellFiAccessPoint orchestration."""

from repro.core.cellfi import CellFiAccessPoint
from repro.lte.rrc import ReacquisitionTiming
from repro.lte.ue import ConnectionState, UserEquipment
from repro.sim.engine import Simulator
from repro.tvws.channels import US_CHANNEL_PLAN
from repro.tvws.database import SpectrumDatabase
from repro.tvws.paws import PawsServer
from repro.tvws.regulatory import EtsiComplianceRules


class _Node:
    def __init__(self, x, y):
        self.x, self.y = x, y


FAST_TIMING = ReacquisitionTiming(
    radio_off_latency_s=1.0, ap_reboot_s=5.0, cell_search_s=3.0
)


def _world(timing=FAST_TIMING):
    sim = Simulator()
    database = SpectrumDatabase(US_CHANNEL_PLAN)
    paws = PawsServer(database)
    compliance = EtsiComplianceRules()
    ap = CellFiAccessPoint(
        sim=sim, paws=paws, x=0.0, y=0.0, serial="it-ap",
        timing=timing, compliance=compliance,
    )
    return sim, database, ap, compliance


class TestBringUp:
    def test_radio_up_after_reboot_delay(self):
        sim, database, ap, _ = _world()
        ap.start()
        assert not ap.radio_on
        sim.run(until=6.0)
        assert ap.radio_on

    def test_client_attaches_after_cell_search(self):
        sim, database, ap, _ = _world()
        ue = UserEquipment(ue_id=0, node=_Node(100.0, 0.0))
        ap.register_client(ue)
        ap.start()
        sim.run(until=6.0)
        assert ue.state is ConnectionState.SEARCHING
        sim.run(until=9.5)
        assert ue.state is ConnectionState.CONNECTED
        assert ap.connected_clients == 1

    def test_late_registered_client_attaches(self):
        sim, database, ap, _ = _world()
        ap.start()
        sim.run(until=6.0)
        ue = UserEquipment(ue_id=1, node=_Node(50.0, 0.0))
        ap.register_client(ue)
        sim.run(until=10.0)
        assert ue.state is ConnectionState.CONNECTED

    def test_sib_announces_database_power_cap(self):
        sim, database, ap, _ = _world()
        ap.start()
        sim.run(until=6.0)
        assert ap.enb.sib.max_ue_power_dbm == 20.0

    def test_compliance_clean_under_normal_operation(self):
        sim, database, ap, compliance = _world()
        ap.register_client(UserEquipment(ue_id=0, node=_Node(10.0, 0.0)))
        ap.start()
        sim.run(until=30.0)
        assert compliance.compliant


class TestVacateResume:
    def test_full_cycle(self):
        sim, database, ap, compliance = _world()
        ue = UserEquipment(ue_id=0, node=_Node(100.0, 0.0))
        ap.register_client(ue)
        ap.start()
        # Only one channel in the world.
        sim.run(until=10.0)
        channel = ap.selector.current_channel
        for tv in US_CHANNEL_PLAN.channels:
            if tv.number != channel:
                database.withdraw_channel(tv.number)
        sim.run(until=20.0)
        assert ap.radio_on

        database.withdraw_channel(channel)
        sim.run(until=25.0)
        assert not ap.radio_on
        assert ue.state is ConnectionState.IDLE  # Instantly silenced.

        database.restore_channel(channel)
        sim.run(until=40.0)
        assert ap.radio_on
        assert ue.state is ConnectionState.CONNECTED
        assert compliance.compliant

    def test_withdraw_during_reboot_cancels_start(self):
        sim, database, ap, _ = _world()
        ap.start()
        sim.run(until=2.0)  # Mid-reboot.
        for tv in US_CHANNEL_PLAN.channels:
            database.withdraw_channel(tv.number)
        sim.run(until=10.0)
        assert not ap.radio_on

    def test_timeline_records_events(self):
        sim, database, ap, _ = _world()
        ap.start()
        sim.run(until=10.0)
        events = [name for _, name in ap.timeline]
        assert "ap-power-on" in events
        assert "radio-on" in events
