"""Unit tests for the UE state machine and the eNodeB."""

import pytest

from repro.lte.enb import EnodeB, RadioOffError
from repro.lte.ue import ConnectionState, UserEquipment
from repro.phy.resource_grid import ResourceGrid


class _Node:
    def __init__(self, x=0.0, y=0.0):
        self.x, self.y = x, y


def _enb():
    return EnodeB(cell_id=1, node=_Node())


def _ue(ue_id=0):
    return UserEquipment(ue_id=ue_id, node=_Node(100.0, 0.0))


def _up(enb):
    return enb.start_radio(473e6, ResourceGrid(5e6), max_ue_power_dbm=20.0)


class TestUeLifecycle:
    def test_starts_idle(self):
        assert _ue().state is ConnectionState.IDLE

    def test_attach_from_search(self):
        enb, ue = _enb(), _ue()
        _up(enb)
        ue.start_cell_search()
        enb.admit(ue)
        assert ue.state is ConnectionState.CONNECTED
        assert ue.serving_cell_id == 1

    def test_double_attach_rejected(self):
        enb, ue = _enb(), _ue()
        _up(enb)
        enb.admit(ue)
        with pytest.raises(ValueError):
            ue.attach(2, enb.sib)

    def test_sib_caps_ue_power(self):
        enb, ue = _enb(), _ue()
        enb.start_radio(473e6, ResourceGrid(5e6), max_ue_power_dbm=17.0)
        enb.admit(ue)
        assert ue.tx_power_dbm == 17.0

    def test_detach_clears_state(self):
        enb, ue = _enb(), _ue()
        _up(enb)
        enb.admit(ue)
        ue.detach()
        assert ue.state is ConnectionState.IDLE
        assert ue.sib is None


class TestEnodeB:
    def test_radio_off_by_default(self):
        assert not _enb().radio_on

    def test_start_radio_builds_sib(self):
        enb = _enb()
        sib = _up(enb)
        assert sib.cell_id == 1
        assert sib.downlink_earfcn == sib.uplink_earfcn  # TDD.
        assert enb.radio_on

    def test_admit_requires_radio(self):
        with pytest.raises(RadioOffError):
            _enb().admit(_ue())

    def test_stop_radio_detaches_all(self):
        enb = _enb()
        _up(enb)
        ues = [_ue(i) for i in range(3)]
        for ue in ues:
            enb.admit(ue)
        enb.stop_radio()
        assert enb.n_attached == 0
        assert all(u.state is ConnectionState.IDLE for u in ues)
