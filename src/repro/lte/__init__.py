"""LTE stack: a system-level simulator of eNodeBs, UEs and scheduling.

This package rebuilds the LTE substrate the paper's testbed (IP Access E40
small cells + Qualcomm UEs) and ns-3 simulations provided:

* :mod:`repro.lte.cqi` -- CQI measurement and reporting, including the
  higher-layer-configured aperiodic mode 3-0 subband reports CellFi relies
  on (paper Section 5.1).
* :mod:`repro.lte.ue` -- user equipment: the attach/detach state machine.
* :mod:`repro.lte.enb` -- the eNodeB: radio on/off, SIB broadcast and
  admission, the lifecycle channel selection drives (Figure 6).
* :mod:`repro.lte.scheduler` -- the proportional-fair scheduler and its
  lockstep kernel over each AP's allowed subchannel set.
* :mod:`repro.lte.rrc` -- EARFCN arithmetic, SIB messages, cell-search and
  reboot timing models (Figure 6).
* :mod:`repro.lte.network` -- the epoch-driven system simulator gluing
  topology, PHY and MAC together, with a pluggable interference manager.
  Its one data plane: the manager's ``decide`` returns each AP's allowed
  subchannels, ``run_epoch`` turns them into the grant mask, and
  ``ProportionalFairScheduler.allocate_dense`` schedules within it.
"""

from repro.lte.cqi import CqiReport, CqiReportingConfig, SubbandCqiReporter
from repro.lte.enb import EnodeB
from repro.lte.rrc import SibMessage, earfcn_from_frequency, frequency_from_earfcn
from repro.lte.scheduler import Allocation, ProportionalFairScheduler
from repro.lte.ue import ConnectionState, UserEquipment

__all__ = [
    "Allocation",
    "ConnectionState",
    "CqiReport",
    "CqiReportingConfig",
    "EnodeB",
    "ProportionalFairScheduler",
    "SibMessage",
    "SubbandCqiReporter",
    "UserEquipment",
    "earfcn_from_frequency",
    "frequency_from_earfcn",
]
