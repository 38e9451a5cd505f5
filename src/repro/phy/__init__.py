"""Radio substrate shared by the LTE, Wi-Fi and CellFi simulators.

Contents
--------
* :mod:`repro.phy.propagation` -- path-loss models (free space, log-distance,
  urban Hata calibrated to the paper's band-13 drive test) and log-normal
  shadowing.
* :mod:`repro.phy.antenna` -- omni and 120-degree sector antennas.
* :mod:`repro.phy.mcs` -- CQI/MCS tables mapping SINR to coding rate and
  spectral efficiency for both LTE and 802.11.
* :mod:`repro.phy.resource_grid` -- OFDMA resource blocks, subchannels and
  TDD frame structure.
* :mod:`repro.phy.harq` -- closed-form hybrid-ARQ chase-combining goodput
  (BLER curves and the per-link goodput multiplier, scalar and array).
* :mod:`repro.phy.prach` -- Zadoff-Chu PRACH preambles and the paper's
  low-complexity cyclic-shift detector (Section 6.3.3).
"""

from repro.phy.antenna import Antenna, OmniAntenna, SectorAntenna
from repro.phy.mcs import (
    LTE_CQI_TABLE,
    CqiEntry,
    cqi_from_sinr,
    efficiency_from_cqi,
)
from repro.phy.propagation import (
    CompositeChannel,
    FreeSpacePathLoss,
    LogDistancePathLoss,
    LogNormalShadowing,
    PathLossModel,
    UrbanHataPathLoss,
)
from repro.phy.resource_grid import ResourceGrid, TddConfig

__all__ = [
    "Antenna",
    "CompositeChannel",
    "CqiEntry",
    "FreeSpacePathLoss",
    "LTE_CQI_TABLE",
    "LogDistancePathLoss",
    "LogNormalShadowing",
    "OmniAntenna",
    "PathLossModel",
    "ResourceGrid",
    "SectorAntenna",
    "TddConfig",
    "UrbanHataPathLoss",
    "cqi_from_sinr",
    "efficiency_from_cqi",
]
