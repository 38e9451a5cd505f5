"""CellFi's decentralized interference management (paper Sections 4.3, 5).

The algorithm runs in two phases every second, with no communication
between access points:

1. **Distributed share calculation** (:mod:`share`): each AP estimates the
   number of contending clients in its neighbourhood from overheard PRACH
   preambles and reserves ``S_i = N_i * S / NP_i`` subchannels.
2. **Distributed subchannel selection** (:mod:`hopping`): APs converge on
   non-conflicting subchannel sets by randomized hopping -- exponential
   bucket values drain as clients report interference (CQI drops, which
   the simulator's observe pass flags at the measured 80% / 2% rates)
   and an empty bucket triggers a hop to the
   maximum-utility subchannel.  A re-use heuristic packs interference-free
   clients onto low-index subchannels.

:mod:`theory` holds the abstract graph model of Section 5.5 and the
Theorem 1 bound; :mod:`manager` adapts everything to the epoch interface of
:class:`repro.lte.network.LteNetworkSimulator`.
"""

from repro.core.interference.hopping import HopperConfig, SubchannelHopper
from repro.core.interference.manager import CellFiInterferenceManager
from repro.core.interference.share import compute_share
from repro.core.interference.theory import HoppingGame, theorem1_round_bound

__all__ = [
    "CellFiInterferenceManager",
    "HopperConfig",
    "HoppingGame",
    "SubchannelHopper",
    "compute_share",
    "theorem1_round_bound",
]
