"""CellFi core: the paper's primary contribution.

Two software components extend a standard LTE access point (paper Figure 3):

* :mod:`repro.core.channel_selection` -- maintains spectrum-database leases
  over PAWS, picks the best available TV channel (network listen, preferring
  idle channels, then channels used by other CellFi cells), and vacates
  within the ETSI 60-second deadline when a channel is withdrawn.
* :mod:`repro.core.interference` -- the fully decentralized intra-channel
  interference management algorithm: distributed share calculation from
  the PRACH contention estimate (``share``), randomized subchannel hopping
  driven by CQI-drop interference detection, with exponential
  buckets and the channel re-use packing heuristic (``hopping``), the
  epoch-driven manager gluing it into the LTE simulator (``manager``) and
  the abstract convergence model behind Theorem 1 (``theory``).
* :mod:`repro.core.cellfi` -- :class:`CellFiAccessPoint`, the orchestration
  object a deployment would run: one eNodeB + channel selection +
  interference management.
"""

from repro.core.cellfi import CellFiAccessPoint
from repro.core.channel_selection import ChannelSelector, OccupancyProbe
from repro.core.interference.hopping import SubchannelHopper
from repro.core.interference.manager import CellFiInterferenceManager
from repro.core.interference.share import compute_share
from repro.core.interference.theory import HoppingGame, theorem1_round_bound

__all__ = [
    "CellFiAccessPoint",
    "CellFiInterferenceManager",
    "ChannelSelector",
    "HoppingGame",
    "OccupancyProbe",
    "SubchannelHopper",
    "compute_share",
    "theorem1_round_bound",
]
