"""The eNodeB: cell state, SIB broadcast and admission.

The CellFi access point is a standard LTE small cell plus two software
components (channel selection and interference management) that talk to it
through standard interfaces (paper Figure 3).  :class:`EnodeB` models the
radio/attach lifecycle of the standard-LTE half that channel selection
drives: radio on/off, carrier configuration and attached clients.  The
data plane (scheduling within the interference manager's allowed
subchannels) is the system simulator's, :mod:`repro.lte.network`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.lte.rrc import SibMessage, earfcn_from_frequency
from repro.lte.ue import UserEquipment
from repro.phy.resource_grid import ResourceGrid


class RadioOffError(RuntimeError):
    """Raised when an operation requires the radio to be transmitting."""


@dataclass
class EnodeB:
    """One LTE cell.

    Attributes:
        cell_id: physical cell identity.
        node: positioned object (``x``/``y``).
        grid: the carrier's resource grid (set when the radio starts).
        tx_power_dbm: conducted power (paper small cell: 23-30 dBm).
    """

    cell_id: int
    node: object
    tx_power_dbm: float = 30.0
    grid: Optional[ResourceGrid] = None
    sib: Optional[SibMessage] = None
    radio_on: bool = False
    attached: Dict[int, UserEquipment] = field(default_factory=dict)

    @property
    def x(self) -> float:
        """Cell x position (metres)."""
        return self.node.x

    @property
    def y(self) -> float:
        """Cell y position (metres)."""
        return self.node.y

    # -- Radio / carrier lifecycle -------------------------------------------

    def start_radio(
        self,
        center_frequency_hz: float,
        grid: ResourceGrid,
        max_ue_power_dbm: float = 20.0,
    ) -> SibMessage:
        """Bring the carrier up and start broadcasting the SIB.

        Returns the SIB now on air.  TDD uses one channel for both
        directions, so the uplink EARFCN equals the downlink EARFCN.
        """
        earfcn = earfcn_from_frequency(center_frequency_hz)
        self.grid = grid
        self.sib = SibMessage(
            downlink_earfcn=earfcn,
            uplink_earfcn=earfcn,
            max_ue_power_dbm=max_ue_power_dbm,
            bandwidth_hz=grid.bandwidth_hz,
            cell_id=self.cell_id,
        )
        self.radio_on = True
        return self.sib

    def stop_radio(self) -> None:
        """Silence the carrier; every attached client detaches instantly.

        This is the channel-vacate path: LTE uplink is grant-based, so
        clients without a serving cell cannot transmit (paper Section 4.2).
        """
        self.radio_on = False
        for ue in list(self.attached.values()):
            ue.detach()
        self.attached.clear()
        self.sib = None

    # -- Admission ----------------------------------------------------------------

    def admit(self, ue: UserEquipment) -> None:
        """Complete attach for a client that found this cell.

        Raises:
            RadioOffError: when the radio is not transmitting.
        """
        if not self.radio_on or self.sib is None:
            raise RadioOffError(f"cell {self.cell_id} radio is off")
        ue.attach(self.cell_id, self.sib)
        self.attached[ue.ue_id] = ue

    @property
    def n_attached(self) -> int:
        """Number of connected clients."""
        return len(self.attached)

    # -- Checkpointing -------------------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Cell state; attached clients are stored by id and re-linked on load."""
        return {
            "cell_id": self.cell_id,
            "radio_on": self.radio_on,
            "sib": self.sib,
            "grid_bandwidth_hz": None if self.grid is None else self.grid.bandwidth_hz,
            "attached_ids": sorted(self.attached),
        }

    def load_state(
        self,
        state: Dict[str, Any],
        ues: Optional[Dict[int, UserEquipment]] = None,
    ) -> None:
        """Restore cell state; ``ues`` maps client ids to live UE objects."""
        self.cell_id = state["cell_id"]
        self.radio_on = state["radio_on"]
        self.sib = state["sib"]
        bandwidth = state["grid_bandwidth_hz"]
        self.grid = None if bandwidth is None else ResourceGrid(bandwidth)
        self.attached = {}
        if ues is not None:
            for ue_id in state["attached_ids"]:
                self.attached[ue_id] = ues[ue_id]
