"""User equipment: the attach/detach connection state machine.

A property of LTE the channel-selection design leans on (paper Section 4.2):
"An LTE client has to get a grant for each uplink transmission from its
access point.  Thus, once an access point looses a spectrum lease and stops
transmitting, all of its clients will stop transmitting instantly."
Here that is :meth:`repro.lte.enb.EnodeB.stop_radio`: it detaches every
client, and a detached :class:`UserEquipment` is ``IDLE`` with no serving
cell until a new cell search completes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.lte.rrc import SibMessage


class ConnectionState(enum.Enum):
    """RRC-level connection state of a client."""

    IDLE = "idle"
    SEARCHING = "searching"
    CONNECTED = "connected"


@dataclass
class UserEquipment:
    """One LTE client.

    Attributes:
        ue_id: unique client identifier (matches the topology client id).
        node: positioned object (``x``/``y`` attributes).
        tx_power_dbm: uplink power; TVWS portable cap is 20 dBm.
    """

    ue_id: int
    node: object
    tx_power_dbm: float = 20.0
    state: ConnectionState = ConnectionState.IDLE
    serving_cell_id: Optional[int] = None
    sib: Optional[SibMessage] = None

    @property
    def x(self) -> float:
        """Client x position (metres)."""
        return self.node.x

    @property
    def y(self) -> float:
        """Client y position (metres)."""
        return self.node.y

    # -- Attach lifecycle ----------------------------------------------------

    def start_cell_search(self) -> None:
        """Begin searching for a cell (after power-on or serving-cell loss)."""
        self.state = ConnectionState.SEARCHING
        self.serving_cell_id = None
        self.sib = None

    def attach(self, cell_id: int, sib: SibMessage) -> None:
        """Complete attachment to a cell found during search.

        The SIB fixes the uplink frequency and power cap; the UE clamps its
        transmit power to the announced (database-derived) limit.

        Raises:
            ValueError: if attaching from the CONNECTED state (must detach
                first) -- catching accidental double-attach bugs.
        """
        if self.state is ConnectionState.CONNECTED:
            raise ValueError(f"UE {self.ue_id} is already attached")
        self.state = ConnectionState.CONNECTED
        self.serving_cell_id = cell_id
        self.sib = sib
        self.tx_power_dbm = min(self.tx_power_dbm, sib.max_ue_power_dbm)

    def detach(self) -> None:
        """Lose the serving cell (radio off, lease lost, out of coverage)."""
        self.state = ConnectionState.IDLE
        self.serving_cell_id = None
        self.sib = None

    # -- Checkpointing --------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Mutable connection state (identity/topology come from config)."""
        return {
            "tx_power_dbm": self.tx_power_dbm,
            "state": self.state.value,
            "serving_cell_id": self.serving_cell_id,
            "sib": self.sib,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        self.tx_power_dbm = state["tx_power_dbm"]
        self.state = ConnectionState(state["state"])
        self.serving_cell_id = state["serving_cell_id"]
        self.sib = state["sib"]
