"""CellFiAccessPoint: the full per-AP orchestration (paper Figure 3).

Ties together the unmodified LTE small-cell stack (:class:`repro.lte.enb.
EnodeB`), the channel-selection component and the reacquisition timing of
the paper's testbed: a radio-parameter change costs an AP reboot (1 min
36 s measured) and clients need a cell search (56 s measured) before
traffic resumes.  Clients stop transmitting the instant the radio stops
because LTE uplink is grant-based -- no explicit signalling needed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.channel_selection import ChannelSelector, OccupancyProbe
from repro.lte.enb import EnodeB
from repro.lte.rrc import ReacquisitionTiming
from repro.lte.ue import UserEquipment
from repro.phy.resource_grid import ResourceGrid
from repro.sim.checkpoint import BoundCall
from repro.sim.engine import Event, Simulator
from repro.tvws.paws import DeviceDescriptor, GeoLocation, PawsServer, SpectrumSpec
from repro.tvws.regulatory import EtsiComplianceRules
from repro.tvws.transport import RetryPolicy, RobustnessLog


@dataclass
class _Position:
    x: float
    y: float


class CellFiAccessPoint:
    """One deployable CellFi access point.

    Args:
        sim: the discrete-event simulator.
        paws: spectrum database frontend.
        x, y: GPS position (the mandatory GPS of the CellFi AP).
        carrier_bandwidth_hz: LTE carrier to fit into a TV channel.
        serial: PAWS device serial.
        timing: reacquisition latencies (reboot, cell search).
        compliance: optional ETSI monitor.
        probe: network-listen classifier for channel preference.
        transport: optional primary wire to the database (e.g. a
            :class:`~repro.tvws.transport.FaultyTransport` over
            ``paws``); defaults to the reliable in-process call.
        secondary: optional failover database endpoint (a second
            :class:`PawsServer` or any transport); the selector switches
            to it when the primary exhausts its retries.
        retry: PAWS timeout/retry/backoff policy.
        robustness: shared structured robustness log (faults, retries,
            grace transitions, failovers, forced vacates).
        rng: seeded jitter source for retry backoff.
    """

    def __init__(
        self,
        sim: Simulator,
        paws: PawsServer,
        x: float,
        y: float,
        carrier_bandwidth_hz: float = 5e6,
        serial: str = "cellfi-ap-0",
        timing: Optional[ReacquisitionTiming] = None,
        compliance: Optional[EtsiComplianceRules] = None,
        probe: Optional[OccupancyProbe] = None,
        transport=None,
        secondary=None,
        retry: Optional[RetryPolicy] = None,
        robustness: Optional[RobustnessLog] = None,
        rng=None,
    ) -> None:
        self.sim = sim
        self.carrier_bandwidth_hz = carrier_bandwidth_hz
        self.timing = timing or ReacquisitionTiming()
        self.compliance = compliance
        # PCI derived from the serial with a stable hash: ``hash(str)`` is
        # randomized per process, which would break cross-process
        # checkpoint digests.
        pci = int.from_bytes(
            hashlib.sha256(serial.encode()).digest()[:4], "little"
        ) % 504
        self.enb = EnodeB(cell_id=pci, node=_Position(x, y))
        self.device = DeviceDescriptor(serial_number=serial, device_type="A")
        self.selector = ChannelSelector(
            sim=sim,
            paws=transport if transport is not None else paws,
            device=self.device,
            location=GeoLocation(x=x, y=y),
            probe=probe or OccupancyProbe(),
            radio_start=self._on_channel_granted,
            radio_stop=self._on_channel_lost,
            compliance=compliance,
            secondary=secondary,
            retry=retry,
            robustness=robustness,
            rng=rng,
        )
        #: The selector's structured robustness log (grace, retries, ...).
        self.robustness = self.selector.robustness
        self.clients: List[UserEquipment] = []
        self._pending_start: Optional[Event] = None
        # Event seq stashed by load_state until link_events re-binds it.
        self._pending_start_seq: Optional[int] = None
        self._ever_started = False
        #: (time, event) pairs for timeline reconstruction.
        self.timeline: List[Tuple[float, str]] = []

    # -- Deployment API ---------------------------------------------------------

    def start(self) -> None:
        """Power the AP on: begin database interaction."""
        self._log("ap-power-on")
        self.selector.start()

    def register_client(self, ue: UserEquipment) -> None:
        """A client within coverage that will camp on this cell."""
        self.clients.append(ue)
        if self.enb.radio_on:
            self._schedule_attach(ue)

    @property
    def radio_on(self) -> bool:
        """Whether the carrier is currently transmitting."""
        return self.enb.radio_on

    @property
    def connected_clients(self) -> int:
        """Clients currently attached."""
        return self.enb.n_attached

    # -- Channel-selection callbacks ------------------------------------------------

    def _on_channel_granted(self, channel: int, spec: SpectrumSpec) -> None:
        """Bring the radio up after the (re)configuration reboot."""
        delay = self.timing.ap_reboot_s
        self._log(f"reboot-begin channel={channel}")
        if self._pending_start is not None:
            self._pending_start.cancel()
        self._pending_start = self.sim.schedule(
            delay, BoundCall(self, "_radio_up", spec)
        )

    def _radio_up(self, spec: SpectrumSpec) -> None:
        """Reboot finished: configure the carrier and start transmitting."""
        self._pending_start = None
        grid = ResourceGrid(self.carrier_bandwidth_hz)
        center = (spec.low_hz + spec.high_hz) / 2.0
        # Snap to the 100 kHz EARFCN raster.
        center = round(center / 1e5) * 1e5
        self.enb.start_radio(center, grid, max_ue_power_dbm=20.0)
        self._ever_started = True
        if self.compliance is not None:
            self.compliance.transmission_started(
                self.device.serial_number,
                self.sim.now,
                eirp_dbm=min(spec.max_eirp_dbm, 36.0),
                max_eirp_dbm=spec.max_eirp_dbm,
            )
        self._log("radio-on")
        for ue in self.clients:
            self._schedule_attach(ue)

    def _on_channel_lost(self) -> None:
        """Silence the carrier immediately; clients stop instantly."""
        if self._pending_start is not None:
            self._pending_start.cancel()
            self._pending_start = None
        if self.enb.radio_on:
            self.enb.stop_radio()
            self._log("radio-off")

    def _schedule_attach(self, ue: UserEquipment) -> None:
        """Model the client cell search before it can reattach."""
        ue.start_cell_search()
        self._log(f"ue-{ue.ue_id}-search")
        self.sim.schedule(
            self.timing.cell_search_s, BoundCall(self, "_attach", ue.ue_id)
        )

    def _attach(self, ue_id: int) -> None:
        """Cell search finished: attach if the carrier is (still) up."""
        ue = next((u for u in self.clients if u.ue_id == ue_id), None)
        if ue is None:
            return
        if self.enb.radio_on and ue.serving_cell_id is None:
            self.enb.admit(ue)
            self._log(f"ue-{ue.ue_id}-connected")

    def _log(self, event: str) -> None:
        self.timeline.append((self.sim.now, event))

    # -- Checkpointing ----------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """AP-side state: reboot timer, timeline, cell and client state.

        The channel selector is its own checkpointable subsystem and is
        intentionally not nested here.
        """
        pending_seq = None
        if self._pending_start is not None and not self._pending_start.cancelled:
            pending_seq = self._pending_start.seq
        return {
            "ever_started": self._ever_started,
            "pending_start_seq": pending_seq,
            "timeline": [list(entry) for entry in self.timeline],
            "enb": self.enb.state_dict(),
            "clients": {ue.ue_id: ue.state_dict() for ue in self.clients},
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        self._ever_started = state["ever_started"]
        self._pending_start = None
        self._pending_start_seq = state["pending_start_seq"]
        self.timeline = [tuple(entry) for entry in state["timeline"]]
        ues = {ue.ue_id: ue for ue in self.clients}
        for ue_id, ue_state in state["clients"].items():
            ues[ue_id].load_state(ue_state)
        self.enb.load_state(state["enb"], ues=ues)

    def link_events(self, lookup: Dict[int, Event]) -> None:
        """Re-bind the pending reboot timer to the restored event heap."""
        if self._pending_start_seq is not None:
            self._pending_start = lookup[self._pending_start_seq]
        self._pending_start_seq = None
