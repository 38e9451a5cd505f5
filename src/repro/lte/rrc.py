"""RRC-level plumbing: EARFCN arithmetic, SIB messages, timing models.

Paper Section 4.2: "Once a channel is selected, the LTE access point sets
the centre frequency (EARFCN) for downlink transmission and announces the
uplink frequency in the LTE SIB control message, both in granularity of
100 kHz."  Section 6.2 measures the reacquisition path: an AP reboot of
1 min 36 s after radio parameter changes and a 56 s client cell search.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.checkpoint import register_dataclass

#: EARFCN granularity (3GPP 36.101): 100 kHz channel raster.
EARFCN_RASTER_HZ = 100_000.0

#: Offset anchoring our synthetic TVWS band at EARFCN 0 = 470 MHz, mirroring
#: how 3GPP band tables map EARFCN ranges onto band edges.
TVWS_BAND_BASE_HZ = 470e6

#: Measured AP reboot time after a radio parameter change (Figure 6).
AP_REBOOT_S = 96.0

#: Measured client cell-search + reattach time across multiple LTE bands
#: (Figure 6: "it takes another 56 s for a client to connect").
CELL_SEARCH_S = 56.0


def earfcn_from_frequency(frequency_hz: float) -> int:
    """Map a carrier centre frequency onto the 100 kHz EARFCN raster.

    Raises:
        ValueError: if the frequency is below the band base or off-raster
            by more than half a raster step (the AP must pick a centre
            frequency the raster can express).
    """
    if frequency_hz < TVWS_BAND_BASE_HZ:
        raise ValueError(
            f"frequency {frequency_hz / 1e6:.1f} MHz below TVWS band base "
            f"{TVWS_BAND_BASE_HZ / 1e6:.0f} MHz"
        )
    steps = (frequency_hz - TVWS_BAND_BASE_HZ) / EARFCN_RASTER_HZ
    earfcn = round(steps)
    if abs(steps - earfcn) > 1e-6:
        raise ValueError(
            f"frequency {frequency_hz} Hz is not on the 100 kHz raster"
        )
    return int(earfcn)


def frequency_from_earfcn(earfcn: int) -> float:
    """Inverse of :func:`earfcn_from_frequency`."""
    if earfcn < 0:
        raise ValueError(f"EARFCN must be >= 0, got {earfcn!r}")
    return TVWS_BAND_BASE_HZ + earfcn * EARFCN_RASTER_HZ


@dataclass(frozen=True)
class SibMessage:
    """System Information Block contents relevant to CellFi.

    The SIB announces the uplink frequency and the maximum transmit powers
    obtained from the spectrum database, "both in granularity of 100 kHz"
    (Section 4.2).  Clients "are allowed to use only the uplink frequency
    announced in the SIB messages".

    Attributes:
        downlink_earfcn: the cell's downlink centre frequency.
        uplink_earfcn: announced uplink centre frequency (TDD: same).
        max_ue_power_dbm: per-database uplink power cap.
        bandwidth_hz: carrier bandwidth.
        cell_id: physical cell identity.
    """

    downlink_earfcn: int
    uplink_earfcn: int
    max_ue_power_dbm: float
    bandwidth_hz: float
    cell_id: int

    @property
    def downlink_frequency_hz(self) -> float:
        """Downlink centre frequency in Hz."""
        return frequency_from_earfcn(self.downlink_earfcn)

    @property
    def uplink_frequency_hz(self) -> float:
        """Uplink centre frequency in Hz."""
        return frequency_from_earfcn(self.uplink_earfcn)


@dataclass
class ReacquisitionTiming:
    """Timing model of the Figure 6 vacate/reacquire cycle.

    Attributes:
        radio_off_latency_s: time from DB withdrawal detection to RF off
            (dominated by the DB polling interval; the paper observed 2 s).
        ap_reboot_s: AP reboot after radio parameter changes.
        cell_search_s: client search across LTE bands before reattach.
    """

    radio_off_latency_s: float = 2.0
    ap_reboot_s: float = AP_REBOOT_S
    cell_search_s: float = CELL_SEARCH_S

    def time_to_vacate(self) -> float:
        """Seconds from channel loss to clients silent (must be < 60)."""
        return self.radio_off_latency_s

    def time_to_resume(self) -> float:
        """Seconds from channel restoration to client traffic flowing."""
        return self.ap_reboot_s + self.cell_search_s


# SIBs appear in eNodeB/UE checkpoint state; the timing model appears in
# driver configs embedded in snapshot metadata.
register_dataclass(SibMessage)
register_dataclass(ReacquisitionTiming)
