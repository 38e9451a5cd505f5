"""Frame durations and MAC timing constants.

Encodes the Table 1 MAC facts: CSMA access with transmissions "up to 4 ms"
(the TXOP limit), plus A-MPDU aggregation with a "maximum possible
aggregated frame size of 65 KB" (Section 6.3.4 simulation settings).

Control-frame durations scale with the channel bandwidth because control
frames go out at the base rate, which is bandwidth-proportional -- one of
the reasons overheads weigh heavier on a 6 MHz TVWS channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.wifi.rates import BASE_MCS, data_rate_bps

#: Maximum A-MPDU aggregate the paper simulates (bytes).
MAX_AMPDU_BYTES = 65_000

#: TXOP limit -- Table 1: 802.11 transmissions last "up to 4 ms".
TXOP_LIMIT_S = 4e-3

#: Frame body sizes in bytes (802.11-2016).
RTS_BYTES = 20
CTS_BYTES = 14
ACK_BYTES = 14  # Block-ack is larger but still preamble-dominated.


@dataclass(frozen=True)
class FrameTimings:
    """MAC/PHY timing parameters for one channel configuration.

    Attributes:
        bandwidth_hz: channel width (6 MHz for 802.11af, 20 MHz for ac).
        slot_s: backoff slot duration.
        sifs_s: short interframe space.
        preamble_s: PHY preamble + header duration.
        cw_min / cw_max: contention-window bounds (DCF: 15 / 1023).

    The fields are frozen, so the derived airtimes below are computed on
    first read and cached on the instance.
    """

    bandwidth_hz: float
    slot_s: float = 9e-6
    sifs_s: float = 16e-6
    preamble_s: float = 40e-6
    cw_min: int = 15
    cw_max: int = 1023

    @cached_property
    def difs_s(self) -> float:
        """DCF interframe space: SIFS + 2 slots."""
        return self.sifs_s + 2.0 * self.slot_s

    @cached_property
    def base_rate_bps(self) -> float:
        """Control-frame rate: MCS 0 on this bandwidth."""
        return data_rate_bps(BASE_MCS, self.bandwidth_hz)

    def control_frame_s(self, n_bytes: int) -> float:
        """Airtime of a control frame (preamble + body at base rate)."""
        return self.preamble_s + n_bytes * 8.0 / self.base_rate_bps

    @cached_property
    def rts_s(self) -> float:
        """RTS airtime."""
        return self.control_frame_s(RTS_BYTES)

    @cached_property
    def cts_s(self) -> float:
        """CTS airtime."""
        return self.control_frame_s(CTS_BYTES)

    @cached_property
    def ack_s(self) -> float:
        """(Block-)ACK airtime."""
        return self.control_frame_s(ACK_BYTES)

    def aggregate_bytes(self, data_rate: float) -> int:
        """A-MPDU size: fill the TXOP, capped at 65 KB.

        Args:
            data_rate: PHY rate for the data portion, in bit/s.

        Raises:
            ValueError: for a non-positive rate (caller must not transmit
                to an unreachable client).
        """
        if data_rate <= 0.0:
            raise ValueError(f"data rate must be > 0, got {data_rate!r}")
        txop_bytes = int(data_rate * TXOP_LIMIT_S / 8.0)
        return max(1, min(MAX_AMPDU_BYTES, txop_bytes))

    def data_frame_s(self, n_bytes: int, data_rate: float) -> float:
        """Airtime of an aggregated data frame."""
        if data_rate <= 0.0:
            raise ValueError(f"data rate must be > 0, got {data_rate!r}")
        return self.preamble_s + n_bytes * 8.0 / data_rate

    def exchange_overhead_s(self, rts_cts: bool) -> float:
        """Fixed per-TXOP overhead excluding the data frame itself.

        RTS + SIFS + CTS + SIFS (if protected) ... + SIFS + ACK.
        """
        overhead = self.sifs_s + self.ack_s
        if rts_cts:
            overhead += self.rts_s + self.sifs_s + self.cts_s + self.sifs_s
        return overhead
