"""802.11 MCS table and ideal rate adaptation.

802.11af "has the same modulation and coding rates as 802.11ac" (paper
Section 3.1): BPSK through 256-QAM with coding rates from **1/2** up --
there is nothing below rate 1/2, which is the crux of the paper's Table 1
comparison against LTE's rate-0.08 floor.

Rates scale linearly with channel bandwidth (the TVHT PHY of 802.11af is a
down-clocked 802.11ac PHY), so one table serves 6 MHz TVWS channels and
20 MHz Wi-Fi channels alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

#: Reference bandwidth the efficiency figures below are quoted against.
REFERENCE_BANDWIDTH_HZ = 20e6

#: Data subcarrier efficiency of a 20 MHz 802.11ac channel: 52 data
#: subcarriers x 1/4 us symbols -> 13 Msym/s per 20 MHz.
SYMBOL_RATE_PER_HZ = 13e6 / REFERENCE_BANDWIDTH_HZ


@dataclass(frozen=True)
class WifiMcs:
    """One 802.11 modulation-and-coding scheme.

    Attributes:
        index: MCS index 0..9.
        modulation: constellation name.
        bits_per_symbol: log2 of the constellation size.
        code_rate: channel code rate (>= 1/2 -- Wi-Fi has no lower rate).
        min_snr_db: SNR needed for ~10% PER at typical packet sizes.
    """

    index: int
    modulation: str
    bits_per_symbol: int
    code_rate: float
    min_snr_db: float

    @property
    def efficiency(self) -> float:
        """Information bits per subcarrier-symbol."""
        return self.bits_per_symbol * self.code_rate


#: 802.11ac single-stream MCS 0-9 with standard SNR operating points.
WIFI_MCS_TABLE: List[WifiMcs] = [
    WifiMcs(0, "BPSK", 1, 1 / 2, 2.0),
    WifiMcs(1, "QPSK", 2, 1 / 2, 5.0),
    WifiMcs(2, "QPSK", 2, 3 / 4, 9.0),
    WifiMcs(3, "16QAM", 4, 1 / 2, 11.0),
    WifiMcs(4, "16QAM", 4, 3 / 4, 15.0),
    WifiMcs(5, "64QAM", 6, 2 / 3, 18.0),
    WifiMcs(6, "64QAM", 6, 3 / 4, 20.0),
    WifiMcs(7, "64QAM", 6, 5 / 6, 25.0),
    WifiMcs(8, "256QAM", 8, 3 / 4, 29.0),
    WifiMcs(9, "256QAM", 8, 5 / 6, 31.0),
]


def best_mcs(snr_db: float) -> Optional[WifiMcs]:
    """Ideal rate adaptation: the fastest MCS whose SNR requirement is met.

    Returns ``None`` below the MCS-0 threshold: unlike LTE (whose CQI-1
    code rate of 0.08 works at -6.7 dB), Wi-Fi cannot communicate at all.
    This gap is exactly the coverage difference of paper Figure 9(a).
    """
    chosen: Optional[WifiMcs] = None
    for mcs in WIFI_MCS_TABLE:
        if snr_db >= mcs.min_snr_db:
            chosen = mcs
        else:
            break
    return chosen


def data_rate_bps(mcs: WifiMcs, bandwidth_hz: float) -> float:
    """PHY data rate of an MCS on a channel of ``bandwidth_hz``.

    Raises:
        ValueError: for non-positive bandwidth.
    """
    if bandwidth_hz <= 0.0:
        raise ValueError(f"bandwidth must be > 0, got {bandwidth_hz!r}")
    return mcs.efficiency * SYMBOL_RATE_PER_HZ * bandwidth_hz


#: Base (control) rate: MCS 0 -- RTS/CTS/ACK are sent at this rate.
BASE_MCS = WIFI_MCS_TABLE[0]
