"""CQI / MCS tables: mapping SINR to modulation, code rate and efficiency.

The LTE table follows 3GPP TS 36.213 Table 7.2.3-1 (the 15-entry CQI table)
with the SINR switching thresholds commonly used in system-level simulators
(10% BLER operating points).  Two properties of this table drive the paper's
Section 3.1 argument:

* the lowest entries use code rates down to ~0.08 -- far below 802.11af's
  minimum of 1/2 -- which is what lets LTE hold a link at SINR < 0 dB;
* CQI 7 (~QPSK, rate 0.59) sits near 6 dB, so a mid-range drive test
  naturally reports a *median* coding rate around 1/2, as in Figure 1(b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class CqiEntry:
    """One row of the LTE CQI table.

    Attributes:
        cqi: index 1..15.
        modulation: "QPSK", "16QAM" or "64QAM".
        bits_per_symbol: modulation order (2, 4, 6).
        code_rate: effective channel-coding rate in (0, 1).
        efficiency: information bits per resource element (= bits/symbol x rate).
        min_sinr_db: lowest SINR at which this CQI meets the 10% BLER target.
    """

    cqi: int
    modulation: str
    bits_per_symbol: int
    code_rate: float
    efficiency: float
    min_sinr_db: float


def _entry(cqi, modulation, bits, rate_x1024, sinr):
    rate = rate_x1024 / 1024.0
    return CqiEntry(cqi, modulation, bits, rate, bits * rate, sinr)


#: 3GPP TS 36.213 Table 7.2.3-1 with 10%-BLER SINR thresholds.
LTE_CQI_TABLE: List[CqiEntry] = [
    _entry(1, "QPSK", 2, 78, -6.7),
    _entry(2, "QPSK", 2, 120, -4.7),
    _entry(3, "QPSK", 2, 193, -2.3),
    _entry(4, "QPSK", 2, 308, 0.2),
    _entry(5, "QPSK", 2, 449, 2.4),
    _entry(6, "QPSK", 2, 602, 4.3),
    _entry(7, "16QAM", 4, 378, 5.9),
    _entry(8, "16QAM", 4, 490, 8.1),
    _entry(9, "16QAM", 4, 616, 10.3),
    _entry(10, "64QAM", 6, 466, 11.7),
    _entry(11, "64QAM", 6, 567, 14.1),
    _entry(12, "64QAM", 6, 666, 16.3),
    _entry(13, "64QAM", 6, 772, 18.7),
    _entry(14, "64QAM", 6, 873, 21.0),
    _entry(15, "64QAM", 6, 948, 22.7),
]

#: CQI reported when the SINR is below the lowest operating point.
CQI_OUT_OF_RANGE = 0

#: The minimum code rate LTE offers (CQI 1) -- cf. Table 1 "Coding rate >= 0.1".
LTE_MIN_CODE_RATE = LTE_CQI_TABLE[0].code_rate

#: The minimum code rate 802.11af/ac offers -- cf. Table 1 "Coding rate >= 0.5".
WIFI_MIN_CODE_RATE = 0.5


def cqi_from_sinr(sinr_db: float) -> int:
    """Quantise an SINR into a CQI index (0 = out of range, else 1..15)."""
    best = CQI_OUT_OF_RANGE
    for entry in LTE_CQI_TABLE:
        if sinr_db >= entry.min_sinr_db:
            best = entry.cqi
        else:
            break
    return best


def entry_for_cqi(cqi: int) -> CqiEntry:
    """Return the table row for ``cqi``.

    Raises:
        ValueError: if ``cqi`` is not in 1..15 (CQI 0 has no MCS: the link is
            out of range and nothing can be scheduled).
    """
    if not 1 <= cqi <= 15:
        raise ValueError(f"CQI must be in 1..15, got {cqi!r}")
    return LTE_CQI_TABLE[cqi - 1]


def efficiency_from_cqi(cqi: int) -> float:
    """Spectral efficiency (bit per resource element) for a CQI; 0 for CQI 0."""
    if cqi == CQI_OUT_OF_RANGE:
        return 0.0
    return entry_for_cqi(cqi).efficiency
