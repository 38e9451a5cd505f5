"""CQI measurement and reporting.

CellFi "configures its clients to send higher layer-configured aperiodic
mode 3-0, sub-band CQI reports every 2 msec" and "tracks the maximum
reported CQI for each client and each subchannel over a period of time"
(paper Section 5.1).  This module implements:

* :class:`CqiReportingConfig` -- reporting mode, period and payload size
  (used for the Section 6.3.4 signalling-overhead accounting);
* :class:`CqiReport` -- one wideband + per-subband report;
* :class:`SubbandCqiReporter` -- generates noisy reports from true SINRs and
  implements the paper's max-tracking interference detector primitive
  (the Figure 8 reproduction; the epoch simulator injects its measured
  80% / 2% rates instead, see :mod:`repro.lte.network`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.obs import runtime as _obs_runtime
from repro.phy.mcs import cqi_from_sinr

#: Bits for the wideband CQI field (TS 36.213).
WIDEBAND_CQI_BITS = 4

#: Bits per subband in a mode 3-0 report (2-bit differential CQI).
SUBBAND_CQI_BITS = 2


@dataclass(frozen=True)
class CqiReportingConfig:
    """Configuration of aperiodic CQI reporting.

    Attributes:
        mode: reporting mode string; CellFi uses "3-0" (higher-layer
            configured subband reports).
        period_s: reporting interval (paper: every 2 ms).
        n_subbands: number of subbands covered per report (13 on 5 MHz).
    """

    mode: str = "3-0"
    period_s: float = 2e-3
    n_subbands: int = 13

    @property
    def payload_bits(self) -> int:
        """Report payload: one wideband CQI + one differential CQI/subband.

        Note: the paper quotes "20 bits per report" for a 5 MHz mode 3-0
        report; a strict field count (4 + 13 x 2) gives 30 bits.  We expose
        the strict count and let the overhead benchmark report both.
        """
        return WIDEBAND_CQI_BITS + self.n_subbands * SUBBAND_CQI_BITS

    @property
    def uplink_overhead_bps(self) -> float:
        """Uplink signalling rate consumed by CQI reporting."""
        return self.payload_bits / self.period_s


@dataclass(frozen=True)
class CqiReport:
    """One CQI report from a client.

    Attributes:
        wideband_cqi: CQI over the whole carrier.
        subband_cqi: per-subchannel CQI values (index = subchannel).
        time: report timestamp in seconds.
    """

    wideband_cqi: int
    subband_cqi: Sequence[int]
    time: float = 0.0

    def cqi_for(self, subchannel: int) -> int:
        """CQI of one subchannel."""
        return self.subband_cqi[subchannel]


def measure_report(
    subband_sinrs_db: Sequence[float],
    time: float = 0.0,
    measurement_noise_db: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> CqiReport:
    """Quantise per-subband SINRs into a :class:`CqiReport`.

    Args:
        subband_sinrs_db: true SINR per subchannel.
        time: report timestamp.
        measurement_noise_db: std-dev of Gaussian estimation noise added to
            each subband SINR before quantisation (models the fluctuating
            reports seen in the paper's Figure 8 trace).
        rng: required when ``measurement_noise_db > 0``.
    """
    if measurement_noise_db > 0.0 and rng is None:
        raise ValueError("measurement noise requires an rng")
    noisy = list(subband_sinrs_db)
    if measurement_noise_db > 0.0:
        noise = rng.normal(0.0, measurement_noise_db, size=len(noisy))
        noisy = [s + n for s, n in zip(noisy, noise)]
    tel = _obs_runtime.active()
    if tel is not None:
        tel.inc("cqi.reports")
    subband_cqi = [cqi_from_sinr(s) for s in noisy]
    # Wideband CQI reflects average link quality in the linear domain.
    mean_sinr = 10.0 * np.log10(np.mean(np.power(10.0, np.asarray(noisy) / 10.0)))
    return CqiReport(
        wideband_cqi=cqi_from_sinr(float(mean_sinr)),
        subband_cqi=subband_cqi,
        time=time,
    )


class SubbandCqiReporter:
    """Tracks per-subchannel CQI history for one client at its AP.

    Implements the primitive behind the paper's interference estimator:
    "we consider the maximum CQI observed within a time window as an
    estimate of CQI for a channel without interference.  We declare that
    interference is present if we observe a CQI report below 60% of this
    maximum value over a window of 10 consecutive samples."

    Args:
        n_subbands: subchannel count of the carrier.
        max_window: number of recent reports over which the
            interference-free maximum is tracked.
        drop_fraction: "below 60% of max" -> 0.6.
        consecutive_required: consecutive low samples before declaring
            interference (paper: 10 samples at 2 ms).
    """

    def __init__(
        self,
        n_subbands: int,
        max_window: int = 500,
        drop_fraction: float = 0.6,
        consecutive_required: int = 10,
    ) -> None:
        if not 0.0 < drop_fraction < 1.0:
            raise ValueError(f"drop fraction must be in (0,1), got {drop_fraction!r}")
        if consecutive_required < 1:
            raise ValueError("need at least one consecutive sample")
        self.n_subbands = n_subbands
        self.max_window = max_window
        self.drop_fraction = drop_fraction
        self.consecutive_required = consecutive_required
        self._history: List[CqiReport] = []
        self._low_streak: Dict[int, int] = {k: 0 for k in range(n_subbands)}
        self._max_cqi: Dict[int, int] = {k: 0 for k in range(n_subbands)}

    def ingest(self, report: CqiReport) -> None:
        """Fold a new report into the tracked state.

        Raises:
            ValueError: if the report's subband count mismatches.
        """
        if len(report.subband_cqi) != self.n_subbands:
            raise ValueError(
                f"report has {len(report.subband_cqi)} subbands, expected {self.n_subbands}"
            )
        self._history.append(report)
        if len(self._history) > self.max_window:
            self._history.pop(0)
        tel = _obs_runtime.active()
        if tel is not None:
            tel.inc("cqi.reports_ingested")
        for k in range(self.n_subbands):
            cqi = report.subband_cqi[k]
            self._max_cqi[k] = max(
                (r.subband_cqi[k] for r in self._history), default=0
            )
            threshold = self.drop_fraction * self._max_cqi[k]
            if self._max_cqi[k] > 0 and cqi < threshold:
                self._low_streak[k] += 1
                if (
                    tel is not None
                    and self._low_streak[k] == self.consecutive_required
                ):
                    tel.inc("cqi.drop_detections")
                    tel.event(
                        "cqi.drop_detected",
                        cat="cqi",
                        t=report.time,
                        args={"subchannel": k, "max_cqi": self._max_cqi[k]},
                    )
            else:
                self._low_streak[k] = 0

    def interference_detected(self, subchannel: int) -> bool:
        """The paper's detector decision for one subchannel."""
        return self._low_streak[subchannel] >= self.consecutive_required

    def max_cqi(self, subchannel: int) -> int:
        """Best CQI seen recently -- the interference-free estimate."""
        return self._max_cqi[subchannel]

    def latest(self) -> Optional[CqiReport]:
        """Most recent report, or ``None``."""
        return self._history[-1] if self._history else None
