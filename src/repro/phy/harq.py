"""Hybrid-ARQ model: block error rates and chase-combining retransmissions.

The paper highlights HARQ as one of the three LTE PHY features that enable
long range (Table 1, Section 3.1): "25% of packets sent from distances
larger than 500 m use hybrid ARQ".  This module provides

* a block-error-rate curve per CQI, anchored so each CQI meets its 10% BLER
  target exactly at its switching threshold;
* closed-form chase-combining helpers (each retransmission adds SINR in
  the linear domain): :func:`harq_goodput_scale`, the effective-goodput
  multiplier the system simulators apply, and its two factors
  :func:`delivery_probability` and :func:`expected_attempts`, which the
  tests keep as its oracle;
* :func:`harq_goodput_scale_array`, the goodput multiplier over whole
  arrays of (SINR, CQI) pairs, bit-identical to the scalar
  :func:`harq_goodput_scale` per element.  The epoch engine evaluates
  every recomputed link of a block chunk in one call.  Basic IEEE
  operations run as NumPy ufuncs, which round exactly like Python
  floats.  The libm calls do not: NumPy's SIMD ``power``, ``exp`` and
  ``log10`` may differ from libm in the last ulp.  So ``pow`` and
  ``exp`` go through scalar maps, and ``log10`` through the probed
  :data:`repro.phy.vecmath.vec_log10`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.obs import runtime as _obs_runtime
from repro.phy.mcs import CQI_OUT_OF_RANGE, LTE_CQI_TABLE, entry_for_cqi
from repro.phy.vecmath import vec_log10, vec_pow10
from repro.utils.dbmath import db_to_linear, linear_to_db

#: LTE allows up to 3 HARQ retransmissions (4 transmissions total).
MAX_TRANSMISSIONS = 4

#: Target BLER at the CQI switching threshold (link adaptation operating point).
TARGET_BLER = 0.1

#: Logistic slope of the BLER waterfall, per dB.  Turbo-coded LTE blocks have
#: steep waterfalls; ~1.5 dB from 90% to 10% BLER.
_BLER_SLOPE_PER_DB = 1.6


#: Offset such that ``bler(threshold) == TARGET_BLER``; a constant, so it
#: is evaluated once here instead of once per BLER.
_BLER_OFFSET_DB = math.log(1.0 / TARGET_BLER - 1.0) / _BLER_SLOPE_PER_DB


def block_error_rate(sinr_db: float, cqi: int) -> float:
    """BLER of one transmission at ``sinr_db`` using the MCS of ``cqi``.

    Anchored to ``TARGET_BLER`` at the CQI's switching threshold, with a
    logistic waterfall.  CQI 0 means nothing can be transmitted: BLER 1.
    """
    if cqi == CQI_OUT_OF_RANGE:
        return 1.0
    return _waterfall(sinr_db, entry_for_cqi(cqi).min_sinr_db)


def _waterfall(sinr_db: float, threshold: float) -> float:
    """The logistic BLER curve of a CQI whose switching threshold is given."""
    x = _BLER_SLOPE_PER_DB * (sinr_db - threshold - (-_BLER_OFFSET_DB))
    # Guard the exponent to avoid overflow on extreme SINRs.
    if x > 40.0:
        return 0.0
    if x < -40.0:
        return 1.0
    return 1.0 / (1.0 + math.exp(x))


def expected_attempts(sinr_db: float, cqi: int) -> float:
    """Expected number of transmissions per block under chase combining."""
    if cqi == CQI_OUT_OF_RANGE:
        return float(MAX_TRANSMISSIONS)
    sinr_linear = db_to_linear(sinr_db)
    expected = 0.0
    p_all_failed = 1.0
    for attempt in range(1, MAX_TRANSMISSIONS + 1):
        combined_db = linear_to_db(sinr_linear * attempt)
        p_fail = block_error_rate(combined_db, cqi)
        p_success_now = p_all_failed * (1.0 - p_fail)
        expected += attempt * p_success_now
        p_all_failed *= p_fail
    expected += MAX_TRANSMISSIONS * p_all_failed
    return expected


def delivery_probability(sinr_db: float, cqi: int) -> float:
    """Probability a block is decoded within the HARQ budget."""
    if cqi == CQI_OUT_OF_RANGE:
        return 0.0
    sinr_linear = db_to_linear(sinr_db)
    p_all_failed = 1.0
    for attempt in range(1, MAX_TRANSMISSIONS + 1):
        combined_db = linear_to_db(sinr_linear * attempt)
        p_all_failed *= block_error_rate(combined_db, cqi)
    return 1.0 - p_all_failed


#: Switching threshold per CQI; index ``cqi - 1``.
_CQI_THRESHOLDS_DB = np.array([entry.min_sinr_db for entry in LTE_CQI_TABLE])

#: Bucket edges of the ``harq.expected_attempts`` histogram.
_ATTEMPT_EDGES = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)


def harq_goodput_scale(sinr_db: float, cqi: int) -> float:
    """Goodput multiplier capturing HARQ cost and benefit.

    Effective goodput = nominal rate x delivered fraction / mean attempts.
    This is what the system-level LTE simulator multiplies into per-CQI
    rates instead of simulating every block.

    Equal bit for bit to ``delivery_probability / expected_attempts``: the
    four per-attempt BLERs are evaluated once and feed both running
    products with the same operations, in the same order, as the two
    separate functions perform them.
    """
    if cqi == CQI_OUT_OF_RANGE:
        return 0.0
    threshold = entry_for_cqi(cqi).min_sinr_db
    sinr_linear = db_to_linear(sinr_db)
    expected = 0.0
    p_all_failed = 1.0
    for attempt in range(1, MAX_TRANSMISSIONS + 1):
        p_fail = _waterfall(linear_to_db(sinr_linear * attempt), threshold)
        expected += attempt * (p_all_failed * (1.0 - p_fail))
        p_all_failed *= p_fail
    attempts = expected + MAX_TRANSMISSIONS * p_all_failed
    tel = _obs_runtime.active()
    if tel is not None:
        tel.inc("harq.evaluations")
        tel.observe("harq.expected_attempts", attempts, edges=_ATTEMPT_EDGES)
    return (1.0 - p_all_failed) / attempts


def _waterfall_array(sinr_db: np.ndarray, threshold: np.ndarray) -> np.ndarray:
    """:func:`_waterfall` per element: the same operations and guards.

    ``exp`` runs only inside the guards, through ``math.exp``; NaN falls
    through both guards to the logistic, as in the scalar form.
    """
    x = _BLER_SLOPE_PER_DB * (sinr_db - threshold - (-_BLER_OFFSET_DB))
    above = x > 40.0
    p_fail = np.where(above, 0.0, 1.0)
    inside = ~(above | (x < -40.0))
    logistic = x[inside].tolist()
    p_fail[inside] = 1.0 / (
        1.0 + np.fromiter(map(math.exp, logistic), np.float64, len(logistic))
    )
    return p_fail


def harq_goodput_scale_array(sinr_db: np.ndarray, cqi: np.ndarray) -> np.ndarray:
    """:func:`harq_goodput_scale` elementwise, bit for bit.

    Every element goes through the same IEEE operations, in the same
    order, as the scalar function: ``pow`` and ``log10`` through the
    probed :data:`vec_pow10` and :data:`vec_log10`, ``exp`` as a scalar
    libm map.  CQI 0 scales to ``0.0`` without an evaluation; any other
    CQI outside 1..15, or a linear SINR that underflows to zero, raises
    ``ValueError`` as the scalar function does.  With telemetry on, each
    evaluated pair counts one ``harq.evaluations`` and one
    ``harq.expected_attempts`` observation, in array order.
    """
    sinr_db = np.asarray(sinr_db, dtype=np.float64)
    cqi = np.asarray(cqi, dtype=np.intp)
    out = np.zeros(sinr_db.shape)
    live = cqi != CQI_OUT_OF_RANGE
    if not live.any():
        return out
    cqi_live = cqi[live]
    bad = (cqi_live < 1) | (cqi_live > len(LTE_CQI_TABLE))
    if bad.any():
        raise ValueError(f"CQI must be in 1..15, got {int(cqi_live[bad][0])!r}")
    threshold = _CQI_THRESHOLDS_DB[cqi_live - 1]
    sinr_linear = vec_pow10(sinr_db[live] / 10.0)
    expected = np.zeros(sinr_linear.size)
    p_all_failed = np.ones(sinr_linear.size)
    for attempt in range(1, MAX_TRANSMISSIONS + 1):
        combined = sinr_linear * attempt
        dead = combined <= 0.0
        if dead.any():
            raise ValueError(f"power ratio must be > 0, got {float(combined[dead][0])!r}")
        p_fail = _waterfall_array(10.0 * vec_log10(combined), threshold)
        expected += attempt * (p_all_failed * (1.0 - p_fail))
        p_all_failed *= p_fail
    attempts = expected + MAX_TRANSMISSIONS * p_all_failed
    tel = _obs_runtime.active()
    if tel is not None:
        tel.inc("harq.evaluations", sinr_linear.size)
        for value in attempts.tolist():
            tel.observe("harq.expected_attempts", value, edges=_ATTEMPT_EDGES)
    out[live] = (1.0 - p_all_failed) / attempts
    return out

