"""Decibel arithmetic helpers.

Radio computations constantly mix logarithmic (dB, dBm) and linear (ratio,
watt) quantities.  Centralising the conversions avoids the classic
"added dBm values" bug and documents the conventions used repo-wide:

* ``dB``  -- dimensionless power *ratio* on a log scale.
* ``dBm`` -- absolute power referenced to 1 milliwatt.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

#: Thermal noise power spectral density at 290 K, in dBm per hertz.
THERMAL_NOISE_DBM_PER_HZ = -174.0


def db_to_linear(db: float) -> float:
    """Convert a dB power ratio to a linear ratio."""
    return 10.0 ** (db / 10.0)


def linear_to_db(ratio: float) -> float:
    """Convert a linear power ratio to dB.

    Raises:
        ValueError: if ``ratio`` is not strictly positive (log of zero or a
            negative power ratio has no physical meaning).
    """
    if ratio <= 0.0:
        raise ValueError(f"power ratio must be > 0, got {ratio!r}")
    return 10.0 * math.log10(ratio)


def dbm_to_watt(dbm: float) -> float:
    """Convert an absolute power in dBm to watts."""
    return 10.0 ** ((dbm - 30.0) / 10.0)


def dbm_to_watt_array(dbm: np.ndarray) -> np.ndarray:
    """Elementwise :func:`dbm_to_watt` over an array, bit-identical.

    ``(dbm - 30.0) / 10.0`` is a correctly rounded IEEE subtract and
    divide whether NumPy or Python evaluates it; the power goes through
    the probed :data:`repro.phy.vecmath.vec_pow10` (libm ``pow`` per
    element, or the Python float power where the probe fails), because
    NumPy's vector ``power`` may differ from libm in the last ulp.
    """
    # Imported here: repro.phy's package imports this module.
    from repro.phy.vecmath import vec_pow10

    return vec_pow10((np.asarray(dbm, dtype=np.float64) - 30.0) / 10.0)


def watt_to_dbm(watt: float) -> float:
    """Convert an absolute power in watts to dBm.

    Raises:
        ValueError: if ``watt`` is not strictly positive.
    """
    if watt <= 0.0:
        raise ValueError(f"power must be > 0 W, got {watt!r}")
    return 10.0 * math.log10(watt) + 30.0


def wireless_sum_dbm(levels_dbm: Iterable[float]) -> float:
    """Sum incoherent signal powers expressed in dBm.

    Interfering transmissions add in the *linear* domain.  An empty input is
    treated as "no signal" and returns ``-inf`` dBm, which composes correctly
    with :func:`db_to_linear` in SINR denominators.
    """
    total_watt = sum(dbm_to_watt(level) for level in levels_dbm)
    if total_watt == 0.0:
        return float("-inf")
    return watt_to_dbm(total_watt)


def thermal_noise_dbm(bandwidth_hz: float, noise_figure_db: float = 0.0) -> float:
    """Thermal noise power over ``bandwidth_hz`` including receiver noise figure.

    Args:
        bandwidth_hz: occupied bandwidth in hertz; must be positive.
        noise_figure_db: receiver noise figure added on top of kTB.
    """
    if bandwidth_hz <= 0.0:
        raise ValueError(f"bandwidth must be > 0 Hz, got {bandwidth_hz!r}")
    return THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(bandwidth_hz) + noise_figure_db
