"""Exactness-probed vectorized math for the gain-fill kernels.

The repo's bit-identity discipline (see ``_elementwise_db`` in
:mod:`repro.lte.network`) pins every derived quantity to the scalar
``math.*`` calls of the reference implementation: golden digests depend
on every last ulp.  NumPy's SIMD transcendental kernels (AVX2/AVX512
``log10``/``log``/``cos``/``atan2``) differ from libm in the last ulp on
a small fraction of inputs, so a naive ``np.log10`` would silently shift
digests depending on the host CPU.

This module provides two kinds of vector primitives that are *always*
bit-identical to their scalar counterparts:

* :func:`vec_hypot` -- a NumPy replication of CPython's own
  ``math.hypot`` algorithm (scaled Dekker/2Sum compensated squares with
  a one-step Newton correction).  It uses only IEEE-754 basic operations
  (+, -, *, /, sqrt), which are correctly rounded everywhere, so the
  replication is exact *by construction* in every CPU mode.  Elements the
  replication cannot guarantee (zero/inf/nan, subnormal maxima, and
  component ratios so extreme the Dekker error term would underflow) are
  recomputed through scalar ``math.hypot``.

* Probed transcendentals (:data:`vec_log10`, :data:`vec_log`,
  :data:`vec_cos`, :func:`vec_bearing_deg`) -- on first use each path
  compares the NumPy ufunc against a ``math.*`` loop over deterministic
  probe domains.  When the probe passes (NumPy dispatched its scalar
  libm loop -- e.g. under ``NPY_DISABLE_CPU_FEATURES``, see below), the
  vector path is used; otherwise every call transparently falls back to
  a scalar ``map``.  Results are bit-identical either way; only the
  speed differs.

Running with the SIMD dispatch disabled makes the probed paths vector::

    NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL AVX512_CNL AVX512_CLX \
        AVX512_SKX AVX512F AVX512CD AVX512VL AVX512BW AVX512DQ AVX512VNNI \
        AVX512IFMA AVX512VBMI AVX512VBMI2 AVX512BITALG AVX512FP16 AVX512BF16 \
        AVX512VPOPCNTDQ X86_V4 AVX2 FMA3 F16C X86_V3 AVX"

(the list is :data:`LIBM_MODE_DISABLE_FEATURES`; ``make bench-gainfill``
sets it).  NumPy then compiles its baseline loops, which call libm
element by element -- same results, vector-speed memory traffic.

Setting ``REPRO_VECMATH=scalar`` forces every probed path (and
:func:`vec_hypot`) onto the scalar fallback, as a debugging escape
hatch.
"""

from __future__ import annotations

import math
import os
from typing import Callable, Dict, Iterator, Optional

import numpy as np

__all__ = [
    "LIBM_MODE_DISABLE_FEATURES",
    "vec_bearing_deg",
    "vec_cos",
    "vec_hypot",
    "vec_log",
    "vec_log10",
    "vectorized_report",
]

#: CPU features to disable (via ``NPY_DISABLE_CPU_FEATURES``) so NumPy's
#: transcendental ufuncs fall back to their libm baseline loops and the
#: probed paths below go vector.  Harmless on CPUs lacking some entries
#: (NumPy warns and ignores unknown/absent features).
LIBM_MODE_DISABLE_FEATURES = (
    "AVX512_SPR AVX512_ICL AVX512_CNL AVX512_CLX AVX512_SKX AVX512F "
    "AVX512CD AVX512VL AVX512BW AVX512DQ AVX512VNNI AVX512IFMA AVX512VBMI "
    "AVX512VBMI2 AVX512BITALG AVX512FP16 AVX512BF16 AVX512VPOPCNTDQ "
    "X86_V4 AVX2 FMA3 F16C X86_V3 AVX"
)

_FORCE_SCALAR = os.environ.get("REPRO_VECMATH", "") == "scalar"


def _scalar_map(fn: Callable[[float], float], values: np.ndarray) -> np.ndarray:
    """Apply a scalar math function elementwise (the exact reference)."""
    flat = np.ascontiguousarray(values, dtype=np.float64).ravel()
    out = np.fromiter(map(fn, flat.tolist()), np.float64, count=flat.size)
    return out.reshape(np.shape(values))


class _ProbedUnary:
    """A NumPy ufunc gated behind a bit-identity probe vs ``math.*``.

    The probe runs once per process on first use: the ufunc output over
    deterministic domain samples (odd sizes, so remainder loops are
    exercised too, then every sample in fixed slices) must equal the
    scalar loop bit-for-bit.  NumPy picks its inner loop (SIMD vs libm
    baseline) at import time, so a passing probe means the dispatch *is*
    the element-by-element libm loop and the ufunc is safe for every
    input; a failing probe routes every call through the scalar map.
    """

    def __init__(
        self,
        name: str,
        np_fn: Callable[[np.ndarray], np.ndarray],
        py_fn: Callable[[float], float],
        samples: Callable[[], np.ndarray],
    ) -> None:
        self.name = name
        self._np_fn = np_fn
        self._py_fn = py_fn
        self._samples = samples
        self._ok: Optional[bool] = None

    @property
    def vectorized(self) -> bool:
        if self._ok is None:
            if _FORCE_SCALAR:
                self._ok = False
            else:
                self._ok = all(
                    np.array_equal(self._np_fn(arr), _scalar_map(self._py_fn, arr))
                    for arr in _probe_slices(self._samples())
                )
        return self._ok

    def __call__(self, values: np.ndarray) -> np.ndarray:
        if self.vectorized:
            return self._np_fn(np.asarray(values, dtype=np.float64))
        return _scalar_map(self._py_fn, values)


#: Probes compare at most this many samples at once, which bounds their
#: temporaries (the hypot path keeps ~60 of them, the scalar side a list
#: of Python floats) however large the sample pools are.
_PROBE_SLICE = 4096


def _probe_slices(flat: np.ndarray) -> Iterator[np.ndarray]:
    """Probe inputs drawn from one sample pool.

    7- and 1000-element slices exercise the SIMD remainder loops; then
    every sample of ``flat`` is compared, ``_PROBE_SLICE`` at a time.
    """
    yield flat[:7]
    yield flat[7:1007]
    for start in range(0, flat.size, _PROBE_SLICE):
        yield flat[start : start + _PROBE_SLICE]


def _log_samples() -> np.ndarray:
    rng = np.random.default_rng(20170607)
    pools = [
        rng.uniform(1e-3, 5e4, 1 << 15),  # d_km / metre working range
        np.exp(rng.uniform(-700.0, 700.0, 1 << 15)),  # full normal range
        rng.uniform(np.nextafter(0.0, 1.0), 1.0, 1 << 15),  # u1 domain
        1.0 + rng.uniform(-1e-6, 1e-6, 1 << 12),  # near-one cancellation
    ]
    return np.concatenate(pools)


def _cos_samples() -> np.ndarray:
    rng = np.random.default_rng(20170608)
    pools = [
        rng.uniform(0.0, 2.0 * math.pi, 1 << 16),  # Box-Muller phase domain
        np.array([0.0, math.pi / 2.0, math.pi, 2.0 * math.pi]),
    ]
    return np.concatenate(pools)


vec_log10 = _ProbedUnary("log10", np.log10, math.log10, _log_samples)
vec_log = _ProbedUnary("log", np.log, math.log, _log_samples)
vec_cos = _ProbedUnary("cos", np.cos, math.cos, _cos_samples)


class _ProbedBearing:
    """``degrees(atan2(y, x))`` as one probed composite path."""

    def __init__(self) -> None:
        self._ok: Optional[bool] = None

    @staticmethod
    def _np_fn(ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
        return np.degrees(np.arctan2(ys, xs))

    @staticmethod
    def _py_fn(y: float, x: float) -> float:
        return math.degrees(math.atan2(y, x))

    def _scalar(self, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
        yf = np.ascontiguousarray(ys, dtype=np.float64).ravel()
        xf = np.ascontiguousarray(xs, dtype=np.float64).ravel()
        out = np.fromiter(
            map(self._py_fn, yf.tolist(), xf.tolist()), np.float64, count=yf.size
        )
        return out.reshape(np.shape(ys))

    @property
    def vectorized(self) -> bool:
        if self._ok is None:
            if _FORCE_SCALAR:
                self._ok = False
            else:
                rng = np.random.default_rng(20170609)
                ys = np.concatenate(
                    [
                        rng.uniform(-5e4, 5e4, 1 << 15),
                        np.array([0.0, -0.0, 1.0, -1.0, 0.0, -0.0]),
                    ]
                )
                xs = np.concatenate(
                    [
                        rng.uniform(-5e4, 5e4, 1 << 15),
                        np.array([0.0, -0.0, 0.0, -0.0, 1.0, -1.0]),
                    ]
                )
                self._ok = all(
                    np.array_equal(self._np_fn(y, x), self._scalar(y, x))
                    for y, x in zip(_probe_slices(ys), _probe_slices(xs))
                )
        return self._ok

    def __call__(self, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
        if self.vectorized:
            return self._np_fn(
                np.asarray(ys, dtype=np.float64), np.asarray(xs, dtype=np.float64)
            )
        return self._scalar(ys, xs)


vec_bearing_deg = _ProbedBearing()


# ---------------------------------------------------------------------------
# Exact math.hypot replication
# ---------------------------------------------------------------------------

_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter
#: Scaled components below this make the Dekker product's error term
#: underflow, where it would no longer equal the fma()-computed remainder
#: CPython uses; such elements take the scalar fix-up path.  The bound is
#: generous: the error term of x*x sits near x**2 * 2**-53, which stays
#: comfortably normal for x >= 2**-500.
_TINY_SCALED = 2.0**-500


def _dl_mul_sq(x: np.ndarray):
    """Error-free x*x -> (fl(x*x), exact remainder), Dekker two-product.

    Equals CPython's ``dl_mul(x, x)`` (an ``fma(x, x, -z)`` remainder)
    whenever no intermediate underflows -- the caller masks the rest.
    """
    z = x * x
    c = _SPLIT * x
    hi = c - (c - x)
    lo = x - hi
    zz = ((hi * hi - z) + 2.0 * hi * lo) + lo * lo
    return z, zz


def _vec_hypot_core(ax: np.ndarray, ay: np.ndarray, scale: np.ndarray):
    """CPython 3.11 ``vector_norm`` for n=2, elementwise over arrays.

    Operation-for-operation the same arithmetic as Modules/mathmodule.c:
    lossless scaling by a power of two, compensated summation of the
    squares (csum seeded at 1.0), then a differential-correction step on
    the square root.  Only IEEE basic ops -- exact on every CPU.
    """
    csum = np.ones_like(ax)
    frac1 = np.zeros_like(ax)
    frac2 = np.zeros_like(ax)
    for a in (ax, ay):
        x = a * scale
        prh, prl = _dl_mul_sq(x)
        smh = csum + prh
        sml = (csum - smh) + prh
        csum = smh
        frac1 = frac1 + prl
        frac2 = frac2 + sml
    h = np.sqrt(csum - 1.0 + (frac1 + frac2))
    prh, prl = _dl_mul_sq(h)
    smh = csum + (-prh)
    sml = (csum - smh) + (-prh)
    frac1 = frac1 - prl
    frac2 = frac2 + sml
    x = smh - 1.0 + (frac1 + frac2)
    return (h + x / (2.0 * h)) / scale


def _same_or_both_nan(got: np.ndarray, ref: np.ndarray) -> bool:
    return bool(((got == ref) | (np.isnan(got) & np.isnan(ref))).all())


class _HypotPath:
    """Bit-identical ``math.hypot`` over arrays, with scalar fix-ups.

    The replication is exact by construction, but a belt-and-braces probe
    (run once, on first use) still compares it against ``math.hypot``
    over adversarial domains -- if a future CPython changes the hypot
    algorithm, the probe fails closed onto the scalar map.
    """

    def __init__(self) -> None:
        self._ok: Optional[bool] = None

    @staticmethod
    def _scalar(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        xf = np.ascontiguousarray(dx, dtype=np.float64).ravel()
        yf = np.ascontiguousarray(dy, dtype=np.float64).ravel()
        out = np.fromiter(
            map(math.hypot, xf.tolist(), yf.tolist()), np.float64, count=xf.size
        )
        return out.reshape(np.shape(dx))

    @staticmethod
    def _vector(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        dx = np.asarray(dx, dtype=np.float64)
        dy = np.asarray(dy, dtype=np.float64)
        ax = np.abs(dx)
        ay = np.abs(dy)
        mx = np.maximum(ax, ay)
        with np.errstate(all="ignore"):
            _, max_e = np.frexp(mx)
            # CPython special-cases inf/nan/zero and recurses for
            # subnormal maxima; extreme component ratios would underflow
            # the Dekker error term.  All of those go to the scalar loop.
            tiny = np.minimum(ax, ay)
            special = (
                (mx == 0.0)
                | ~np.isfinite(mx)
                | (max_e - 1 < -1022)
                | ((tiny != 0.0) & (tiny < mx * _TINY_SCALED))
            )
            scale = np.ldexp(1.0, -max_e)
            out = _vec_hypot_core(ax, ay, scale)
        if special.any():
            idx = np.flatnonzero(special.ravel())
            xf = ax.ravel()
            yf = ay.ravel()
            flat = out.ravel()
            for i in idx:
                flat[i] = math.hypot(xf[i], yf[i])
            out = flat.reshape(out.shape)
        return out

    @property
    def vectorized(self) -> bool:
        if self._ok is None:
            if _FORCE_SCALAR:
                self._ok = False
            else:
                rng = np.random.default_rng(20170610)
                mag = 10.0 ** rng.integers(-320, 300, 1 << 14)
                pools_x = [
                    rng.uniform(-5e4, 5e4, 1 << 15),
                    rng.uniform(-1.0, 1.0, 1 << 14) * mag,
                    np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-308]),
                ]
                pools_y = [
                    rng.uniform(-5e4, 5e4, 1 << 15),
                    rng.uniform(-1.0, 1.0, 1 << 14) * mag[::-1],
                    np.array([1.0, 0.0, 1.0, np.nan, -2.0, 5e-324, -1e300]),
                ]
                self._ok = all(
                    _same_or_both_nan(self._vector(x, y), self._scalar(x, y))
                    for x, y in zip(
                        _probe_slices(np.concatenate(pools_x)),
                        _probe_slices(np.concatenate(pools_y)),
                    )
                )
        return self._ok

    def __call__(self, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        if self.vectorized:
            return self._vector(dx, dy)
        return self._scalar(dx, dy)


_hypot_path = _HypotPath()


def vec_hypot(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Elementwise ``math.hypot(dx, dy)``, bit-identical, array speed."""
    return _hypot_path(dx, dy)


def vectorized_report() -> Dict[str, bool]:
    """Which primitives currently run vectorized (probes pass) vs scalar.

    Forces every lazy probe; useful for benchmark provenance records.
    """
    return {
        "hypot": _hypot_path.vectorized,
        "log10": vec_log10.vectorized,
        "log": vec_log.vectorized,
        "cos": vec_cos.vectorized,
        "bearing_deg": vec_bearing_deg.vectorized,
    }
