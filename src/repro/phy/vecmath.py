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
  :data:`vec_cos`, :data:`vec_pow10`, :data:`vec_bearing_deg`).  Each
  has three forms, and on first use a probe picks the first that equals
  a ``math.*`` loop bit for bit over deterministic probe domains:

  1. ``plain``: the NumPy kernel called as usual.  It passes where NumPy
     dispatches a loop that calls libm element by element (no SIMD
     kernel for that function on this CPU, or under
     ``NPY_DISABLE_CPU_FEATURES``).
  2. ``overlap``: the same kernel with its output one element below its
     input in one buffer, ``f(buf[1:], out=buf[:-1])``.  NumPy's SIMD
     loops (the AVX-512 ``log``, the SVML ``log10`` and ``arctan2``)
     refuse partly overlapping operands and fall back to the element
     loop that calls libm -- the function ``math.*`` calls -- so this
     form goes vector on AVX-512 hosts with no CPU-feature mask.
  3. ``scalar``: a ``map`` of the ``math.*`` function, the reference.

  Results are bit-identical whichever form runs; only the speed differs.
  :func:`primitive_forms` says which form each primitive took.

:data:`vec_pow10` is ``np.float_power(10.0, x)``, whose float64 loop
calls libm ``pow`` element by element even where ``np.power`` has a
SIMD loop that is not, so its plain form passes under the default CPU
features.

Setting ``REPRO_VECMATH=scalar`` forces every probed path (and
:func:`vec_hypot`) onto the scalar fallback, as a debugging escape
hatch.
"""

from __future__ import annotations

import math
import os
from typing import Callable, Dict, Iterator, Optional, Sequence

import numpy as np

__all__ = [
    "OVERLAP",
    "PLAIN",
    "SCALAR",
    "primitive_forms",
    "vec_bearing_deg",
    "vec_cos",
    "vec_hypot",
    "vec_log",
    "vec_log10",
    "vec_pow10",
    "vectorized_report",
]

#: The forms a probed primitive can take, in probe order (see above).
PLAIN = "plain"
OVERLAP = "overlap"
SCALAR = "scalar"

_FORCE_SCALAR = os.environ.get("REPRO_VECMATH", "") == "scalar"


def _overlapped(
    kernel: Callable, first: np.ndarray, *rest: np.ndarray
) -> np.ndarray:
    """``kernel(first, *rest)`` with its output one element below ``first``.

    ``first`` is copied into ``buf[1:]`` of a fresh buffer and the kernel
    writes ``buf[:-1]``: a forward loop reads each input before the
    output overwrites it, so NumPy runs it in place without a temporary,
    but its SIMD loops see overlapping operands and decline.  ``rest``
    must have ``first``'s shape.  Fewer than two elements would not
    overlap their output, so those inputs are padded to two with 1.0.
    """
    if first.size < 2:
        padded = [
            np.concatenate([np.ravel(arr), np.ones(2 - first.size)])
            for arr in (first, *rest)
        ]
        return _overlapped(kernel, *padded)[: first.size].reshape(first.shape)
    buf = np.empty(first.size + 1)
    buf[1:] = first.ravel()
    out = buf[:-1]
    kernel(buf[1:], *(np.ravel(arr) for arr in rest), out=out)
    return out.reshape(first.shape)


class _Probed:
    """A NumPy kernel gated behind a bit-identity probe vs ``math.*``.

    ``kernel(*operands, out=None)`` is the vector computation and
    ``py_fn`` its scalar definition; ``samples()`` returns the probe
    pools, one array per operand.  The probe runs once per process on
    first use: a form passes when its output over the pools (odd sizes,
    so remainder loops are exercised too, then every sample in fixed
    slices) equals the scalar loop bit for bit.  NumPy picks its inner
    loop from the CPU it runs on and from whether the operands overlap,
    which each form fixes, so a passing form is safe for every input.
    """

    def __init__(
        self,
        name: str,
        kernel: Callable[..., np.ndarray],
        py_fn: Callable[..., float],
        samples: Callable[[], Sequence[np.ndarray]],
    ) -> None:
        self.name = name
        self._kernel = kernel
        self._py_fn = py_fn
        self._samples = samples
        self._form: Optional[str] = None

    def scalar(self, *operands: np.ndarray) -> np.ndarray:
        """The ``math.*`` reference, elementwise over equal-shape operands."""
        flat = [
            np.ascontiguousarray(arr, dtype=np.float64).ravel().tolist()
            for arr in operands
        ]
        out = np.fromiter(
            map(self._py_fn, *flat), np.float64, count=np.size(operands[0])
        )
        return out.reshape(np.shape(operands[0]))

    def vector(self, form: str, *operands: np.ndarray) -> np.ndarray:
        """The kernel in vector ``form`` (:data:`PLAIN` or :data:`OVERLAP`)."""
        if form == PLAIN:
            return self._kernel(*operands)
        return _overlapped(self._kernel, *operands)

    def passes(self, form: str) -> bool:
        """Whether vector ``form`` equals the scalar loop over the pools."""
        pools = [_probe_slices(pool) for pool in self._samples()]
        return all(
            np.array_equal(self.vector(form, *parts), self.scalar(*parts))
            for parts in zip(*pools)
        )

    @property
    def form(self) -> str:
        """The form every call takes: the first that passes its probe."""
        if self._form is None:
            self._form = SCALAR
            if not _FORCE_SCALAR:
                for form in (PLAIN, OVERLAP):
                    if self.passes(form):
                        self._form = form
                        break
        return self._form

    def __call__(self, *operands) -> np.ndarray:
        operands = np.broadcast_arrays(
            *(np.asarray(arr, dtype=np.float64) for arr in operands)
        )
        form = self.form
        if form == SCALAR:
            return self.scalar(*operands)
        return self.vector(form, *operands)


#: Probes compare at most this many samples at once, which bounds their
#: temporaries (the hypot path keeps ~60 of them, the scalar side a list
#: of Python floats) however large the sample pools are.
_PROBE_SLICE = 4096


def _probe_slices(flat: np.ndarray) -> Iterator[np.ndarray]:
    """Probe inputs drawn from one sample pool.

    1-, 7- and 1000-element slices exercise the SIMD remainder loops;
    then every sample of ``flat`` is compared, ``_PROBE_SLICE`` at a time.
    """
    yield flat[:1]
    yield flat[:7]
    yield flat[7:1007]
    for start in range(0, flat.size, _PROBE_SLICE):
        yield flat[start : start + _PROBE_SLICE]


def _log_samples() -> Sequence[np.ndarray]:
    rng = np.random.default_rng(20170607)
    pools = [
        rng.uniform(1e-3, 5e4, 1 << 15),  # d_km / metre working range
        np.exp(rng.uniform(-700.0, 700.0, 1 << 15)),  # full normal range
        rng.uniform(np.nextafter(0.0, 1.0), 1.0, 1 << 15),  # u1 domain
        1.0 + rng.uniform(-1e-6, 1e-6, 1 << 12),  # near-one cancellation
    ]
    return (np.concatenate(pools),)


def _cos_samples() -> Sequence[np.ndarray]:
    rng = np.random.default_rng(20170608)
    pools = [
        rng.uniform(0.0, 2.0 * math.pi, 1 << 16),  # Box-Muller phase domain
        np.array([0.0, math.pi / 2.0, math.pi, 2.0 * math.pi]),
    ]
    return (np.concatenate(pools),)


def _pow10_samples() -> Sequence[np.ndarray]:
    rng = np.random.default_rng(20170611)
    pools = [
        rng.uniform(-30.0, 5.0, 1 << 15),  # dBm -> W and SINR exponents
        rng.uniform(-330.0, 308.25, 1 << 15),  # subnormal to near-overflow
        np.arange(-30.0, 31.0),  # exact powers of ten
        np.array([np.inf, -np.inf, 0.0, -0.0, -400.0, -323.5, 308.25]),
    ]
    return (np.concatenate(pools),)


def _bearing_samples() -> Sequence[np.ndarray]:
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
    return ys, xs


def _pow10(x: float) -> float:
    return 10.0 ** x


def _np_pow10(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``np.float_power(10.0, x)``, raising where Python's power raises.

    NumPy returns ``inf`` (with a warning) where a finite exponent
    overflows; ``10.0 ** x`` raises ``OverflowError``.  Only exponents
    above 308 can overflow, so those few go through Python's power
    first, which raises for exactly the ones that do.
    """
    for exponent in x[x > 308.0].tolist():
        _pow10(exponent)
    return np.float_power(10.0, x, out=out)


def _np_bearing_deg(
    ys: np.ndarray, xs: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    out = np.arctan2(ys, xs, out=out)
    return np.degrees(out, out=out)


def _bearing_deg(y: float, x: float) -> float:
    return math.degrees(math.atan2(y, x))


vec_log10 = _Probed("log10", np.log10, math.log10, _log_samples)
vec_log = _Probed("log", np.log, math.log, _log_samples)
vec_cos = _Probed("cos", np.cos, math.cos, _cos_samples)
#: Elementwise ``10.0 ** x``, bit-identical (``OverflowError`` included).
vec_pow10 = _Probed("pow10", _np_pow10, _pow10, _pow10_samples)
#: Elementwise ``math.degrees(math.atan2(y, x))`` over ``(ys, xs)``.
vec_bearing_deg = _Probed(
    "bearing_deg", _np_bearing_deg, _bearing_deg, _bearing_samples
)


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


def primitive_forms() -> Dict[str, str]:
    """The form each primitive runs in here: plain, overlap or scalar.

    Forces every lazy probe.  ``hypot`` has no overlap form: it reads
    :data:`PLAIN` (the replication) or :data:`SCALAR`.
    """
    forms = {"hypot": PLAIN if _hypot_path.vectorized else SCALAR}
    for probed in (vec_log10, vec_log, vec_cos, vec_pow10, vec_bearing_deg):
        forms[probed.name] = probed.form
    return forms


def vectorized_report() -> Dict[str, bool]:
    """Which primitives currently run vectorized (probes pass) vs scalar.

    Forces every lazy probe; useful for benchmark provenance records.
    """
    return {name: form != SCALAR for name, form in primitive_forms().items()}
