"""Path-loss and shadowing models.

The paper's outdoor measurements (Figure 1) were taken in an urban area with
a rooftop small cell at roughly 600-700 MHz (3GPP band 13 in their testbed,
TVWS frequencies in deployment).  :class:`UrbanHataPathLoss` reproduces that
environment with the classic Okumura-Hata urban formula, which at 36 dBm
EIRP gives ~1.3 km of usable range -- matching the paper's drive test.

All models expose ``path_loss_db(distance_m)`` plus a batched
``path_loss_db_batch(distances_m)`` that is bit-identical to the scalar
call per element (see :mod:`repro.phy.vecmath` for how transcendentals
stay exact); composite behaviour (model + shadowing + antenna gains) is
assembled by :class:`CompositeChannel`.
"""

from __future__ import annotations

import hashlib
import math
from abc import ABC, abstractmethod
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.phy import vecmath

SPEED_OF_LIGHT_M_S = 299_792_458.0

#: Gain-cache fill modes: ``FILL_BATCHED`` routes stale rows through the
#: vectorized kernels; ``FILL_SCALAR`` keeps the per-link loop.  Both are
#: bit-identical (the scalar loop is the retained oracle, same discipline
#: as the epoch's scalar oracle).
FILL_BATCHED = "batched"
FILL_SCALAR = "scalar"
_FILL_MODES = (FILL_BATCHED, FILL_SCALAR)

#: Link blocks are computed in row chunks of roughly this many links
#: (:func:`row_chunks`), so the ~60 array temporaries of the hypot/log
#: kernels stay cache-resident (measured ~3x faster than whole-matrix
#: temporaries at city scale) and the shadowing keys, digests and scalar
#: maps of :meth:`CompositeChannel.loss_db_rows` live for one chunk only:
#: its working set is the output plus ~4.5 MB, whatever the block size.
_CHUNK_LINKS = 16384


def row_chunks(n_rows: int, n_cols: int) -> Iterator[slice]:
    """Row slices covering an ``(n_rows, n_cols)`` link block in order.

    Each slice spans ``max(1, _CHUNK_LINKS // n_cols)`` rows, i.e. about
    ``_CHUNK_LINKS`` links (one row when a row alone is wider).
    """
    step = max(1, _CHUNK_LINKS // max(1, n_cols))
    for start in range(0, n_rows, step):
        yield slice(start, start + step)


class PathLossModel(ABC):
    """Interface: mean path loss in dB as a function of ground distance.

    Concrete models implement the scalar :meth:`path_loss_db` *and* the
    batched :meth:`path_loss_db_batch`; the batch must be IEEE-identical
    to the scalar call per element (``tests/test_phy_gain_batch.py``
    enforces both the identity and that every registered subclass
    actually overrides the batch API instead of silently falling back).
    """

    @abstractmethod
    def path_loss_db(self, distance_m: float) -> float:
        """Mean path loss in dB at ``distance_m`` metres (>= 1 m enforced)."""

    @abstractmethod
    def path_loss_db_batch(self, distances_m: np.ndarray) -> np.ndarray:
        """Elementwise :meth:`path_loss_db` over an array, bit-identical."""

    @staticmethod
    def _clamp_distance(distance_m: float) -> float:
        if distance_m < 0.0:
            raise ValueError(f"distance must be >= 0, got {distance_m!r}")
        # Below 1 m the far-field formulas diverge; clamp as ns-3 does.
        return max(distance_m, 1.0)

    @staticmethod
    def _clamp_distances(distances_m: np.ndarray) -> np.ndarray:
        distances_m = np.asarray(distances_m, dtype=np.float64)
        if (distances_m < 0.0).any():
            bad = float(distances_m[distances_m < 0.0].flat[0])
            raise ValueError(f"distance must be >= 0, got {bad!r}")
        return np.maximum(distances_m, 1.0)


class FreeSpacePathLoss(PathLossModel):
    """Friis free-space propagation.  Optimistic; used for sanity checks."""

    def __init__(self, frequency_hz: float) -> None:
        if frequency_hz <= 0.0:
            raise ValueError(f"frequency must be > 0, got {frequency_hz!r}")
        self.frequency_hz = frequency_hz

    def path_loss_db(self, distance_m: float) -> float:
        distance_m = self._clamp_distance(distance_m)
        wavelength = SPEED_OF_LIGHT_M_S / self.frequency_hz
        return 20.0 * math.log10(4.0 * math.pi * distance_m / wavelength)

    def path_loss_db_batch(self, distances_m: np.ndarray) -> np.ndarray:
        distances_m = self._clamp_distances(distances_m)
        wavelength = SPEED_OF_LIGHT_M_S / self.frequency_hz
        # Same left-to-right association as the scalar expression:
        # ((4.0 * pi) * d) / wavelength, then 20.0 * log10.
        return 20.0 * vecmath.vec_log10(
            4.0 * math.pi * distances_m / wavelength
        )


class LogDistancePathLoss(PathLossModel):
    """Log-distance model: free space to a reference, then exponent ``n``.

    Args:
        frequency_hz: carrier frequency.
        exponent: path-loss exponent beyond the reference distance
            (urban outdoor is typically 3.5-4).
        reference_m: reference distance for the free-space segment.
    """

    def __init__(
        self, frequency_hz: float, exponent: float = 3.7, reference_m: float = 10.0
    ) -> None:
        if exponent < 2.0:
            raise ValueError(f"exponent below free space (2.0): {exponent!r}")
        if reference_m <= 0.0:
            raise ValueError(f"reference distance must be > 0, got {reference_m!r}")
        self.exponent = exponent
        self.reference_m = reference_m
        self._free_space = FreeSpacePathLoss(frequency_hz)

    def path_loss_db(self, distance_m: float) -> float:
        distance_m = self._clamp_distance(distance_m)
        reference_loss = self._free_space.path_loss_db(self.reference_m)
        if distance_m <= self.reference_m:
            return self._free_space.path_loss_db(distance_m)
        return reference_loss + 10.0 * self.exponent * math.log10(
            distance_m / self.reference_m
        )

    def path_loss_db_batch(self, distances_m: np.ndarray) -> np.ndarray:
        distances_m = self._clamp_distances(distances_m)
        reference_loss = self._free_space.path_loss_db(self.reference_m)
        out = np.empty_like(distances_m)
        near = distances_m <= self.reference_m
        if near.any():
            out[near] = self._free_space.path_loss_db_batch(distances_m[near])
        far = ~near
        if far.any():
            # (10.0 * exponent) matches the scalar left-to-right product.
            out[far] = reference_loss + (10.0 * self.exponent) * vecmath.vec_log10(
                distances_m[far] / self.reference_m
            )
        return out


class UrbanHataPathLoss(PathLossModel):
    """Okumura-Hata urban model (small/medium city correction).

    Valid for 150-1500 MHz, which covers the whole TVWS band (470-790 MHz).
    Calibrated defaults follow the paper's testbed: 15 m rooftop cell,
    handheld client at 1.5 m.

    At 600 MHz / 15 m / 1.5 m this yields ~126 dB at 1 km and a
    37.2 dB/decade slope, placing the 1 Mb/s edge at ~1.3 km for a 36 dBm
    EIRP downlink -- the range the paper measures in Figure 1(a).
    """

    def __init__(
        self,
        frequency_hz: float = 617e6,
        base_height_m: float = 15.0,
        mobile_height_m: float = 1.5,
    ) -> None:
        if not 150e6 <= frequency_hz <= 1500e6:
            raise ValueError(
                f"Hata model valid for 150-1500 MHz, got {frequency_hz / 1e6:.0f} MHz"
            )
        if not 1.0 <= base_height_m <= 200.0:
            raise ValueError(f"base height out of Hata range: {base_height_m!r}")
        if not 1.0 <= mobile_height_m <= 10.0:
            raise ValueError(f"mobile height out of Hata range: {mobile_height_m!r}")
        self.frequency_hz = frequency_hz
        self.base_height_m = base_height_m
        self.mobile_height_m = mobile_height_m

    def path_loss_db(self, distance_m: float) -> float:
        distance_m = self._clamp_distance(distance_m)
        f_mhz = self.frequency_hz / 1e6
        d_km = max(distance_m / 1000.0, 0.01)  # Hata's near-field floor.
        log_f = math.log10(f_mhz)
        log_hb = math.log10(self.base_height_m)
        mobile_correction = (1.1 * log_f - 0.7) * self.mobile_height_m - (
            1.56 * log_f - 0.8
        )
        return (
            69.55
            + 26.16 * log_f
            - 13.82 * log_hb
            - mobile_correction
            + (44.9 - 6.55 * log_hb) * math.log10(d_km)
        )

    def path_loss_db_batch(self, distances_m: np.ndarray) -> np.ndarray:
        distances_m = self._clamp_distances(distances_m)
        f_mhz = self.frequency_hz / 1e6
        d_km = np.maximum(distances_m / 1000.0, 0.01)
        log_f = math.log10(f_mhz)
        log_hb = math.log10(self.base_height_m)
        mobile_correction = (1.1 * log_f - 0.7) * self.mobile_height_m - (
            1.56 * log_f - 0.8
        )
        # The scalar return is a left-associated sum whose first four terms
        # are distance-free; hoisting them into one constant reproduces the
        # exact partial sum (((69.55 + a) - b) - c) the scalar loop forms,
        # so the final add against the slope term is the same IEEE op.
        constant = 69.55 + 26.16 * log_f - 13.82 * log_hb - mobile_correction
        slope = 44.9 - 6.55 * log_hb
        return constant + slope * vecmath.vec_log10(d_km)


def _u1_from_words(words: np.ndarray) -> np.ndarray:
    """``(v + 1) / (2**64 + 2)`` per uint64 word, correctly rounded.

    The scalar path divides Python ints, which rounds once.  Here, with
    ``n = v + 1``, the exact quotient is ``q = (n - eps) / 2**64`` where
    ``eps = n / (2**63 + 1)`` lies in ``(0, 2)``.  The candidate is
    ``a / 2**64`` with ``a`` the correctly rounded float64 of ``n`` (the
    scaling is exact), and it is the rounded ``q`` iff ``n - eps`` stays
    inside ``a``'s rounding interval: ``a + half_up`` above and
    ``a - half_down`` below, where ``half_up`` is half an ulp of ``a`` and
    ``half_down`` halves again when ``a`` is a power of two.  ``e = n - a``
    is an exact integer (``|e| <= 1024``), so ``d = e - eps`` is known to
    ~1e-12, and the test demands a relative 2**-10 margin to the interval
    edges.  Words that fail it -- ties and near-ties of the rounding of
    ``n``, about 0.2% of 64-bit words and none below 2**53 -- plus the two
    that overflow (``v = 2**64 - 1`` and ``a == 2**64``) fall back to the
    big-int division.
    """
    n = words + np.uint64(1)  # wraps to 0 for v = 2**64 - 1
    a = n.astype(np.float64)
    top = a == 2.0**64
    e = (n - np.where(top, 0.0, a).astype(np.uint64)).view(np.int64)
    d = e.astype(np.float64) - a * 2.0**-63
    half_up = 0.5 * np.spacing(a)
    half_down = np.where(np.frexp(a)[0] == 0.5, 0.5 * half_up, half_up)
    margin = 1.0 - 2.0**-10
    exact = (d < half_up * margin) & (-d < half_down * margin)
    exact &= ~top & (n != 0)
    u1 = a * 2.0**-64
    rest = np.flatnonzero(~exact)
    if rest.size:
        u1[rest] = [(v + 1) / (2**64 + 2) for v in words[rest].tolist()]
    return u1


class LogNormalShadowing:
    """Deterministic per-link log-normal shadowing.

    The shadowing value for a link is a pure function of the two endpoint
    positions and a seed, so (a) the channel is reciprocal, and (b) repeated
    queries for the same link are consistent within a run -- both properties
    the interference-management algorithms rely on.

    **Key quantization contract.**  The hash key formats each coordinate
    with ``:.1f``, i.e. positions are quantized to a 0.1 m grid before
    hashing: endpoints within the same grid cell -- in particular, any
    two positions of one endpoint less than 0.05 m apart (round-half-even
    at the cell edge) -- share the *same* shadowing draw, while a step
    across a cell edge redraws the link.  This is pinned, load-bearing
    behaviour, not an implementation detail: every golden digest in the
    regression net depends on the exact key string, and the batched key
    builder in :meth:`shadowing_db_batch` reproduces it byte-for-byte
    (``tests/test_phy_gain_batch.py`` keeps both facts honest).  Changing
    the format (or the canonical endpoint order) silently reshuffles
    every shadowing draw in every experiment.

    Args:
        sigma_db: standard deviation (urban macro: 6-8 dB).
        seed: experiment seed decorrelating shadowing across replications.
    """

    def __init__(self, sigma_db: float = 7.0, seed: int = 0) -> None:
        if sigma_db < 0.0:
            raise ValueError(f"sigma must be >= 0, got {sigma_db!r}")
        self.sigma_db = sigma_db
        self.seed = seed

    def shadowing_db(
        self, ax: float, ay: float, bx: float, by: float
    ) -> float:
        """Shadowing in dB for the link (a) -- (b).  Symmetric in endpoints."""
        if self.sigma_db == 0.0:
            return 0.0
        # Order endpoints canonically for reciprocity: (ax, ay) > (bx, by)
        # tuple-wise, and endpoints that compare equal but format apart
        # (0.0 vs -0.0) order by their tags.
        if ax > bx or (
            ax == bx
            and (
                ay > by
                or (
                    ay == by
                    and self.endpoint_tag(ax, ay) > self.endpoint_tag(bx, by)
                )
            )
        ):
            ax, ay, bx, by = bx, by, ax, ay
        key = f"{self.seed}:{ax:.1f},{ay:.1f}:{bx:.1f},{by:.1f}".encode()
        digest = hashlib.sha256(key).digest()
        # Box-Muller from two uniform doubles derived from the hash.
        u1 = (int.from_bytes(digest[:8], "little") + 1) / (2**64 + 2)
        u2 = int.from_bytes(digest[8:16], "little") / 2**64
        gaussian = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        return self.sigma_db * gaussian

    # -- Batched path ------------------------------------------------------

    @staticmethod
    def endpoint_tag(x: float, y: float) -> bytes:
        """The quantized ``{x:.1f},{y:.1f}`` key fragment for one endpoint.

        Exposed so bulk key builders (the gain-fill kernels) can format
        each *node* once instead of re-formatting both endpoints per
        link; concatenating tags reproduces the scalar key byte-for-byte
        because the format is pure ASCII.
        """
        return f"{x:.1f},{y:.1f}".encode()

    @classmethod
    def canonical_swap(
        cls, ax: np.ndarray, ay: np.ndarray, bx: np.ndarray, by: np.ndarray
    ) -> np.ndarray:
        """Where the link key leads with endpoint b, broadcast elementwise.

        Matches :meth:`shadowing_db`: ``(ax, ay) > (bx, by)`` tuple-wise (the
        second coordinate decides exactly when the first compares equal,
        which, as for 0.0 vs -0.0, is not the same as being identical), and
        endpoints that compare equal order by their tags.
        """
        same_x = ax == bx
        swap = np.asarray((ax > bx) | (same_x & (ay > by)))
        if same_x.any():
            ax, ay, bx, by = np.broadcast_arrays(ax, ay, bx, by)
            tag = cls.endpoint_tag
            for i in map(tuple, np.argwhere(same_x & (ay == by))):
                swap[i] = tag(ax[i], ay[i]) > tag(bx[i], by[i])
        return swap

    def _values_from_keys(self, keys: List[bytes]) -> np.ndarray:
        """sigma * gaussian for pre-built canonical keys, bit-identical.

        The sha256 pass stays a per-key loop (hashing dominates the
        shadowed fill; see docs/SIMULATION.md), but everything after the
        digests is array arithmetic: ``u2`` vectorizes exactly (uint64 ->
        float64 rounding commutes with the exact power-of-two divide),
        ``u1`` goes through :func:`_u1_from_words`, and the
        transcendentals go through the probed paths of
        :mod:`repro.phy.vecmath`.
        """
        n = len(keys)
        if n == 0:
            return np.empty(0, dtype=np.float64)
        sha256 = hashlib.sha256
        buf = b"".join([sha256(key).digest() for key in keys])
        words = np.frombuffer(buf, dtype="<u8").reshape(n, 4)
        u1 = _u1_from_words(words[:, 0])
        u2 = words[:, 1].astype(np.float64) / 2.0**64
        gaussian = np.sqrt(-2.0 * vecmath.vec_log(u1)) * vecmath.vec_cos(
            2.0 * math.pi * u2
        )
        return self.sigma_db * gaussian

    def shadowing_db_batch(
        self, ax: np.ndarray, ay: np.ndarray, bx: np.ndarray, by: np.ndarray
    ) -> np.ndarray:
        """Elementwise :meth:`shadowing_db` over coordinate arrays."""
        ax = np.asarray(ax, dtype=np.float64)
        ay = np.asarray(ay, dtype=np.float64)
        bx = np.asarray(bx, dtype=np.float64)
        by = np.asarray(by, dtype=np.float64)
        if self.sigma_db == 0.0:
            return np.zeros(ax.shape, dtype=np.float64)
        swap = self.canonical_swap(ax, ay, bx, by)
        prefix = f"{self.seed}:".encode()
        tag = self.endpoint_tag
        keys = [
            prefix + tag(qx, qy) + b":" + tag(px, py)
            if swapped
            else prefix + tag(px, py) + b":" + tag(qx, qy)
            for px, py, qx, qy, swapped in zip(
                ax.ravel().tolist(),
                ay.ravel().tolist(),
                bx.ravel().tolist(),
                by.ravel().tolist(),
                swap.ravel().tolist(),
            )
        ]
        return self._values_from_keys(keys).reshape(ax.shape)


class CompositeChannel:
    """Mean path loss plus optional shadowing, as one callable object.

    This is the object the simulators hold: ``loss_db(a, b)`` takes any two
    positioned nodes (anything with ``x``/``y`` attributes).
    """

    def __init__(
        self,
        path_loss: PathLossModel,
        shadowing: Optional[LogNormalShadowing] = None,
    ) -> None:
        self.path_loss = path_loss
        self.shadowing = shadowing

    def loss_db(self, node_a, node_b) -> float:
        """Total propagation loss in dB between two positioned nodes."""
        distance = math.hypot(node_a.x - node_b.x, node_a.y - node_b.y)
        loss = self.path_loss.path_loss_db(distance)
        if self.shadowing is not None:
            loss += self.shadowing.shadowing_db(
                node_a.x, node_a.y, node_b.x, node_b.y
            )
        return loss

    def _ap_side_arrays(self, aps: Sequence) -> tuple:
        """Memoized per-AP columns: positions and shadowing key pieces.

        Keyed on the identity of the ``aps`` sequence (the gain cache
        passes its own stable list, and AP sites never move), so row
        refills after mobility don't re-format 10k tags.  A different
        sequence object simply replaces the one-entry memo.

        The key pieces are, per AP, ``b"seed:tag:"`` (the AP leads the
        canonical key) and ``b":tag"`` (the client leads), so every link
        key is one concatenation with the client's ``b"seed:tag"`` or
        ``tag``.
        """
        cached = getattr(self, "_ap_memo", None)
        if cached is not None and cached[0] is aps:
            return cached[1]
        ap_x = np.fromiter((ap.x for ap in aps), np.float64, count=len(aps))
        ap_y = np.fromiter((ap.y for ap in aps), np.float64, count=len(aps))
        leads = tails = None
        if self.shadowing is not None:
            tag = self.shadowing.endpoint_tag
            prefix = f"{self.shadowing.seed}:".encode()
            tags = [tag(ap.x, ap.y) for ap in aps]
            leads = [prefix + ap_tag + b":" for ap_tag in tags]
            tails = [b":" + ap_tag for ap_tag in tags]
        arrays = (ap_x, ap_y, leads, tails)
        self._ap_memo = (aps, arrays)
        return arrays

    def loss_db_rows(self, aps: Sequence, clients: Sequence) -> np.ndarray:
        """Batched :meth:`loss_db`: a ``(len(clients), len(aps))`` block.

        Bit-identical per element to ``loss_db(ap, client)`` -- distances
        through :func:`repro.phy.vecmath.vec_hypot`, path loss through the
        model's batch kernel, shadowing through bulk key construction over
        per-node key pieces -- so batched and scalar cache fills
        interleave freely (the gain-fill oracle discipline; see
        docs/SIMULATION.md).

        The block is computed one :func:`row_chunks` chunk at a time into
        the preallocated output, so every temporary (key lists, digest
        buffer, hypot and Box-Muller arrays, scalar-map lists) is sized
        to one chunk.  Each value depends on its own link only, so the
        chunking cannot change a bit.
        """
        ap_side = self._ap_side_arrays(aps)
        block = np.empty((len(clients), len(aps)))
        for part in row_chunks(len(clients), len(aps)):
            block[part] = self._loss_chunk(ap_side, clients[part])
        return block

    def _loss_chunk(self, ap_side: tuple, clients: Sequence) -> np.ndarray:
        """:meth:`loss_db_rows` for one chunk of clients."""
        ap_x, ap_y, leads, tails = ap_side
        cl_x = np.fromiter(
            (c.x for c in clients), np.float64, count=len(clients)
        )
        cl_y = np.fromiter(
            (c.y for c in clients), np.float64, count=len(clients)
        )
        # loss_db(ap, client) computes hypot(ap.x - c.x, ap.y - c.y).
        dx = ap_x[np.newaxis, :] - cl_x[:, np.newaxis]
        dy = ap_y[np.newaxis, :] - cl_y[:, np.newaxis]
        block = self.path_loss.path_loss_db_batch(vecmath.vec_hypot(dx, dy))
        if self.shadowing is not None and self.shadowing.sigma_db != 0.0:
            shadowing = self.shadowing
            prefix = f"{shadowing.seed}:".encode()
            tag = shadowing.endpoint_tag
            # Canonical endpoint order per link, as the scalar call orders
            # (ap.x, ap.y) against (client.x, client.y).
            swap = shadowing.canonical_swap(
                ap_x[np.newaxis, :],
                ap_y[np.newaxis, :],
                cl_x[:, np.newaxis],
                cl_y[:, np.newaxis],
            )
            keys: List[bytes] = []
            for client, row_swap in zip(clients, swap.tolist()):
                ctag = tag(client.x, client.y)
                # swapped means ap > client: the client tag leads the key.
                client_lead = prefix + ctag
                keys += [
                    client_lead + tail if swapped else lead + ctag
                    for lead, tail, swapped in zip(leads, tails, row_swap)
                ]
            block += shadowing._values_from_keys(keys).reshape(block.shape)
        return block


class GainMatrixCache:
    """Cached pairwise AP <-> client link gains for one deployment.

    The epoch simulators query the same (AP, client) losses every epoch;
    this cache computes each link exactly once and hands out the full
    matrix for vectorized kernels.  By default stale rows fill in bulk
    through the batched kernels (``fill_mode="batched"``:
    :meth:`CompositeChannel.loss_db_rows` plus batched antenna gains),
    which are bit-identical per link to the scalar ``channel.loss_db``
    call; ``fill_mode="scalar"`` keeps the original per-link loop as the
    retained oracle, so either mode's cached values equal direct queries
    exactly and the two modes may be mixed freely across caches.

    Channels are reciprocal (distance and shadowing are symmetric in the
    endpoints, and an AP's antenna gain applies to both link directions),
    so one entry serves downlink and uplink.

    Invalidation is explicit: mobility code calls :meth:`invalidate_client`
    after moving a client (see :meth:`repro.sim.topology.Topology.move_client`);
    only that client's row is recomputed, lazily, on next access.

    Args:
        channel: the composite propagation model.
        aps: access-point sites (column order of the matrix).
        clients: client sites (row order of the matrix).
        ap_antennas: optional per-AP antenna (``ap_id`` -> antenna); its
            bearing-dependent gain toward each client is subtracted from
            the loss.  Omitted APs radiate isotropically.
        cull_loss_db: optional neighbor-culling horizon.  Links whose total
            loss exceeds this are *culled*: consumers treat them as carrying
            exactly zero power (no signal, no interference, no PRACH
            audibility).  ``None`` (the default) disables culling and keeps
            every link live, matching historic behaviour.
        fill_mode: :data:`FILL_BATCHED` (default) fills stale rows through
            the vectorized kernels; :data:`FILL_SCALAR` keeps the per-link
            loop (the bit-identity oracle).
    """

    def __init__(
        self,
        channel: CompositeChannel,
        aps: Sequence,
        clients: Sequence,
        ap_antennas: Optional[Dict[int, "object"]] = None,
        cull_loss_db: Optional[float] = None,
        fill_mode: str = FILL_BATCHED,
    ) -> None:
        if cull_loss_db is not None and not cull_loss_db > 0.0:
            raise ValueError(
                f"cull_loss_db must be > 0 dB or None, got {cull_loss_db!r}"
            )
        if fill_mode not in _FILL_MODES:
            raise ValueError(
                f"fill_mode must be one of {_FILL_MODES!r}, got {fill_mode!r}"
            )
        self.fill_mode = fill_mode
        self.channel = channel
        self._aps = list(aps)
        self._clients = list(clients)
        self.ap_antennas = dict(ap_antennas or {})
        self.cull_loss_db = cull_loss_db
        self.ap_index: Dict[int, int] = {
            ap.ap_id: j for j, ap in enumerate(self._aps)
        }
        self.client_index: Dict[int, int] = {
            c.client_id: i for i, c in enumerate(self._clients)
        }
        self._loss = np.zeros((len(self._clients), len(self._aps)))
        self._row_valid = np.zeros(len(self._clients), dtype=bool)
        self._readonly = self._loss.view()
        self._readonly.setflags(write=False)

    def _fill_row(self, row: int) -> None:
        """Scalar reference fill: the bit-identity oracle for one row."""
        client = self._clients[row]
        for col, ap in enumerate(self._aps):
            loss = self.channel.loss_db(ap, client)
            antenna = self.ap_antennas.get(ap.ap_id)
            if antenna is not None:
                loss -= antenna.gain_towards(ap.x, ap.y, client.x, client.y)
            self._loss[row, col] = loss
        self._row_valid[row] = True

    def _fill_rows(self, rows: Sequence[int]) -> None:
        """Fill many stale rows in one shot (kernels or oracle loop).

        Rows go through :meth:`CompositeChannel.loss_db_rows` one
        :func:`row_chunks` chunk per call and are written into the cache
        chunk by chunk, so no temporary outgrows a chunk (one call over
        every row would add a full-block copy).  Antenna gains subtract
        column-wise through the antennas' batched ``gains_towards`` (one
        IEEE subtract per link, exactly as the scalar loop performs it).
        """
        if self.fill_mode == FILL_SCALAR:
            for row in rows:
                self._fill_row(int(row))
            return
        n_aps = len(self._aps)
        if n_aps == 0:
            self._row_valid[list(rows)] = True
            return
        rows = [int(row) for row in rows]
        for part in row_chunks(len(rows), n_aps):
            chunk = rows[part]
            clients = [self._clients[row] for row in chunk]
            block = self.channel.loss_db_rows(self._aps, clients)
            if self.ap_antennas:
                cl_x = np.fromiter(
                    (c.x for c in clients), np.float64, count=len(clients)
                )
                cl_y = np.fromiter(
                    (c.y for c in clients), np.float64, count=len(clients)
                )
                for col, ap in enumerate(self._aps):
                    antenna = self.ap_antennas.get(ap.ap_id)
                    if antenna is not None:
                        block[:, col] -= antenna.gains_towards(
                            ap.x, ap.y, cl_x, cl_y
                        )
            self._loss[chunk] = block
            self._row_valid[chunk] = True

    def seed(self, block: np.ndarray, sites: Sequence) -> None:
        """Start from a precomputed channel-loss block; copies, never adopts.

        ``block`` must be this cache's channel's ``loss_db_rows`` over its
        APs (in column order) and ``sites``, which must be the cache's
        own client sites (the very objects, in row order) -- e.g. the
        build-time block :func:`repro.sim.topology.reassociate_strongest`
        returns, seeding a cache built over the same sites.  Every row is
        copied in and marked valid.  The block is copied because one
        scenario's block seeds many caches, and a move rewrites cache
        rows in place.

        Raises:
            ValueError: if the cache has AP antennas (the block holds
                channel loss only), the block's shape does not match, or
                ``sites`` are not the cache's clients.
        """
        if self.ap_antennas:
            raise ValueError(
                "a channel-loss block cannot seed a cache with AP antennas"
            )
        if block.shape != self._loss.shape or len(sites) != len(self._clients):
            raise ValueError(
                f"loss block {block.shape} over {len(sites)} sites does not "
                f"match the cache's {self._loss.shape}"
            )
        if any(held is not site for held, site in zip(self._clients, sites)):
            raise ValueError("seed sites are not the cache's client sites")
        np.copyto(self._loss, block)
        self._row_valid[:] = True

    def prefill(self, client_ids: Optional[Sequence[int]] = None) -> None:
        """Eagerly fill stale rows (all, or a client subset) in bulk.

        Unlike :meth:`rows` this returns nothing and copies nothing --
        it exists so builders (network construction, shard workers) can
        push the whole population through the batched kernels up front
        instead of faulting rows in one ``loss_db`` call at a time.
        """
        if client_ids is None:
            stale = np.flatnonzero(~self._row_valid)
        else:
            indices = [self.client_index[cid] for cid in client_ids]
            stale = [row for row in indices if not self._row_valid[row]]
        self._fill_rows(stale)

    def loss_db(self, client_id: int, ap_id: int) -> float:
        """Cached total link loss between a client and an AP, in dB."""
        row = self.client_index[client_id]
        if not self._row_valid[row]:
            self._fill_rows([row])
        return float(self._loss[row, self.ap_index[ap_id]])

    def matrix(self) -> np.ndarray:
        """The full (n_clients, n_aps) loss matrix in dB, read-only.

        Fills any stale rows first, then returns a non-writeable view of
        the cache so callers cannot corrupt it.  Callers that only need a
        few rows should prefer :meth:`rows`, which leaves the rest of the
        cache lazy.
        """
        self._fill_rows(np.flatnonzero(~self._row_valid))
        return self._readonly

    def rows(self, client_ids: Sequence[int]) -> np.ndarray:
        """Loss rows for a subset of clients, in the order given.

        Only the requested rows are (re)computed -- unlike :meth:`matrix`
        this does not eagerly fill the whole cache, which is what the
        incremental epoch needs when only a few clients moved.
        Returns a read-only ``(len(client_ids), n_aps)`` array.

        An empty subset normalizes to an explicit ``(0, n_aps)`` array of
        the cache's float dtype: fancy-indexing with an empty index list
        is dtype-ambiguous on some NumPy versions (an empty ``asarray``
        defaults to float64 *indices*), which used to surface as a 0-row
        view with the wrong dtype.
        """
        indices = [self.client_index[cid] for cid in client_ids]
        if not indices:
            subset = np.empty((0, len(self._aps)), dtype=self._loss.dtype)
            subset.setflags(write=False)
            return subset
        self._fill_rows([row for row in indices if not self._row_valid[row]])
        subset = self._loss[np.asarray(indices, dtype=np.intp)]
        subset.setflags(write=False)
        return subset

    def is_culled(self, client_id: int, ap_id: int) -> bool:
        """True when the link exceeds the culling horizon (if one is set)."""
        if self.cull_loss_db is None:
            return False
        return self.loss_db(client_id, ap_id) > self.cull_loss_db

    def invalidate_client(self, client_id: int, site=None) -> None:
        """Mark one client's links stale, e.g. after a mobility step.

        Args:
            client_id: the moved client.
            site: optionally the client's new :class:`ClientSite`; when
                given, the cached row recomputes against it (the cache
                holds site references, and sites are immutable).
        """
        row = self.client_index[client_id]
        if site is not None:
            self._clients[row] = site
        self._row_valid[row] = False
