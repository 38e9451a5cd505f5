"""Epoch-driven system-level LTE network simulator.

This module glues topology, PHY and MAC into the simulator used for the
paper's large-scale evaluation (Section 6.3.4).  It follows the standard
system-level methodology (the same one ns-3's LTE module uses): radio
quantities are evaluated analytically per *epoch* -- the 1-second
interference-management period -- while everything the paper's claims hinge
on is modelled explicitly:

* per-subchannel SINR including co-channel interference from other cells,
* control-channel (CRS/PDCCH) interference calibrated to Figure 7(b):
  a strong co-channel cell costs up to ~20% goodput even with no data,
* HARQ goodput scaling, CQI quantisation, PF scheduling,
* PRACH audibility at the -10 dB detector operating point,
* imperfect interference detection (2% false positives, 80% true
  positives -- the constants the paper measured and fed to its simulator).

A *subchannel policy* decides each AP's allowed subchannels every epoch.
Plain LTE uses :class:`AllSubchannelsPolicy`; CellFi plugs in its
interference manager (:mod:`repro.core`); the centralized oracle plugs in a
graph-coloring allocator (:mod:`repro.baselines.oracle`).

Two epoch backends compute the radio quantities:

* ``backend="scalar"`` -- the reference oracle: per-link Python loops,
  easy to audit against the formulas in ``docs/SIMULATION.md``;
* ``backend="incremental"`` (default, production) -- whole-matrix NumPy
  kernels over a cached AP<->client gain matrix plus a dirty-row tracker:
  per-AP SINR/CQI/rate blocks are cached and only recomputed when an
  event (mobility, handover/re-attach, a hopping decision, an activity
  change) invalidates them.  Interference sums accumulate in the same
  per-interferer order and dB conversions go through the same
  ``math.log10`` calls as the oracle; interference from APs the cell
  cannot hear (culled by the gain cache's path-loss horizon) is skipped
  -- adding an exact ``0.0`` to an IEEE-754 sum is a bitwise no-op.  The
  backend is therefore *bit-identical* to the scalar oracle for the same
  seeds (``tests/test_lte_network_incremental.py`` and
  ``tests/test_lte_network_vectorized.py`` enforce this).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Protocol, Sequence, Set, Tuple

import numpy as np

from repro.lte.scheduler import Allocation, ProportionalFairScheduler
from repro.obs import runtime as _obs_runtime
from repro.phy.harq import harq_goodput_scale
from repro.phy.mcs import (
    CQI_OUT_OF_RANGE,
    LTE_CQI_TABLE,
    cqi_from_sinr,
    efficiency_from_cqi,
)
from repro.phy.propagation import FILL_BATCHED, CompositeChannel, GainMatrixCache
from repro.phy.resource_grid import RB_BANDWIDTH_HZ, ResourceGrid
from repro.sim.checkpoint import register_dataclass
from repro.sim.rng import RngStreams
from repro.sim.topology import Topology
from repro.utils.dbmath import (
    dbm_to_watt,
    dbm_to_watt_array,
    linear_to_db,
    thermal_noise_dbm,
)

#: Epoch-kernel backend names.
BACKEND_SCALAR = "scalar"
BACKEND_INCREMENTAL = "incremental"
_BACKENDS = (BACKEND_SCALAR, BACKEND_INCREMENTAL)

#: SINR sentinel for links with exactly zero received signal power (a
#: client beyond the culling horizon of its serving AP, or a signal that
#: underflowed to 0.0 W).  ``log10(0)`` is ``-inf`` and NaN compares
#: unordered in ``searchsorted`` -- which used to map dead links to the
#: *highest* CQI bin.  A large-but-finite floor keeps every downstream
#: consumer on its ordinary path: CQI 0 (out of range), rate 0, HARQ
#: scale 0 and maximum radio-link-failure probability.
ZERO_SIGNAL_SINR_DB = -400.0

#: PRACH occupies 6 RBs (1.08 MHz); audibility is evaluated over this band.
PRACH_BANDWIDTH_HZ = 6 * RB_BANDWIDTH_HZ

#: The PRACH detector's reliable operating point (paper Section 6.3.3):
#: preambles below -10 dB SNR are not counted.
PRACH_DETECTION_SNR_DB = -10.0

#: PRACH open-loop power control target (TS 36.213
#: preambleInitialReceivedTargetPower): a UE transmits just enough for its
#: serving cell to receive the preamble at this level, so nearby clients
#: radiate far less than the 20 dBm cap.  This is what localises the
#: paper's contention estimate: an AP overhears exactly the clients whose
#: path loss to it is within ~a dozen dB of their serving-cell path loss --
#: the clients its downlink would actually disturb.
PRACH_TARGET_RX_DBM = -104.0

#: Link-row refreshes run in chunks of about this many links, which bounds
#: their temporaries (one Python float per link for the watts).
_LINK_CHUNK = 16384

#: Interference-detection quality measured on the testbed (Section 6.3.2)
#: and injected into the large-scale simulation, as the paper did.
CQI_DETECTOR_TRUE_POSITIVE = 0.80
CQI_DETECTOR_FALSE_POSITIVE = 0.02

#: Interference ground truth follows the paper's estimator semantics: a
#: subchannel is "bad" when its CQI falls below this fraction of the
#: interference-free CQI.  Crucially this is *rate-relative*: a client next
#: to its AP keeps CQI 15 despite a weak interferer and is NOT considered
#: interfered -- the property the channel re-use heuristic exploits.
INTERFERENCE_CQI_DROP_FRACTION = 0.6

#: Control-channel interference ceiling calibrated to Figure 7(b): "the two
#: vary by at most 20% and in most cases much less than that".
CONTROL_INTERFERENCE_MAX_LOSS = 0.20

#: Throughput below which a client counts as starved / not connected in the
#: coverage metrics (Figure 9).  50 kb/s is ~5% of the 1 Mb/s target rate.
STARVATION_THRESHOLD_BPS = 50e3

#: Radio-link-failure model, calibrated to the Section 6.3.1 observation
#: that data interference at low SINR causes "frequent disconnections"
#: (which control-channel interference alone does not).  Below
#: ``RLF_SAFE_SINR_DB`` the per-epoch disconnection probability ramps up
#: linearly, saturating at ``RLF_MAX_PROBABILITY``.
RLF_SAFE_SINR_DB = 5.0
RLF_SLOPE_PER_DB = 0.08
RLF_MAX_PROBABILITY = 0.9


def _elementwise_db(ratio: np.ndarray) -> np.ndarray:
    """``10 * log10`` per element, through ``math.log10``.

    NumPy's vectorised ``log10`` uses SIMD polynomials that differ from
    libm in the last ulp, which would break the bit-for-bit equivalence
    between the epoch backends.  The element count per epoch is small
    (clients x subchannels), so scalar libm calls are cheap.

    Non-positive ratios (zero received signal on a culled or underflowed
    link) clamp to :data:`ZERO_SIGNAL_SINR_DB` instead of producing
    ``-inf``/NaN.
    """
    flat = np.array(
        [
            10.0 * math.log10(v) if v > 0.0 else ZERO_SIGNAL_SINR_DB
            for v in ratio.flat
        ]
    )
    return flat.reshape(ratio.shape)


def _control_scale(sir_db: float) -> float:
    """Figure 7(b) goodput multiplier from a signal-to-interferer ratio.

    Shared by both epoch backends so the expression stays bit-for-bit
    identical.  ``sir_db`` may be infinite (one dead link) or NaN (both the
    serving and the strongest interfering link are dead); a dead serving
    link delivers zero rate anyway, so NaN resolves to "no control loss".
    """
    if math.isnan(sir_db):
        return 1.0
    loss = CONTROL_INTERFERENCE_MAX_LOSS * math.exp(-max(sir_db, 0.0) / 10.0)
    return 1.0 - min(loss, CONTROL_INTERFERENCE_MAX_LOSS)


def rlf_probability(data_sinr_db: float) -> float:
    """Per-epoch probability of radio link failure at a given data SINR."""
    if data_sinr_db >= RLF_SAFE_SINR_DB:
        return 0.0
    return min(
        RLF_MAX_PROBABILITY, RLF_SLOPE_PER_DB * (RLF_SAFE_SINR_DB - data_sinr_db)
    )


@dataclass
class ClientObservation:
    """Per-client sensing state an AP can legitimately learn in one epoch.

    Attributes:
        subband_cqi: latest reported CQI per subchannel (post-quantisation).
        max_subband_cqi: per-subchannel max-tracked CQI -- the estimate of
            interference-free quality the utility function uses.
        interference_detected: noisy detector verdict per subchannel.
        scheduled_fraction: airtime fraction per subchannel last epoch.
    """

    subband_cqi: List[int]
    max_subband_cqi: List[int]
    interference_detected: List[bool]
    scheduled_fraction: Dict[int, float] = field(default_factory=dict)


@dataclass
class ApObservation:
    """Everything one AP senses during an epoch (no explicit coordination).

    Attributes:
        ap_id: the observing access point.
        n_active_clients: its own active client count (N_i).
        estimated_contenders: PRACH-estimated active clients in the
            neighbourhood, including its own (NP_i).
        clients: per-client sensing detail.
    """

    ap_id: int
    n_active_clients: int
    estimated_contenders: int
    clients: Dict[int, ClientObservation] = field(default_factory=dict)


# Observations cross epoch boundaries (this epoch's sensing feeds the next
# decision), so epoch-granular checkpoints must serialize them.
register_dataclass(ClientObservation)
register_dataclass(ApObservation)


@dataclass
class EpochResult:
    """Outcome of one simulated epoch.

    Attributes:
        epoch_index: zero-based epoch number.
        served_bits: bits delivered per client.
        throughput_bps: epoch-average throughput per client.
        allocations: scheduler outcome per AP.
        observations: sensing snapshot per AP (input for the next decision).
        connected: whether each client cleared the starvation threshold.
    """

    epoch_index: int
    served_bits: Dict[int, float]
    throughput_bps: Dict[int, float]
    allocations: Dict[int, Allocation]
    observations: Dict[int, ApObservation]
    connected: Dict[int, bool]


@dataclass
class _EpochLinks:
    """What one backend computes for one AP before scheduling.

    ``observe`` is deferred (called after the scheduler ran) so detector
    RNG draws happen at the same point of the stream in both backends.
    """

    rate_fn: Callable[[int, int], float]
    disconnected: Set[int]
    observe: Callable[[Allocation, np.random.Generator], ApObservation]


class SubchannelPolicy(Protocol):
    """Decides each AP's allowed subchannels at the start of every epoch."""

    def decide(
        self,
        epoch_index: int,
        observations: Optional[Dict[int, ApObservation]],
    ) -> Dict[int, Set[int]]:
        """Return allowed subchannels per AP for the coming epoch.

        ``observations`` is ``None`` on the first epoch (nothing sensed yet).
        """


class AllSubchannelsPolicy:
    """Plain LTE: every AP transmits on the full carrier, uncoordinated."""

    def __init__(self, ap_ids: Sequence[int], n_subchannels: int) -> None:
        self._decision = {
            ap_id: set(range(n_subchannels)) for ap_id in ap_ids
        }

    def decide(self, epoch_index, observations):
        """All subchannels for everyone, always."""
        return {ap: set(subs) for ap, subs in self._decision.items()}


class LteNetworkSimulator:
    """System-level simulator of co-channel LTE cells on a shared carrier.

    Args:
        topology: node placement (shared across compared technologies).
        grid: the LTE carrier all cells share (paper: 5 MHz, TDD config 4).
        channel: propagation model.
        rngs: named random streams (detector noise, scheduling tie-breaks).
        ap_tx_power_dbm: per-cell conducted power (paper sims: 30 dBm).
        ue_tx_power_dbm: client power (TVWS cap: 20 dBm).
        noise_figure_db: client receiver noise figure.
        control_interference: apply the Figure 7(b) control-channel loss.
        epoch_s: epoch duration (the 1 s allocation interval).
        backend: ``"incremental"`` (default) or ``"scalar"`` (the
            reference oracle); both produce bit-identical results for the
            same seeds.
        gain_cache: optional pre-built :class:`GainMatrixCache` for this
            topology/channel (shared with other consumers); built
            internally when omitted.
        cull_loss_db: optional neighbor-culling path-loss horizon (dB)
            forwarded to the internally built gain cache: links lossier
            than this carry exactly zero power (no signal, no
            interference, no PRACH audibility) in *every* backend.  When
            ``gain_cache`` is injected its own horizon governs and this
            argument must match or stay ``None``.
        gain_fill: gain-cache fill mode (``"batched"`` default,
            ``"scalar"`` for the per-link oracle loop) forwarded to the
            internally built cache; bit-identical either way.  When
            ``gain_cache`` is injected its own ``fill_mode`` governs and
            this argument is ignored.
    """

    def __init__(
        self,
        topology: Topology,
        grid: ResourceGrid,
        channel: CompositeChannel,
        rngs: RngStreams,
        ap_tx_power_dbm: float = 30.0,
        ue_tx_power_dbm: float = 20.0,
        noise_figure_db: float = 7.0,
        control_interference: bool = True,
        epoch_s: float = 1.0,
        detector_true_positive: float = CQI_DETECTOR_TRUE_POSITIVE,
        detector_false_positive: float = CQI_DETECTOR_FALSE_POSITIVE,
        backend: str = BACKEND_INCREMENTAL,
        gain_cache: Optional[GainMatrixCache] = None,
        cull_loss_db: Optional[float] = None,
        gain_fill: str = FILL_BATCHED,
        shard_ap_ids: Optional[Sequence[int]] = None,
    ) -> None:
        self.topology = topology
        self.grid = grid
        self.channel = channel
        self.rngs = rngs
        self.ap_tx_power_dbm = ap_tx_power_dbm
        self.ue_tx_power_dbm = ue_tx_power_dbm
        self.noise_figure_db = noise_figure_db
        self.control_interference = control_interference
        self.epoch_s = epoch_s
        if backend not in _BACKENDS:
            raise ValueError(
                f"backend must be one of {_BACKENDS!r}, got {backend!r}"
            )
        self.backend = backend
        if not 0.0 <= detector_false_positive <= detector_true_positive <= 1.0:
            raise ValueError(
                "require 0 <= detector_false_positive <= detector_true_positive <= 1"
            )
        self.detector_true_positive = detector_true_positive
        self.detector_false_positive = detector_false_positive
        # Shard view: when ``shard_ap_ids`` is given this simulator owns
        # only those APs and the clients attached to them.  Link rows are
        # filled (and schedulers instantiated) for owned clients/APs only;
        # foreign rows stay exact zeros, which the culling contract already
        # treats as dead links.  ``run_epoch`` then requires externally
        # merged PRACH counts and fast-forwards the epoch RNG streams over
        # foreign APs so the shard-local draws land on the same PCG64
        # offsets as the unsharded run (see repro.sim.shard).
        if shard_ap_ids is not None:
            if backend != BACKEND_INCREMENTAL:
                raise ValueError(
                    "shard_ap_ids requires the incremental backend, "
                    f"got {backend!r}"
                )
            known = {ap.ap_id for ap in topology.aps}
            unknown = set(shard_ap_ids) - known
            if unknown:
                raise ValueError(
                    f"shard_ap_ids not in topology: {sorted(unknown)}"
                )
            self.shard_ap_ids: Optional[frozenset] = frozenset(shard_ap_ids)
            self._owned_clients: Optional[Set[int]] = {
                client.client_id
                for client in topology.clients
                if client.ap_id in self.shard_ap_ids
            }
        else:
            self.shard_ap_ids = None
            self._owned_clients = None
        self.schedulers: Dict[int, ProportionalFairScheduler] = {
            ap.ap_id: ProportionalFairScheduler()
            for ap in topology.aps
            if self._owns_ap(ap.ap_id)
        }
        if gain_cache is not None:
            if (
                cull_loss_db is not None
                and gain_cache.cull_loss_db != cull_loss_db
            ):
                raise ValueError(
                    "cull_loss_db conflicts with the injected gain cache: "
                    f"{cull_loss_db!r} vs {gain_cache.cull_loss_db!r}"
                )
            self.gain_cache = gain_cache
        else:
            self.gain_cache = GainMatrixCache(
                channel,
                topology.aps,
                topology.clients,
                cull_loss_db=cull_loss_db,
                fill_mode=gain_fill,
            )
        self._precompute_link_powers()
        self._max_cqi_state: Dict[Tuple[int, int], int] = {}
        # Incremental-backend state: per-AP row-set versions (bumped by
        # the events that dirty an AP's block -- mobility, handover,
        # re-attach), cached per-AP epoch blocks keyed on (version,
        # interference/control/RLF signatures), cached audible-column
        # masks, and per-epoch dirty/cull counters for benchmarks and CI.
        self._rows_version: Dict[int, int] = {ap.ap_id: 0 for ap in topology.aps}
        self._ap_blocks: Dict[int, Tuple[tuple, Dict[str, Any]]] = {}
        self._audible_cols: Dict[int, Tuple[int, np.ndarray, int]] = {}
        # Epoch decision context (active set + subchannel grants).  While it
        # repeats epoch over epoch, a per-AP (rows_version, ctx_serial)
        # stamp proves the cached block's signature cannot have changed,
        # so the signature rebuild is skipped entirely for clean APs.
        self._epoch_ctx: Optional[tuple] = None
        self._ctx_serial: int = 0
        self._block_fast: Dict[int, Tuple[int, int, bool]] = {}
        # Per-AP dirty client rows since the cached block was last
        # validated.  ``None`` means the AP's row membership itself changed
        # (handover), which forces a full block recompute; a set of client
        # ids allows the much cheaper row-level patch.
        self._dirty_rows: Dict[int, Optional[Set[int]]] = {
            ap.ap_id: set() for ap in topology.aps
        }
        # Subchannel-mask cache shared by block compute/patch: the mask
        # for a given grant tuple is a pure function of the tuple, so one
        # read-only array serves every AP and epoch.
        self._sub_masks: Dict[tuple, np.ndarray] = {}
        # Per-AP signature cache: when a dirty AP's audible-column set and
        # the epoch context both match the last rebuild, the signature
        # tuples are reused instead of being rebuilt from the grant maps.
        self._sig_cache: Dict[int, tuple] = {}
        # Foreign-AP RLF gate cache (shard mode): per epoch context, whether
        # a foreign AP draws RLF values, so the fast-forward discard count
        # is not recomputed from the grant maps every epoch.
        self._foreign_rlf_cache: Tuple[int, Dict[int, bool]] = (-1, {})
        self.last_epoch_stats: Dict[str, int] = {}

    # -- Shard ownership ------------------------------------------------------

    def _owns_ap(self, ap_id: int) -> bool:
        return self.shard_ap_ids is None or ap_id in self.shard_ap_ids

    def _owns_client(self, client_id: int) -> bool:
        return self._owned_clients is None or client_id in self._owned_clients

    # -- Precomputation -------------------------------------------------------

    def _precompute_link_powers(self) -> None:
        """Cache per-RB received powers for every (client, AP) pair.

        The dense ``(n_clients, n_aps)`` link matrices -- per-RB received
        dBm, the same in watts, and PRACH audibility -- are the only
        derived link store: every backend and every per-link accessor
        reads them.  They fill from :class:`GainMatrixCache` rows through
        :meth:`_refresh_rows`, the one refresh path: here for every owned
        row, later for the rows that client events left pending (see
        :attr:`_rx_dbm_mat`).
        """
        # Power spectral density: total power spread across all RBs.
        psd_offset_db = 10.0 * math.log10(self.grid.n_rbs)
        self._per_rb_tx_dbm = self.ap_tx_power_dbm - psd_offset_db
        self._prach_noise_dbm = thermal_noise_dbm(
            PRACH_BANDWIDTH_HZ, self.noise_figure_db
        )
        # Noise over one subchannel (use the nominal subband width).
        self._subchannel_noise_dbm = thermal_noise_dbm(
            self.grid.subband_rbs * RB_BANDWIDTH_HZ, self.noise_figure_db
        )
        self._rb_noise_dbm = thermal_noise_dbm(RB_BANDWIDTH_HZ, self.noise_figure_db)
        self._rb_noise_w = dbm_to_watt(self._rb_noise_dbm)

        clients = self.topology.clients
        aps = self.topology.aps
        self._client_row: Dict[int, int] = dict(self.gain_cache.client_index)
        self._ap_col: Dict[int, int] = dict(self.gain_cache.ap_index)
        n_clients, n_aps = len(clients), len(aps)

        self._rx_dbm_rows = np.zeros((n_clients, n_aps))
        self._rx_w_rows = np.zeros((n_clients, n_aps))
        self._prach_rows = np.zeros((n_clients, n_aps), dtype=bool)
        # Owned clients whose link rows a move or re-attach left stale;
        # the first read of a link matrix refreshes them all at once.
        self._pending_links: Set[int] = set()
        # Bulk-fill every owned row up front so the refresh below only
        # reads cached losses; the wall-clock of this fill is what the
        # ``--gain-fill`` benchmark arm and the shard smoke gate's
        # cache-build seconds measure.
        owned = [c.client_id for c in clients if self._owns_client(c.client_id)]
        fill_start = time.perf_counter()
        self.gain_cache.prefill(owned)
        self.gain_prefill_s = time.perf_counter() - fill_start
        self._refresh_rows(owned)

        self._rows_of_ap: Dict[int, np.ndarray] = {}
        for ap in aps:
            self._rebuild_rows_of(ap.ap_id)

        # Lookup tables for the incremental kernels.  The rate table is built
        # through the very same scalar grid call the reference backend makes,
        # so table lookups are bit-identical to recomputation.
        n_subs = self.grid.n_subchannels
        self._cqi_min_sinr = np.array([e.min_sinr_db for e in LTE_CQI_TABLE])
        self._rate_table = np.zeros((len(LTE_CQI_TABLE) + 1, n_subs))
        for cqi in range(1, len(LTE_CQI_TABLE) + 1):
            eff = efficiency_from_cqi(cqi)
            for sub in range(n_subs):
                self._rate_table[cqi, sub] = self.grid.subchannel_downlink_rate_bps(
                    eff, sub
                )
        # HARQ memo in two generations: this epoch's keys and the previous
        # epoch's (see :meth:`_harq_rows`).
        self._harq_cache: Dict[Tuple[float, int], float] = {}
        self._harq_prev: Dict[Tuple[float, int], float] = {}
        self._max_cqi_vec = np.zeros((n_clients, n_subs), dtype=np.int64)

    def _rebuild_rows_of(self, ap_id: int) -> None:
        """(Re)build one AP's gain-matrix row index array.

        Called at build time and whenever a client's *serving* AP changes
        (handover / re-attach): the incremental backend reads the serving
        column through this mapping, so a stale entry would feed it
        signal power from the old serving cell.
        """
        self._rows_of_ap[ap_id] = np.array(
            [
                self._client_row[c.client_id]
                for c in self.topology.clients_of(ap_id)
            ],
            dtype=np.intp,
        )

    def _refresh_rows(self, client_ids: Sequence[int]) -> None:
        """(Re)compute the given clients' rows of every link matrix.

        Used for the initial fill and for the rows that :meth:`move_client`
        / :meth:`reattach_client` left pending.  Losses come from one
        batched gain-cache read per chunk of rows; the channel is
        reciprocal, so one cached entry serves the downlink data path and
        the uplink PRACH path, whose open-loop power control targets each
        client's current serving cell.  Every link gets the same IEEE
        subtracts and compares as a scalar evaluation, and watts go
        through :func:`dbm_to_watt_array`, bit-identical to the scalar
        :func:`dbm_to_watt` per link.

        Links beyond the gain cache's culling horizon are stored as dead:
        ``-inf`` dBm, exactly ``0.0`` W (``10.0 ** -inf``) and inaudible
        PRACH.  All backends read these same matrices, so culling changes
        the physics for all of them identically (the scalar oracle
        included).
        """
        n_aps = len(self._ap_col)
        step = max(1, _LINK_CHUNK // max(1, n_aps))
        horizon = self.gain_cache.cull_loss_db
        for start in range(0, len(client_ids), step):
            cids = client_ids[start : start + step]
            rows = [self._client_row[cid] for cid in cids]
            loss = self.gain_cache.rows(cids)
            serving = [
                self._ap_col[self.topology.client(cid).ap_id] for cid in cids
            ]
            serving_loss = loss[np.arange(len(cids)), serving]
            prach_tx_dbm = np.minimum(
                self.ue_tx_power_dbm, PRACH_TARGET_RX_DBM + serving_loss
            )
            rx_dbm = self._per_rb_tx_dbm - loss
            snr = prach_tx_dbm[:, np.newaxis] - loss - self._prach_noise_dbm
            audible = snr >= PRACH_DETECTION_SNR_DB
            if horizon is not None:
                culled = loss > horizon
                rx_dbm[culled] = -np.inf
                audible[culled] = False
            self._rx_dbm_rows[rows] = rx_dbm
            self._rx_w_rows[rows] = dbm_to_watt_array(rx_dbm)
            self._prach_rows[rows] = audible

    def _flush_links(self) -> None:
        """Refresh every pending link row in one batched pass."""
        pending = sorted(self._pending_links)
        self._pending_links.clear()
        self._refresh_rows(pending)

    # The three link matrices read through these properties, the single
    # flush point of the deferred refresh: whoever reads first after a
    # batch of client events (the epoch, an accessor, the shard barrier's
    # PRACH counts, the oracle baseline) refreshes all pending rows, so
    # no reader ever sees a stale row.

    @property
    def _rx_dbm_mat(self) -> np.ndarray:
        """Per-RB received power in dBm, ``(n_clients, n_aps)``."""
        if self._pending_links:
            self._flush_links()
        return self._rx_dbm_rows

    @property
    def _rx_w_mat(self) -> np.ndarray:
        """Per-RB received power in watts, ``(n_clients, n_aps)``."""
        if self._pending_links:
            self._flush_links()
        return self._rx_w_rows

    @property
    def _prach_mat(self) -> np.ndarray:
        """PRACH audibility per (client, AP), ``(n_clients, n_aps)`` bool."""
        if self._pending_links:
            self._flush_links()
        return self._prach_rows

    def _mark_rows_dirty(self, ap_id: int) -> None:
        """Bump an AP's row-set version: its cached epoch block is stale."""
        self._rows_version[ap_id] += 1

    def move_client(self, client_id: int, x: float, y: float) -> None:
        """Relocate a client (mobility step); its cached links go stale.

        Invalidates exactly one row of the gain cache and of every derived
        power table; all other links stay untouched.  An owned client's
        link rows are refreshed lazily, together with every other pending
        row, on the next read of a link matrix.  Only the serving
        AP's cached epoch block is dirtied: the moved row feeds signal and
        control-channel terms of the serving cell alone, while its uplink
        audibility (used by the PRACH contention estimate) is re-read
        every epoch.
        """
        site = self.topology.move_client(client_id, x, y)
        self.gain_cache.invalidate_client(client_id, site)
        if self._owns_client(client_id):
            self._pending_links.add(client_id)
        self._mark_rows_dirty(site.ap_id)
        dirty = self._dirty_rows[site.ap_id]
        if dirty is not None:
            dirty.add(client_id)

    def reattach_client(self, client_id: int, new_ap_id: int) -> None:
        """Hand a client over to another serving AP.

        Marks the client's cached links pending (PRACH power control
        targets the new serving cell) and rebuilds the row mapping of both
        the old and the new serving AP -- the fix for the stale
        ``_rows_of_ap`` handover bug.  Both APs' cached epoch blocks are
        dirtied.
        """
        old_ap_id = self.topology.client(client_id).ap_id
        if old_ap_id == new_ap_id:
            return
        site = self.topology.reattach_client(client_id, new_ap_id)
        if self._owned_clients is None:
            self._pending_links.add(client_id)
        else:
            was_owned = client_id in self._owned_clients
            now_owned = new_ap_id in self.shard_ap_ids
            if now_owned and not was_owned:
                # Adopt: the client migrated in across the shard boundary.
                # Its cross-epoch max-CQI row travels separately (see
                # import_client_row / repro.sim.shard).
                self._owned_clients.add(client_id)
                self._pending_links.add(client_id)
            elif was_owned and not now_owned:
                # Disown: zero the link rows back to the dead-link state
                # the culling contract guarantees for foreign clients.
                self._owned_clients.discard(client_id)
                self._pending_links.discard(client_id)
                self._clear_client_links(site)
            elif was_owned:
                self._pending_links.add(client_id)
            # Foreign-to-foreign handover touches only the replicated
            # topology and the version stamps below.
        for ap_id in (old_ap_id, new_ap_id):
            self._rebuild_rows_of(ap_id)
            self._mark_rows_dirty(ap_id)
            self._dirty_rows[ap_id] = None

    def _clear_client_links(self, client) -> None:
        """Reset a disowned client's cached links to the dead-link state."""
        row = self._client_row[client.client_id]
        self._rx_dbm_rows[row, :] = 0.0
        self._rx_w_rows[row, :] = 0.0
        self._prach_rows[row, :] = False
        self._max_cqi_vec[row, :] = 0

    def export_client_row(self, client_id: int) -> List[int]:
        """Cross-shard migration: export the client's max-CQI tracker row."""
        return [int(v) for v in self._max_cqi_vec[self._client_row[client_id]]]

    def import_client_row(self, client_id: int, max_cqi_row: Sequence[int]) -> None:
        """Cross-shard migration: import a max-CQI row exported by the old owner."""
        self._max_cqi_vec[self._client_row[client_id]] = np.asarray(
            max_cqi_row, dtype=np.int64
        )

    # -- Radio queries ----------------------------------------------------------

    def _owned_row(self, client_id: int) -> int:
        """A client's link-matrix row; ``KeyError`` if this view lacks it.

        A shard view keeps live links only for the clients it owns; a
        foreign client's row is the zeroed dead-link state, which must not
        read as a 0 dBm link.
        """
        if not self._owns_client(client_id):
            raise KeyError(f"client {client_id} is not owned by this shard")
        return self._client_row[client_id]

    def rx_rb_power_dbm(self, client_id: int, ap_id: int) -> float:
        """Per-RB received power at a client from an AP."""
        return self._rx_dbm_mat.item(
            self._owned_row(client_id), self._ap_col[ap_id]
        )

    def rx_rb_levels_dbm(self, client_id: int) -> Dict[int, float]:
        """Per-RB received power at a client from every AP, in AP order.

        Equal to :meth:`rx_rb_power_dbm` per AP, read from one matrix row.
        """
        row = self._rx_dbm_mat[self._owned_row(client_id)].tolist()
        cols = self._ap_col
        return {ap.ap_id: row[cols[ap.ap_id]] for ap in self.topology.aps}

    def prach_audible(self, client_id: int, ap_id: int) -> bool:
        """Whether ``ap_id`` can detect PRACH preambles of ``client_id``."""
        return self._prach_mat.item(
            self._owned_row(client_id), self._ap_col[ap_id]
        )

    def sinr_db(
        self,
        client_id: int,
        serving_ap: int,
        interfering_aps: Sequence[int],
    ) -> float:
        """Per-RB SINR at a client for a given co-RB interferer set."""
        rx_w = self._rx_w_mat[self._owned_row(client_id)].tolist()
        cols = self._ap_col
        signal_w = rx_w[cols[serving_ap]]
        if signal_w <= 0.0:
            return ZERO_SIGNAL_SINR_DB
        noise_w = self._rb_noise_w
        interference_w = sum(rx_w[cols[ap]] for ap in interfering_aps)
        return linear_to_db(signal_w / (noise_w + interference_w))

    def clean_sinr_db(self, client_id: int, serving_ap: int) -> float:
        """SINR with no secondary-user interference (SNR)."""
        return self.sinr_db(client_id, serving_ap, ())

    def _weighted_sinr_db(
        self,
        client_id: int,
        serving_ap: int,
        interfering_aps: Sequence[int],
        weights: Sequence[float],
    ) -> float:
        """SINR with per-interferer duty-cycle weights in [0, 1]."""
        rx_w = self._rx_w_mat[self._owned_row(client_id)].tolist()
        cols = self._ap_col
        signal_w = rx_w[cols[serving_ap]]
        if signal_w <= 0.0:
            return ZERO_SIGNAL_SINR_DB
        noise_w = self._rb_noise_w
        interference_w = sum(
            w * rx_w[cols[ap]] for ap, w in zip(interfering_aps, weights)
        )
        return linear_to_db(signal_w / (noise_w + interference_w))

    def control_interference_scale(
        self, client_id: int, serving_ap: int, co_channel_aps: Sequence[int]
    ) -> float:
        """Goodput multiplier for CRS/PDCCH interference (Figure 7(b)).

        The loss decays with the signal-to-strongest-interferer ratio: ~20%
        when the interferer is as strong as the serving cell, negligible
        beyond ~+20 dB.
        """
        if not self.control_interference or not co_channel_aps:
            return 1.0
        rx_dbm = self._rx_dbm_mat[self._owned_row(client_id)].tolist()
        cols = self._ap_col
        signal = rx_dbm[cols[serving_ap]]
        strongest = max(rx_dbm[cols[ap]] for ap in co_channel_aps)
        return _control_scale(signal - strongest)

    # -- Epoch execution -----------------------------------------------------------

    def prach_partial_counts(self, demands_bits: Dict[int, float]) -> np.ndarray:
        """Per-AP PRACH preamble counts from this shard's owned clients.

        Foreign clients' rows of ``_prach_mat`` are all-``False``, so the
        partial sums over shards are disjoint and their elementwise total
        equals the unsharded count exactly -- integer addition, no rounding.
        """
        clients = self.topology.clients
        active = np.fromiter(
            (demands_bits.get(c.client_id, 0.0) > 0.0 for c in clients),
            dtype=bool,
            count=len(clients),
        )
        return self._prach_mat[active].sum(axis=0)

    def _foreign_rlf_gate(
        self,
        ap_id: int,
        allowed: Dict[int, Set[int]],
        active_list: List[int],
    ) -> bool:
        """Whether a foreign active AP draws RLF values this epoch.

        Mirrors the ``has_rlf_sources`` computation of the simulated
        backends: the AP holds grants and at least one *other* active AP
        overlaps them.  Cached per decision context (``_ctx_serial``).
        """
        serial, gates = self._foreign_rlf_cache
        if serial != self._ctx_serial:
            gates = {}
            self._foreign_rlf_cache = (self._ctx_serial, gates)
        gate = gates.get(ap_id)
        if gate is None:
            my_subs = allowed.get(ap_id, set())
            gate = False
            if my_subs:
                for other in active_list:
                    if other != ap_id and not my_subs.isdisjoint(
                        allowed.get(other, set())
                    ):
                        gate = True
                        break
            gates[ap_id] = gate
        return gate

    def run_epoch(
        self,
        epoch_index: int,
        allowed: Dict[int, Set[int]],
        demands_bits: Dict[int, float],
        prach_counts: Optional[np.ndarray] = None,
    ) -> EpochResult:
        """Simulate one epoch under the given subchannel assignment.

        Args:
            epoch_index: epoch number (for bookkeeping only).
            allowed: allowed subchannels per AP.
            demands_bits: downlink demand per client for this epoch
                (``inf`` = saturated).
            prach_counts: externally merged per-AP PRACH contention counts.
                Required in shard mode (a shard only sees its own clients'
                preambles, so the barrier must reduce the partial counts
                from :meth:`prach_partial_counts` across shards); when
                omitted, the counts are computed locally as before.

        Returns:
            The epoch outcome including the sensing observations a policy
            needs for the next decision.
        """
        if self.shard_ap_ids is not None and prach_counts is None:
            raise ValueError(
                "sharded simulators need externally merged prach_counts "
                "(drive them through repro.sim.shard.ShardedNetwork)"
            )
        self._harq_prev = self._harq_cache
        self._harq_cache = {}
        tel = _obs_runtime.active()
        span = None
        if tel is not None:
            # Epoch drivers have no event engine, so the telemetry clock
            # follows the epoch boundary here.
            tel.set_time(epoch_index * self.epoch_s)
            span = tel.span("lte.epoch", cat="sim", args={"epoch": epoch_index})
            span.__enter__()

        # One pass over the clients builds every per-AP demand dict (in
        # the same per-AP client order as ``clients_of``, which the
        # ``_clients_by_ap`` lists share by construction).
        ap_demand_map: Dict[int, Dict[int, float]] = {
            ap.ap_id: {} for ap in self.topology.aps
        }
        ap_active_map: Dict[int, Dict[int, float]] = {
            ap.ap_id: {} for ap in self.topology.aps
        }
        active_flags: List[bool] = []
        for c in self.topology.clients:
            d = demands_bits.get(c.client_id, 0.0)
            ap_demand_map[c.ap_id][c.client_id] = d
            if d > 0.0:
                ap_active_map[c.ap_id][c.client_id] = d
                active_flags.append(True)
            else:
                active_flags.append(False)
        active_aps = {ap_id for ap_id, act in ap_active_map.items() if act}
        # Active AP ids in topology order: the co-channel list every
        # backend iterates, hoisted out of the per-AP loop.
        active_list = [
            ap.ap_id for ap in self.topology.aps if ap.ap_id in active_aps
        ]

        incremental = self.backend == BACKEND_INCREMENTAL
        if not incremental:
            # Per-subchannel interferer sets (only active cells interfere);
            # only the scalar backend consumes this dense map.
            interferers_on: Dict[int, List[int]] = {
                sub: [
                    ap_id
                    for ap_id, subs in allowed.items()
                    if sub in subs and ap_id in active_aps
                ]
                for sub in range(self.grid.n_subchannels)
            }

        served_bits: Dict[int, float] = {}
        throughput: Dict[int, float] = {}
        allocations: Dict[int, Allocation] = {}
        observations: Dict[int, ApObservation] = {}
        connected: Dict[int, bool] = {}

        detector_rng = self.rngs.stream("cqi-detector")
        rlf_rng = self.rngs.stream("rlf")

        if incremental and prach_counts is None:
            # Epoch-wide active-client mask in gain-matrix row order (the
            # demand-map pass above iterates the same client order), and
            # the per-AP PRACH contention counts it implies -- computed
            # once per epoch instead of once per AP (the count for AP j is
            # exactly ``count_nonzero(active & prach[:, j])``).
            active_client_vec = np.array(active_flags, dtype=bool)
            prach_counts = self._prach_mat[active_client_vec].sum(axis=0)
        if incremental:
            # Canonicalised subchannel sets and the active slice of the
            # decision, shared by every AP's cache-key construction.
            subs_keys = {
                ap_id: tuple(sorted(subs)) for ap_id, subs in allowed.items()
            }
            active_entries = [
                (ap_id, subs_keys[ap_id])
                for ap_id in allowed
                if ap_id in active_aps
            ]
            # One serial per distinct decision context: while the policy
            # repeats its grants and the active set is stable, clean APs
            # can skip rebuilding their cache-key signatures.
            ctx = (
                tuple(active_list),
                tuple(active_entries),
                tuple(sorted(subs_keys.items())),
            )
            if ctx != self._epoch_ctx:
                self._epoch_ctx = ctx
                self._ctx_serial += 1
            self.last_epoch_stats = {
                "dirty_aps": 0,
                "clean_aps": 0,
                "dirty_rows": 0,
                "clean_rows": 0,
                "culled_columns": 0,
                "total_columns": 0,
            }

        # Shard mode walks the full topology-ordered AP sequence but only
        # simulates owned APs.  Foreign APs contribute no arithmetic (their
        # interference reaches owned clients through the full gain rows,
        # and culled links are exact 0.0 no-ops), yet their epoch RNG draws
        # must still advance the shared streams: the counts are accumulated
        # and discarded in one batched ``rng.random(n)`` per stream, which
        # advances PCG64 to exactly the offset n scalar draws would reach.
        #
        # The epoch runs in three passes over the APs: links (every RLF
        # draw), one batched PF schedule, then results and ``observe``
        # (every detector draw).  The two streams are independent
        # generators and each pass keeps the topology order, so every
        # stream sees the same draws at the same offsets as one interleaved
        # per-AP loop.
        sharded = self.shard_ap_ids is not None
        # Per owned AP: (ap_id, clients, links, foreign detector draws to
        # discard before its observe, index of its job in ``jobs`` or None).
        owned: List[Tuple[int, List[Any], _EpochLinks, int, Optional[int]]] = []
        jobs = []
        pending_rlf = 0
        pending_det = 0
        n_subs_total = self.grid.n_subchannels
        for ap in self.topology.aps:
            if sharded and ap.ap_id not in self.shard_ap_ids:
                acts = ap_active_map[ap.ap_id]
                # Mirrors _incremental_links: one RLF draw per demanding
                # client iff the AP has co-channel RLF sources, and one
                # detector draw per (attached client, subchannel) always.
                if acts and self._foreign_rlf_gate(ap.ap_id, allowed, active_list):
                    pending_rlf += len(acts)
                pending_det += len(self._rows_of_ap[ap.ap_id]) * n_subs_total
                continue
            if pending_rlf:
                rlf_rng.random(pending_rlf)
                pending_rlf = 0
            clients = self.topology.clients_of(ap.ap_id)
            ap_demands = ap_demand_map[ap.ap_id]
            ap_active_demands = ap_active_map[ap.ap_id]
            if incremental:
                links = self._incremental_links(
                    ap, clients, allowed, active_aps, active_list,
                    ap_demands, ap_active_demands, prach_counts,
                    rlf_rng, subs_keys, active_entries,
                )
            else:
                links = self._scalar_links(
                    ap, clients, allowed, interferers_on, active_list,
                    ap_demands, ap_active_demands, demands_bits, rlf_rng,
                )
            for cid in links.disconnected:
                ap_active_demands.pop(cid, None)
            job = None
            if ap_active_demands and ap.ap_id in active_aps:
                job = len(jobs)
                jobs.append((
                    self.schedulers[ap.ap_id],
                    sorted(allowed.get(ap.ap_id, set())),
                    ap_active_demands,
                    links.rate_fn,
                ))
            owned.append((ap.ap_id, clients, links, pending_det, job))
            pending_det = 0
        # Flush trailing foreign-AP discards so the stream state at the
        # epoch barrier matches the unsharded run exactly.
        if pending_rlf:
            rlf_rng.random(pending_rlf)

        scheduled = ProportionalFairScheduler.allocate_batch(jobs, self.epoch_s)
        for ap_id, clients, links, foreign_det, job in owned:
            if foreign_det:
                detector_rng.random(foreign_det)
            ap_demands = ap_demand_map[ap_id]
            if job is not None:
                allocation = scheduled[job]
            else:
                allocation = Allocation(epoch_s=self.epoch_s)
            allocations[ap_id] = allocation

            if allocation.served_bits:
                for client in clients:
                    cid = client.client_id
                    bits = allocation.served_bits.get(cid, 0.0)
                    served_bits[cid] = bits
                    throughput[cid] = bits / self.epoch_s
                    demanded = ap_demands[cid]
                    if demanded > 0.0:
                        # A client with unmet demand and ~no service is
                        # starved.
                        satisfied = bits >= min(
                            demanded, STARVATION_THRESHOLD_BPS * self.epoch_s
                        )
                        connected[cid] = satisfied
                    else:
                        connected[cid] = True
            else:
                # Nothing was scheduled: every client of this AP served
                # zero bits, and only zero-demand clients count connected.
                for client in clients:
                    cid = client.client_id
                    served_bits[cid] = 0.0
                    throughput[cid] = 0.0
                    connected[cid] = ap_demands[cid] <= 0.0

            observations[ap_id] = links.observe(allocation, detector_rng)
        # Trailing foreign-AP detector discards, as for the RLF stream.
        if pending_det:
            detector_rng.random(pending_det)

        if tel is not None:
            span.__exit__(None, None, None)
            tel.inc("lte.epochs")
            tel.inc("lte.served_bits", sum(served_bits.values()))
            if incremental:
                stats = self.last_epoch_stats
                tel.inc("lte.incremental.dirty_aps", stats["dirty_aps"])
                tel.inc("lte.incremental.clean_aps", stats["clean_aps"])
                tel.inc("lte.incremental.dirty_rows", stats["dirty_rows"])
                if stats["total_columns"]:
                    tel.gauge(
                        "lte.incremental.cull_ratio",
                        stats["culled_columns"] / stats["total_columns"],
                    )
            tel.inc(
                "lte.starved_clients",
                sum(1 for ok in connected.values() if not ok),
            )
            tel.gauge(
                "lte.connected_clients",
                sum(1 for ok in connected.values() if ok),
            )
            for obs in observations.values():
                tel.inc("prach.estimations")
                tel.observe(
                    "prach.estimated_contenders",
                    obs.estimated_contenders,
                    edges=(0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
                )
                tel.inc("cqi.reports", len(obs.clients))
                tel.inc(
                    "cqi.interference_flags",
                    sum(
                        sum(1 for hit in c.interference_detected if hit)
                        for c in obs.clients.values()
                    ),
                )
            # One series point per epoch, keyed by sim-time.
            tel.tick((epoch_index + 1) * self.epoch_s)

        return EpochResult(
            epoch_index=epoch_index,
            served_bits=served_bits,
            throughput_bps=throughput,
            allocations=allocations,
            observations=observations,
            connected=connected,
        )

    # -- Epoch backends ----------------------------------------------------------

    def _harq_rows(
        self, sinr_rows: Sequence[Sequence[float]], cqi_rows: Sequence[Sequence[int]]
    ) -> List[List[float]]:
        """:func:`harq_goodput_scale` per (SINR, CQI) pair, memoised.

        SINRs repeat heavily within an epoch (one value per client-subchannel
        link, stable while the interferer sets are stable), so the cache hit
        rate is high.  Cached values are the exact function outputs, keeping
        both backends bit-identical to direct evaluation.

        The memo keeps two generations, this epoch's keys and the previous
        epoch's (:meth:`run_epoch` rotates them), and promotes a hit from
        the previous one: static runs keep their hits across epochs, while
        mobile runs, whose SINRs move every epoch, hold at most two epochs
        of keys instead of every key ever seen.
        """
        cache = self._harq_cache
        prev = self._harq_prev
        out = []
        for sinr_row, cqi_row in zip(sinr_rows, cqi_rows):
            values = []
            for key in zip(sinr_row, cqi_row):
                value = cache.get(key)
                if value is None:
                    value = prev.get(key)
                    if value is None:
                        value = harq_goodput_scale(*key)
                    cache[key] = value
                values.append(value)
            out.append(values)
        return out

    def _scalar_links(
        self,
        ap,
        clients,
        allowed: Dict[int, Set[int]],
        interferers_on: Dict[int, List[int]],
        active_list: List[int],
        ap_demands: Dict[int, float],
        ap_active_demands: Dict[int, float],
        demands_bits: Dict[int, float],
        rlf_rng: np.random.Generator,
    ) -> _EpochLinks:
        """Reference backend: per-link loops, one SINR query at a time."""
        co_channel = [a for a in active_list if a != ap.ap_id]
        # SINR per (client, subchannel), with and without interference.
        sinr_map: Dict[Tuple[int, int], float] = {}
        clean_map: Dict[int, float] = {}
        for client in clients:
            clean_map[client.client_id] = self.clean_sinr_db(
                client.client_id, ap.ap_id
            )
            for sub in range(self.grid.n_subchannels):
                others = [
                    a for a in interferers_on[sub] if a != ap.ap_id
                ]
                sinr_map[(client.client_id, sub)] = self.sinr_db(
                    client.client_id, ap.ap_id, others
                )

        # Radio link failure: a client whose *data* SINR (interference
        # weighted by allocation overlap with the serving cell) is deep
        # in the mud may drop its connection for the epoch -- the
        # "frequent disconnections" of Section 6.3.1.
        my_subs = allowed.get(ap.ap_id, set())
        disconnected: Set[int] = set()
        for client in clients:
            cid = client.client_id
            if ap_demands[cid] <= 0.0 or not my_subs:
                continue
            weights = []
            sources = []
            for other in co_channel:
                overlap = len(my_subs & allowed.get(other, set()))
                if overlap:
                    sources.append(other)
                    weights.append(overlap / len(my_subs))
            if not sources:
                # Noise-limited links do not drop: the paper observed
                # disconnections only under *data* interference
                # (Section 6.3.1), never on the clean long links of
                # the Figure 1 drive test.
                continue
            data_sinr = self._weighted_sinr_db(cid, ap.ap_id, sources, weights)
            if rlf_rng.random() < rlf_probability(data_sinr):
                disconnected.add(cid)

        def rate_fn(client_id: int, sub: int, _ap=ap, _sinr=sinr_map,
                    _co=co_channel) -> float:
            sinr = _sinr[(client_id, sub)]
            cqi = cqi_from_sinr(sinr)
            if cqi == CQI_OUT_OF_RANGE:
                return 0.0
            eff = efficiency_from_cqi(cqi)
            rate = self.grid.subchannel_downlink_rate_bps(eff, sub)
            rate *= harq_goodput_scale(sinr, cqi)
            rate *= self.control_interference_scale(client_id, _ap.ap_id, _co)
            return rate

        def observe(allocation: Allocation, rng: np.random.Generator):
            return self._observe(
                ap.ap_id,
                clients,
                ap_active_demands,
                sinr_map,
                clean_map,
                allocation,
                demands_bits,
                rng,
            )

        return _EpochLinks(
            rate_fn=rate_fn, disconnected=disconnected, observe=observe
        )

    def _audible_columns(
        self, ap_id: int, rows: np.ndarray
    ) -> Tuple[np.ndarray, int]:
        """Which AP columns any of this AP's clients can hear at all.

        A column is audible when at least one of the AP's client rows has
        non-zero received power from it; columns fully culled by the
        path-loss horizon are skipped by the incremental interference
        accumulation (they would add exact ``0.0``, a bitwise no-op).
        Cached per row-set version, along with the audible count the
        per-epoch cull counters consume.
        """
        version = self._rows_version[ap_id]
        cached = self._audible_cols.get(ap_id)
        if cached is not None and cached[0] == version:
            return cached[1], cached[2]
        audible = (self._rx_w_mat[rows] != 0.0).any(axis=0)
        n_audible = int(audible.sum())
        self._audible_cols[ap_id] = (version, audible, n_audible)
        return audible, n_audible

    def _sub_mask(self, subs_key: tuple) -> np.ndarray:
        """The 0/1 interference mask for a grant tuple (cached, read-only).

        The mask is a pure function of the grant tuple, so a single shared
        array replaces the per-row rebuild in the block compute/patch
        loops; the values are the exact same 0.0/1.0 floats, keeping the
        accumulation bitwise identical.
        """
        mask = self._sub_masks.get(subs_key)
        if mask is None:
            n_subs = self.grid.n_subchannels
            mask = np.zeros(n_subs)
            for sub in subs_key:
                if 0 <= sub < n_subs:
                    mask[sub] = 1.0
            mask.setflags(write=False)
            self._sub_masks[subs_key] = mask
        return mask

    def _inter_columns(
        self, inter_sig: Tuple[Tuple[int, tuple], ...]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Interferer columns and their stacked 0/1 masks, in grant order.

        Block compute and patch sum the interferers' contributions with
        ``np.add.accumulate`` along the interferer axis: a strictly
        sequential left-to-right sum, i.e. the same IEEE adds in the same
        order as adding one interferer at a time onto zeros (the first
        add, ``0.0 + p``, returns ``p`` exactly since every contribution
        is a non-negative power).
        """
        cols = np.array(
            [self._ap_col[other_id] for other_id, _ in inter_sig],
            dtype=np.intp,
        )
        masks = np.array([self._sub_mask(subs_key) for _, subs_key in inter_sig])
        return cols, masks

    def _incremental_links(
        self,
        ap,
        clients,
        allowed: Dict[int, Set[int]],
        active_aps: Set[int],
        active_list: List[int],
        ap_demands: Dict[int, float],
        ap_active_demands: Dict[int, float],
        prach_counts: np.ndarray,
        rlf_rng: np.random.Generator,
        subs_keys: Dict[int, tuple],
        active_entries: List[Tuple[int, tuple]],
    ) -> _EpochLinks:
        """Dirty-row backend: cached per-AP blocks, recomputed on events.

        The deterministic part of an AP's epoch -- SINR, CQI, rates,
        control scale, detector thresholds, RLF data-SINR -- depends only
        on (a) the AP's row set and link powers (tracked by the row-set
        version the mobility/handover events bump) and (b) the epoch's
        decision signature (which audible active neighbours hold which
        subchannels).  When neither changed, the cached block is reused
        verbatim; stochastic stages (RLF and detector draws, max-CQI
        tracking, the PRACH contention count) re-execute every epoch so
        the RNG streams advance exactly as in the scalar oracle.
        """
        ap_id = ap.ap_id
        n_subs = self.grid.n_subchannels
        rows = self._rows_of_ap[ap_id]
        col = self._ap_col[ap_id]
        m = len(rows)
        version = self._rows_version[ap_id]
        audible, n_audible = self._audible_columns(ap_id, rows)
        ap_cols = self._ap_col
        stats = self.last_epoch_stats

        fast = self._block_fast.get(ap_id)
        if (
            fast is not None
            and fast[0] == version
            and fast[1] == self._ctx_serial
        ):
            # Same rows and same epoch decision context as when the cached
            # block was last validated: every signature input is provably
            # unchanged, so the key comparison is skipped outright.
            block = self._ap_blocks[ap_id][1]
            has_rlf_sources = fast[2]
            stats["clean_aps"] += 1
            stats["clean_rows"] += m
        else:
            # The signature tuples depend only on the epoch context and on
            # which columns this AP's clients can hear.  A mobility event
            # bumps the row version but usually leaves audibility intact,
            # so dirty APs reuse the cached signature instead of walking
            # the grant maps again.
            audible_key = audible.tobytes()
            sig = self._sig_cache.get(ap_id)
            if (
                sig is not None
                and sig[0] == self._ctx_serial
                and sig[1] == audible_key
            ):
                (_, _, inter_sig, co_audible, my_subs,
                 rlf_entries, rlf_sig, has_rlf_sources) = sig
            else:
                inter_sig = tuple(
                    entry
                    for entry in active_entries
                    if entry[0] != ap_id and audible[ap_cols[entry[0]]]
                )
                # Only a signature miss walks the active list, skipping
                # the AP's own id the way ``_foreign_rlf_gate`` does.
                co_audible = [
                    a for a in active_list
                    if a != ap_id and audible[ap_cols[a]]
                ]
                my_subs = allowed.get(ap_id, set())
                has_rlf_sources = False
                rlf_entries: List[Tuple[int, int]] = []
                if my_subs:
                    for other in active_list:
                        if other == ap_id:
                            continue
                        overlap = len(my_subs & allowed.get(other, set()))
                        if overlap:
                            has_rlf_sources = True
                            if audible[ap_cols[other]]:
                                rlf_entries.append((other, overlap))
                rlf_sig = (len(my_subs), tuple(rlf_entries))
                self._sig_cache[ap_id] = (
                    self._ctx_serial, audible_key, inter_sig, co_audible,
                    my_subs, rlf_entries, rlf_sig, has_rlf_sources,
                )

            key = (version, inter_sig, tuple(co_audible), rlf_sig)
            cached = self._ap_blocks.get(ap_id)
            dirty_cids = self._dirty_rows.get(ap_id)
            if cached is not None and cached[0] == key:
                block = cached[1]
                stats["clean_aps"] += 1
                stats["clean_rows"] += m
            elif (
                cached is not None
                and dirty_cids
                and cached[0][1:] == key[1:]
            ):
                # Same decision signature, same row membership: only the
                # recorded dirty rows' link data changed, so those rows
                # are recomputed in place and the rest reused verbatim.
                block = cached[1]
                patched = self._patch_ap_block(
                    block, clients, rows, col, m, n_subs,
                    inter_sig, co_audible, my_subs, rlf_entries, dirty_cids,
                )
                self._ap_blocks[ap_id] = (key, block)
                stats["dirty_aps"] += 1
                stats["dirty_rows"] += patched
                stats["clean_rows"] += m - patched
            else:
                block = self._compute_ap_block(
                    ap_id, clients, rows, col, m, n_subs,
                    inter_sig, co_audible, my_subs, rlf_entries,
                )
                self._ap_blocks[ap_id] = (key, block)
                stats["dirty_aps"] += 1
                stats["dirty_rows"] += m
            self._dirty_rows[ap_id] = set()
            self._block_fast[ap_id] = (
                version, self._ctx_serial, has_rlf_sources
            )
        n_aps = len(audible)
        stats["culled_columns"] += n_aps - n_audible
        stats["total_columns"] += n_aps

        # Radio link failure draws happen every epoch, in the same order
        # and count as the scalar oracle: one draw per demanding client
        # whenever *any* co-channel overlap source exists -- audible or
        # not (a culled source contributes zero interference but still
        # gates the draw, exactly as the oracle sees it).
        disconnected: Set[int] = set()
        if has_rlf_sources and ap_active_demands:
            data_sinr = block["data_sinr"]
            for i, client in enumerate(clients):
                if ap_demands[client.client_id] <= 0.0:
                    continue
                if rlf_rng.random() < rlf_probability(data_sinr[i]):
                    disconnected.add(client.client_id)

        rate_rows = block["rate_rows"]

        def rate_fn(client_id: int, sub: int) -> float:
            return rate_rows[client_id][sub]

        # Lets the PF scheduler prefetch straight from the table.
        rate_fn.rate_rows = rate_rows

        cqi = block["cqi"]
        cqi_rows = block["cqi_rows"]
        threshold = block["threshold"]
        zero_fractions = block["zero_fractions"]

        def observe(allocation: Allocation, rng: np.random.Generator):
            estimated = int(prach_counts[col])
            # One batched draw: NumPy's batched ``random`` yields the same
            # doubles as the oracle's repeated scalar draws.
            draws = rng.random((m, n_subs))
            best = np.maximum(self._max_cqi_vec[rows], cqi)
            self._max_cqi_vec[rows] = best
            flags = draws < threshold
            best_rows = best.tolist()
            flag_rows = flags.tolist()
            # Invert the sparse (client, sub) -> fraction map once instead
            # of probing it n_subs times per client; overwriting entries
            # of a zero-filled template yields the exact same mapping.
            per_client_fractions: Dict[int, Dict[int, float]] = {}
            for (c, s), f in allocation.time_fraction.items():
                got = per_client_fractions.get(c)
                if got is None:
                    got = zero_fractions.copy()
                    per_client_fractions[c] = got
                got[s] = f
            client_obs: Dict[int, ClientObservation] = {}
            for i in range(m):
                cid = clients[i].client_id
                fractions = per_client_fractions.pop(cid, None)
                if fractions is None:
                    fractions = zero_fractions.copy()
                client_obs[cid] = ClientObservation(
                    subband_cqi=list(cqi_rows[i]),
                    max_subband_cqi=best_rows[i],
                    interference_detected=flag_rows[i],
                    scheduled_fraction=fractions,
                )
            return ApObservation(
                ap_id=ap_id,
                n_active_clients=len(ap_active_demands),
                estimated_contenders=max(estimated, len(ap_active_demands), 1),
                clients=client_obs,
            )

        return _EpochLinks(
            rate_fn=rate_fn, disconnected=disconnected, observe=observe
        )

    def _patch_ap_block(
        self,
        block: Dict[str, Any],
        clients,
        rows: np.ndarray,
        col: int,
        m: int,
        n_subs: int,
        inter_sig: Tuple[Tuple[int, tuple], ...],
        co_audible: List[int],
        my_subs: Set[int],
        rlf_entries: List[Tuple[int, int]],
        dirty_cids: Set[int],
    ) -> int:
        """Recompute only the dirty client rows of a cached block, in place.

        Every expression mirrors :meth:`_compute_ap_block` restricted to a
        single row -- the scalar/vector operations below perform the same
        IEEE-754 operations per element, so a patched block is bitwise
        equal to a freshly computed one (the fuzz tests pin this).

        Returns:
            The number of rows patched.
        """
        W = self._rx_w_mat
        cqi_mat = block["cqi"]
        cqi_rows = block["cqi_rows"]
        threshold = block["threshold"]
        rate_rows = block["rate_rows"]
        data_sinr = block["data_sinr"]
        ap_cols = self._ap_col
        # One fancy-indexed multiply yields every interferer's contribution
        # row; the accumulation below still adds them one by one in grant
        # order, so the float sequence matches the reference accumulation
        # exactly.
        n_inter = len(inter_sig)
        if n_inter:
            inter_cols, mask_mat = self._inter_columns(inter_sig)
        sub_range = np.arange(n_subs)
        cols = None
        patched = 0
        for i in range(m):
            cid = clients[i].client_id
            if cid not in dirty_cids:
                continue
            patched += 1
            r = rows[i]
            signal = W[r, col]
            if n_inter:
                contribs = W[r, inter_cols][:, None] * mask_mat
                inter = np.add.accumulate(contribs, axis=0)[-1]
            else:
                inter = np.zeros(n_subs)
            ratio = signal / (self._rb_noise_w + inter)
            sinr_row = _elementwise_db(ratio)
            clean_ratio = signal / self._rb_noise_w
            clean_db = (
                10.0 * math.log10(clean_ratio)
                if clean_ratio > 0.0
                else ZERO_SIGNAL_SINR_DB
            )
            cqi_row = np.searchsorted(
                self._cqi_min_sinr, sinr_row, side="right"
            )
            clean_cqi = np.searchsorted(
                self._cqi_min_sinr, clean_db, side="right"
            )
            base = self._rate_table[cqi_row, sub_range]
            sinr_list, cqi_list = sinr_row.tolist(), cqi_row.tolist()
            harq = np.array(self._harq_rows([sinr_list], [cqi_list])[0])
            if not self.control_interference or not co_audible:
                ctrl = 1.0
            else:
                if cols is None:
                    cols = np.array(
                        [ap_cols[a] for a in co_audible], dtype=np.intp
                    )
                strongest = self._rx_dbm_mat[r, cols].max()
                sir_db = float(self._rx_dbm_mat[r, col] - strongest)
                ctrl = _control_scale(sir_db)
            rate = base * harq
            rate *= ctrl

            weighted = 0.0
            if my_subs:
                for other_id, overlap in rlf_entries:
                    weighted += (overlap / len(my_subs)) * W[
                        r, ap_cols[other_id]
                    ]
            data_ratio = float(signal / (self._rb_noise_w + weighted))
            data_sinr[i] = (
                10.0 * math.log10(data_ratio)
                if data_ratio > 0.0
                else ZERO_SIGNAL_SINR_DB
            )

            truly = (clean_cqi > 0) & (
                cqi_row < INTERFERENCE_CQI_DROP_FRACTION * clean_cqi
            )
            threshold[i] = np.where(
                truly,
                self.detector_true_positive,
                self.detector_false_positive,
            )
            cqi_mat[i] = cqi_row
            cqi_rows[i] = cqi_list
            rate_rows[cid] = rate.tolist()
        return patched

    def _compute_ap_block(
        self,
        ap_id: int,
        clients,
        rows: np.ndarray,
        col: int,
        m: int,
        n_subs: int,
        inter_sig: Tuple[Tuple[int, tuple], ...],
        co_audible: List[int],
        my_subs: Set[int],
        rlf_entries: List[Tuple[int, int]],
    ) -> Dict[str, Any]:
        """One AP's deterministic epoch quantities (the cacheable block).

        Bit-for-bit identical to :meth:`_scalar_links` by construction:

        * interference accumulates per interferer in grant order, exactly
          as the scalar per-subchannel sums do; an interferer's exact
          ``0.0`` on subchannels it does not hold, and every neighbour
          outside the audible set, adds nothing to an IEEE-754 positive
          sum, so skipping them is a bitwise no-op;
        * dB conversion uses the same ``10 * math.log10`` per element
          (NumPy's SIMD ``log10`` is *not* bit-identical to libm);
        * CQI quantisation via ``searchsorted(side="right")`` equals the
          table walk in :func:`cqi_from_sinr`;
        * rates come from a table prefilled with the scalar grid function.
        """
        W = self._rx_w_mat
        signal_w = W[rows, col]
        if inter_sig:
            inter_cols, mask_mat = self._inter_columns(inter_sig)
            contribs = W[rows[:, None], inter_cols][:, :, None] * mask_mat
            interference_w = np.add.accumulate(contribs, axis=1)[:, -1]
        else:
            interference_w = np.zeros((m, n_subs))

        ratio = signal_w[:, None] / (self._rb_noise_w + interference_w)
        sinr = _elementwise_db(ratio)
        clean_db = _elementwise_db(signal_w / self._rb_noise_w)
        cqi = np.searchsorted(self._cqi_min_sinr, sinr, side="right")
        clean_cqi = np.searchsorted(self._cqi_min_sinr, clean_db, side="right")

        base = self._rate_table[cqi, np.arange(n_subs)]
        cqi_rows = cqi.tolist()
        harq = np.array(
            self._harq_rows(sinr.tolist(), cqi_rows), dtype=np.float64
        ).reshape(m, n_subs)
        if not self.control_interference or not co_audible:
            ctrl = np.ones(m)
        else:
            cols = np.array(
                [self._ap_col[a] for a in co_audible], dtype=np.intp
            )
            strongest = self._rx_dbm_mat[rows[:, None], cols[None, :]].max(axis=1)
            sir_db = (self._rx_dbm_mat[rows, col] - strongest).tolist()
            ctrl = np.array([_control_scale(s) for s in sir_db])
        rate = base * harq
        rate *= ctrl[:, None]

        # RLF data SINR (interference weighted by subchannel overlap with
        # the audible sources); computed even when no source exists this
        # epoch -- the cached value is simply unused then.
        weighted_w = np.zeros(m)
        if my_subs:
            for other_id, overlap in rlf_entries:
                weighted_w += (overlap / len(my_subs)) * W[
                    rows, self._ap_col[other_id]
                ]
        data_ratio = (signal_w / (self._rb_noise_w + weighted_w)).tolist()
        data_sinr = [
            10.0 * math.log10(r) if r > 0.0 else ZERO_SIGNAL_SINR_DB
            for r in data_ratio
        ]

        truly_interfered = (clean_cqi[:, None] > 0) & (
            cqi < INTERFERENCE_CQI_DROP_FRACTION * clean_cqi[:, None]
        )
        threshold = np.where(
            truly_interfered,
            self.detector_true_positive,
            self.detector_false_positive,
        )
        return {
            "cqi": cqi,
            "cqi_rows": cqi_rows,
            "threshold": threshold,
            "rate_rows": {
                clients[i].client_id: rate[i].tolist() for i in range(m)
            },
            "data_sinr": data_sinr,
            "zero_fractions": {sub: 0.0 for sub in range(n_subs)},
        }

    # -- Sensing ----------------------------------------------------------------

    def _observe(
        self,
        ap_id: int,
        clients,
        active_demands: Dict[int, float],
        sinr_map: Dict[Tuple[int, int], float],
        clean_map: Dict[int, float],
        allocation: Allocation,
        all_demands: Dict[int, float],
        rng: np.random.Generator,
    ) -> ApObservation:
        """Build the sensing snapshot one AP gathers in an epoch."""
        # PRACH-based contention estimate: active clients (anyone's) whose
        # preamble is audible at this AP at >= -10 dB.
        audible = self._prach_mat[:, self._ap_col[ap_id]].tolist()
        client_row = self._client_row
        estimated = 0
        for client in self.topology.clients:
            if all_demands.get(client.client_id, 0.0) <= 0.0:
                continue
            if audible[client_row[client.client_id]]:
                estimated += 1

        client_obs: Dict[int, ClientObservation] = {}
        n_subs = self.grid.n_subchannels
        for client in clients:
            cid = client.client_id
            subband_cqi = []
            detected = []
            max_cqi = []
            for sub in range(n_subs):
                sinr = sinr_map[(cid, sub)]
                cqi = cqi_from_sinr(sinr)
                subband_cqi.append(cqi)
                key = (cid, sub)
                best = max(self._max_cqi_state.get(key, 0), cqi)
                self._max_cqi_state[key] = best
                max_cqi.append(best)
                clean_cqi = cqi_from_sinr(clean_map[cid])
                truly_interfered = (
                    clean_cqi > 0
                    and cqi < INTERFERENCE_CQI_DROP_FRACTION * clean_cqi
                )
                if truly_interfered:
                    flag = rng.random() < self.detector_true_positive
                else:
                    flag = rng.random() < self.detector_false_positive
                detected.append(flag)
            fractions = {
                sub: allocation.fraction(cid, sub) for sub in range(n_subs)
            }
            client_obs[cid] = ClientObservation(
                subband_cqi=subband_cqi,
                max_subband_cqi=max_cqi,
                interference_detected=detected,
                scheduled_fraction=fractions,
            )

        return ApObservation(
            ap_id=ap_id,
            n_active_clients=len(active_demands),
            estimated_contenders=max(estimated, len(active_demands), 1),
            clients=client_obs,
        )

    # -- Convenience driver --------------------------------------------------------

    def run(
        self,
        n_epochs: int,
        policy: SubchannelPolicy,
        demand_fn: Callable[[int], Dict[int, float]],
    ) -> List[EpochResult]:
        """Run ``n_epochs`` with ``policy`` deciding allocations.

        Args:
            n_epochs: number of 1 s epochs.
            policy: subchannel policy (plain LTE, CellFi, oracle...).
            demand_fn: epoch index -> per-client demand in bits.
        """
        results: List[EpochResult] = []
        observations: Optional[Dict[int, ApObservation]] = None
        for epoch in range(n_epochs):
            allowed = policy.decide(epoch, observations)
            result = self.run_epoch(epoch, allowed, demand_fn(epoch))
            observations = result.observations
            results.append(result)
        return results

    # -- Checkpointing -------------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Cross-epoch mutable state.

        The HARQ memo, ``_ap_blocks`` and ``_audible_cols`` are excluded
        on purpose: they memoise deterministic functions of serialized
        state, so a cold cache recomputes bit-identical values (and
        serializing them would make a resumed run's digest depend on cache
        warmth).  The epoch RNG streams ("cqi-detector", "rlf") belong to
        the shared :class:`~repro.sim.rng.RngStreams` subsystem and are
        restored there.  ``max_cqi_state`` is tuple-keyed, so it is
        flattened into sorted ``[client, subchannel, cqi]`` triples.
        Client positions and serving associations *are* semantic state
        (mutated by :meth:`move_client` / :meth:`reattach_client`), so
        they are serialized and re-applied on load.
        """
        clients = sorted(self.topology.clients, key=lambda c: c.client_id)
        return {
            "schedulers": {
                ap_id: scheduler.state_dict()
                for ap_id, scheduler in self.schedulers.items()
            },
            "max_cqi_state": [
                [cid, sub, cqi]
                for (cid, sub), cqi in sorted(self._max_cqi_state.items())
            ],
            "max_cqi_vec": self._max_cqi_vec,
            "positions": [[c.client_id, c.x, c.y] for c in clients],
            "serving": [[c.client_id, c.ap_id] for c in clients],
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        for ap_id, sched_state in state["schedulers"].items():
            # Shard views instantiate schedulers for owned APs only, but a
            # merged snapshot carries every AP's scheduler: skip foreign ones.
            scheduler = self.schedulers.get(int(ap_id))
            if scheduler is None:
                continue
            if sched_state is not None:
                scheduler.load_state(sched_state)
        self._max_cqi_state = {
            (int(cid), int(sub)): int(cqi)
            for cid, sub, cqi in state["max_cqi_state"]
        }
        # ``np.array`` (not ``asarray``): the caller may hand the same
        # snapshot dict to several shard workers, so the matrix must be
        # copied -- aliasing it would let one worker's disown-zeroing
        # bleed into every other worker sharing the snapshot.
        self._max_cqi_vec = np.array(
            state["max_cqi_vec"], dtype=np.int64
        ).reshape(self._max_cqi_vec.shape)
        # Older snapshots predate mobility/handover state; leave the
        # build-time layout untouched for them.
        for cid, x, y in state.get("positions", []):
            cid, x, y = int(cid), float(x), float(y)
            site = self.topology.client(cid)
            if site.x != x or site.y != y:
                self.move_client(cid, x, y)
        for cid, ap_id in state.get("serving", []):
            cid, ap_id = int(cid), int(ap_id)
            if self.topology.client(cid).ap_id != ap_id:
                self.reattach_client(cid, ap_id)
        # Volatile caches restart cold so a resumed run's arithmetic (and
        # digests) cannot depend on pre-checkpoint cache warmth.
        self._ap_blocks.clear()
        self._audible_cols.clear()
        self._harq_cache.clear()
        self._harq_prev.clear()
        self._block_fast.clear()
        self._sig_cache.clear()
        self._epoch_ctx = None
        self._foreign_rlf_cache = (-1, {})
        self._dirty_rows = {ap.ap_id: set() for ap in self.topology.aps}
