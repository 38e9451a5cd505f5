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

The epoch computes the radio quantities with whole-matrix NumPy kernels
over a cached AP<->client gain matrix plus a dirty-row tracker: per-AP
SINR/CQI/rate blocks are cached and only recomputed when an event
(mobility, handover/re-attach, a hopping decision, an activity change)
invalidates them; the stale rows of every AP are then recomputed together
in one batched pass.

Its reference is :class:`repro.lte.scalar_oracle.ScalarOracleSimulator`,
a subclass whose epoch runs per-link Python loops, easy to audit against
the formulas in ``docs/SIMULATION.md``.  Interference sums accumulate in
the same per-interferer order and dB conversions round exactly like the
oracle's ``math.log10`` calls; interference from APs a client cannot hear
(culled by the gain cache's path-loss horizon) adds an exact ``0.0``, a
bitwise no-op on an IEEE-754 sum of non-negative powers.  The production
epoch is therefore *bit-identical* to the oracle for the same seeds
(``tests/test_lte_network_incremental.py`` and
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
from repro.phy.harq import harq_goodput_scale_array
from repro.phy.mcs import LTE_CQI_TABLE, efficiency_from_cqi
from repro.phy.propagation import (
    FILL_BATCHED,
    CompositeChannel,
    GainMatrixCache,
    row_chunks,
)
from repro.phy.resource_grid import RB_BANDWIDTH_HZ, ResourceGrid
from repro.phy.vecmath import vec_log10
from repro.sim.checkpoint import register_dataclass
from repro.sim.rng import RngStreams
from repro.sim.topology import Topology
from repro.utils.dbmath import dbm_to_watt, dbm_to_watt_array, thermal_noise_dbm

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

#: The batched block compute gathers its rows' links in chunks of about
#: this many (row, AP) entries, which bounds its ``(rows x APs)``
#: temporaries to ~1 MB each however many rows an epoch recomputes.
_BLOCK_CHUNK = 1 << 17

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
    """``10 * log10`` per element, bit-identical to ``math.log10``.

    NumPy's SIMD ``log10`` differs from libm in the last ulp, which would
    break the bit-for-bit equivalence with the scalar oracle, so the
    logarithm goes through the probed :data:`~repro.phy.vecmath.vec_log10`
    (NumPy where it provably is libm, a scalar ``math.log10`` map
    otherwise); the ``10 *`` is an IEEE multiply either way.

    Non-positive (or NaN) ratios -- zero received signal on a culled or
    underflowed link -- clamp to :data:`ZERO_SIGNAL_SINR_DB` instead of
    producing ``-inf``/NaN.
    """
    ratio = np.asarray(ratio, dtype=np.float64)
    live = ratio > 0.0
    out = np.full(ratio.shape, ZERO_SIGNAL_SINR_DB)
    out[live] = 10.0 * vec_log10(ratio[live])
    return out


def _segment_counts(
    flags: np.ndarray, lengths: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Count ``True`` flags per run of consecutive segments.

    Returns the count per segment and, per element, its 1-based rank among
    its segment's ``True`` flags (meaningful where the flag is set).
    """
    tally = np.concatenate(([0], np.cumsum(flags)))
    bounds = np.cumsum([0, *lengths])
    base = tally[bounds[:-1]]
    return tally[bounds[1:]] - base, tally[1:] - np.repeat(base, lengths)


def _control_scale(sir_db: float) -> float:
    """Figure 7(b) goodput multiplier from a signal-to-interferer ratio.

    Shared with the scalar oracle so the expression stays bit-for-bit
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


@dataclass(init=False)
class ApObservation:
    """Everything one AP senses during an epoch (no explicit coordination).

    Attributes:
        ap_id: the observing access point.
        n_active_clients: its own active client count (N_i).
        estimated_contenders: PRACH-estimated active clients in the
            neighbourhood, including its own (NP_i).
        clients: per-client sensing detail.  An observation made by the
            incremental epoch keeps the epoch's dense observe arrays and
            builds this dict on first read; equality, ``repr``, pickling
            and checkpoints read it like any other field.
    """

    ap_id: int
    n_active_clients: int
    estimated_contenders: int
    clients: Dict[int, ClientObservation]

    def __init__(
        self,
        ap_id: int,
        n_active_clients: int,
        estimated_contenders: int,
        clients: Optional[Dict[int, ClientObservation]] = None,
    ) -> None:
        self.ap_id = ap_id
        self.n_active_clients = n_active_clients
        self.estimated_contenders = estimated_contenders
        self.clients = {} if clients is None else clients

    @classmethod
    def from_dense(
        cls,
        ap_id: int,
        n_active_clients: int,
        estimated_contenders: int,
        rows: "_ObservedRows",
        start: int,
        end: int,
    ) -> "ApObservation":
        """The AP whose clients are rows ``start:end`` of ``rows``."""
        obs = cls(ap_id, n_active_clients, estimated_contenders)
        obs._clients = None
        obs._dense = (rows, start, end)
        return obs

    # The ``clients`` field is this property: the dataclass-generated
    # ``__eq__``/``__repr__``, ``dataclasses.fields`` readers and the
    # checkpoint codec all go through it.
    @property
    def clients(self) -> Dict[int, ClientObservation]:
        if self._clients is None:
            rows, start, end = self._dense
            self._clients = rows.clients(start, end)
            self._dense = None
        return self._clients

    @clients.setter
    def clients(self, value: Dict[int, ClientObservation]) -> None:
        self._clients = value
        self._dense = None

    def __reduce__(self):
        return (
            ApObservation,
            (self.ap_id, self.n_active_clients, self.estimated_contenders,
             self.clients),
        )


class _ObservedRows:
    """One epoch's dense observe outcome, one row per observed client.

    Holds the client ids and four ``(row, subchannel)`` arrays: reported
    CQI, max-tracked CQI, detector verdicts and scheduled fractions, each
    fresh for the epoch and never written again.  The first
    :meth:`clients` call turns all four into Python lists at once, so
    reading every AP's observation costs what building them eagerly did.
    """

    def __init__(
        self,
        client_ids: List[int],
        cqi: np.ndarray,
        max_cqi: np.ndarray,
        detected: np.ndarray,
        fraction: np.ndarray,
    ) -> None:
        self._client_ids = client_ids
        self._arrays: Optional[tuple] = (cqi, max_cqi, detected, fraction)
        self._lists: Optional[tuple] = None

    def clients(self, start: int, end: int) -> Dict[int, ClientObservation]:
        """``ClientObservation`` per client of rows ``start:end``."""
        if self._lists is None:
            self._lists = tuple(block.tolist() for block in self._arrays)
            self._arrays = None
        cqi, best, hits, frac = self._lists
        return {
            cid: ClientObservation(cqi[i], best[i], hits[i], dict(enumerate(frac[i])))
            for i, cid in enumerate(self._client_ids[start:end], start)
        }


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
        gain_cache: optional pre-built :class:`GainMatrixCache` for this
            topology/channel (shared with other consumers); built
            internally when omitted.
        cull_loss_db: optional neighbor-culling path-loss horizon (dB)
            forwarded to the internally built gain cache: links lossier
            than this carry exactly zero power (no signal, no
            interference, no PRACH audibility) in every epoch.  When
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
        # Incremental-epoch state: per-AP row-set versions (bumped by
        # the events that dirty an AP's block -- mobility, handover,
        # re-attach), the key each AP's cached block was computed under
        # (version, interference/control/RLF signatures), cached
        # audible-column masks, and per-epoch dirty/cull counters for
        # benchmarks and CI.
        self._rows_version: Dict[int, int] = {ap.ap_id: 0 for ap in topology.aps}
        self._ap_blocks: Dict[int, tuple] = {}
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
        # One id per distinct grant (sorted subchannel tuple) ever seen,
        # so block signatures can carry grants as integers.
        self._grant_ids: Dict[tuple, int] = {}
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
        derived link store: the epoch, the scalar oracle and every
        per-link accessor read them.  They fill from
        :class:`GainMatrixCache` rows through
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
        # through the very same scalar grid call the scalar oracle makes,
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
        self._max_cqi_vec = np.zeros((n_clients, n_subs), dtype=np.int64)
        # The incremental blocks' values, one row per client (each AP
        # writes only its own clients' rows): full-time rate per
        # subchannel, CQI (0..15), whether the subchannel is truly
        # interfered (it picks the detector's threshold) and the RLF
        # probability.  The rate matrix carries one extra all-zero row and
        # column, which the PF kernel's padding entries gather.
        self._row_cid = np.array(sorted(self._client_row, key=self._client_row.get))
        self._rate_mat = np.zeros((n_clients + 1, n_subs + 1))
        self._cqi_mat = np.zeros((n_clients, n_subs), dtype=np.int8)
        self._interfered_mat = np.zeros((n_clients, n_subs), dtype=bool)
        self._rlf_prob = np.zeros(n_clients)

    def _rebuild_rows_of(self, ap_id: int) -> None:
        """(Re)build one AP's gain-matrix row index array.

        Called at build time and whenever a client's *serving* AP changes
        (handover / re-attach): the incremental epoch reads the serving
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
        batched gain-cache read per :func:`row_chunks` chunk of rows,
        written into the matrices chunk by chunk so no temporary
        outgrows a chunk; the channel is reciprocal, so one cached entry
        serves the downlink data path and the uplink PRACH path, whose
        open-loop power control targets each client's current serving
        cell.  Every link gets the same IEEE subtracts and compares as a
        scalar evaluation, and watts go through :func:`dbm_to_watt_array`,
        bit-identical to the scalar :func:`dbm_to_watt` per link.

        Links beyond the gain cache's culling horizon are stored as dead:
        ``-inf`` dBm, exactly ``0.0`` W (``10.0 ** -inf``) and inaudible
        PRACH.  The epoch and the scalar oracle read these same matrices,
        so culling changes the physics for both identically.
        """
        horizon = self.gain_cache.cull_loss_db
        for part in row_chunks(len(client_ids), len(self._ap_col)):
            cids = client_ids[part]
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
        tel = _obs_runtime.active()
        span = None
        if tel is not None:
            # Epoch drivers have no event engine, so the telemetry clock
            # follows the epoch boundary here.
            tel.set_time(epoch_index * self.epoch_s)
            span = tel.span("lte.epoch", cat="sim", args={"epoch": epoch_index})
            span.__enter__()

        served_bits, throughput, connected, allocations, observations = (
            self._epoch(allowed, demands_bits, prach_counts)
        )

        if tel is not None:
            span.__exit__(None, None, None)
            tel.inc("lte.epochs")
            tel.inc("lte.served_bits", sum(served_bits.values()))
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

    def _settle(
        self, cids: Sequence[int], bits: np.ndarray, demand: np.ndarray
    ) -> Tuple[Dict[int, float], Dict[int, float], Dict[int, bool]]:
        """Served bits, throughput and connected flag per client.

        A client with demand is connected when it got at least
        ``min(demand, STARVATION_THRESHOLD_BPS * epoch_s)`` bits (unmet
        demand and ~no service is starvation); a client without demand
        always is.
        """
        floor = np.minimum(demand, STARVATION_THRESHOLD_BPS * self.epoch_s)
        connected = np.where(demand > 0.0, bits >= floor, True)
        return (
            dict(zip(cids, bits.tolist())),
            dict(zip(cids, (bits / self.epoch_s).tolist())),
            dict(zip(cids, connected.tolist())),
        )

    def _epoch(
        self,
        allowed: Dict[int, Set[int]],
        demands_bits: Dict[int, float],
        prach_counts: Optional[np.ndarray],
    ) -> tuple:
        """The production epoch: cached blocks, then one dense outcome.

        One pass over the APs in topology order validates each owned AP's
        cached block (:meth:`_refresh_block`), collects the rows that went
        stale and counts each AP's RLF draws; one batched call
        (:meth:`_compute_rows`) then recomputes every stale row of the
        epoch.  Everything after it is epoch-wide over the owned client
        rows (the "obs" rows: owned APs in topology order, each AP's
        clients in ``clients_of`` order): one ``random`` call per stream,
        one PF kernel call fed by one gather from the rate matrix, and one
        observe pass over dense arrays; each AP's observation builds its
        per-client objects from them only when read.

        Shard mode walks the full topology-ordered AP sequence but only
        simulates owned APs.  Foreign APs contribute no arithmetic (their
        interference reaches owned clients through the full gain rows, and
        culled links are exact 0.0 no-ops), yet their draws must still
        advance the shared streams, so each stream's one batched draw
        covers them too and their slices are dropped.  NumPy's batched
        ``random`` yields the same doubles as repeated scalar draws, so
        every stream sees the same draws at the same offsets as the scalar
        oracle's interleaved per-AP loop.

        Returns served bits, throughput and the connected flag per client,
        then the allocation and the observation per AP; every
        :meth:`run_epoch` reads these five, and
        :class:`~repro.lte.scalar_oracle.ScalarOracleSimulator` overrides
        this method to produce them its own way.
        """
        n_subs = self.grid.n_subchannels
        epoch_s = self.epoch_s
        aps = self.topology.aps
        # Demands in link-matrix row order (the ``topology.clients`` order),
        # and every AP's active-client count over its rows, in topology
        # order.
        demand = np.array(
            [demands_bits.get(c.client_id, 0.0) for c in self.topology.clients]
        )
        active = demand > 0.0
        segments = [self._rows_of_ap[ap.ap_id] for ap in aps]
        lengths = [len(rows) for rows in segments]
        all_rows = np.concatenate([np.zeros(0, dtype=np.intp), *segments])
        n_active = _segment_counts(active[all_rows], lengths)[0].tolist()
        # Active AP ids in topology order: the co-channel list.
        active_list = [ap.ap_id for ap, n in zip(aps, n_active) if n]
        active_aps = set(active_list)
        if prach_counts is None:
            prach_counts = self._prach_mat[active].sum(axis=0)
        detector_rng = self.rngs.stream("cqi-detector")
        rlf_rng = self.rngs.stream("rlf")
        # Canonicalised subchannel sets and the active slice of the
        # decision, shared by every AP's cache-key construction.
        subs_keys = {
            ap_id: tuple(sorted(subs)) for ap_id, subs in allowed.items()
        }
        active_entries = [
            (ap_id, subs_keys[ap_id]) for ap_id in allowed if ap_id in active_aps
        ]
        # One serial per distinct decision context: while the policy
        # repeats its grants and the active set is stable, clean APs can
        # skip rebuilding their cache-key signatures.  The context also
        # fixes the arrays the batched compute reads (see
        # :meth:`_set_decision_context`).
        ctx = (
            tuple(active_list),
            tuple(active_entries),
            tuple(sorted(subs_keys.items())),
        )
        if ctx != self._epoch_ctx:
            self._epoch_ctx = ctx
            self._ctx_serial += 1
            self._set_decision_context(subs_keys, active_list, active_entries)
        self.last_epoch_stats = dict.fromkeys(
            ("dirty_aps", "clean_aps", "dirty_rows", "clean_rows",
             "culled_columns", "total_columns"),
            0,
        )

        # Block validation, and the RLF draw count: one draw per demanding
        # client of an AP with co-channel overlap sources (see
        # _refresh_block; a foreign AP's gate comes from the same
        # context-wide overlap counts).  Then every stale row at once.
        sharded = self.shard_ap_ids is not None
        has_rlf = self._has_rlf_sources
        owned_flags: List[bool] = []
        drawing: List[bool] = []
        rlf_index: List[int] = []
        stale: List[Tuple[np.ndarray, int, np.ndarray]] = []
        n_rlf = 0
        for ap, n_act in zip(aps, n_active):
            ap_id = ap.ap_id
            if sharded and ap_id not in self.shard_ap_ids:
                owned_flags.append(False)
                if n_act and has_rlf[self._ap_col[ap_id]]:
                    n_rlf += n_act
                continue
            owned_flags.append(True)
            draws = self._refresh_block(ap_id, allowed, stale) and n_act > 0
            drawing.append(draws)
            if draws:
                rlf_index.extend(range(n_rlf, n_rlf + n_act))
                n_rlf += n_act
        if stale:
            self._compute_rows(stale)
        rlf = rlf_rng.random(n_rlf)
        owned_rows = np.repeat(np.array(owned_flags, dtype=bool), lengths)
        detector = detector_rng.random((len(all_rows), n_subs))[owned_rows]
        obs_rows = all_rows[owned_rows]
        obs_lengths = [m for m, owned in zip(lengths, owned_flags) if owned]
        owned_ids = [ap.ap_id for ap, owned in zip(aps, owned_flags) if owned]
        n_obs = len(obs_rows)
        obs_cids = self._row_cid[obs_rows].tolist()

        # Radio link failure, then the clients the scheduler serves.
        act = demand[obs_rows] > 0.0
        drawn = act & np.repeat(np.array(drawing, dtype=bool), obs_lengths)
        dropped = np.zeros(n_obs, dtype=bool)
        dropped[drawn] = rlf[rlf_index] < self._rlf_prob[obs_rows[drawn]]
        keep = act & ~dropped
        n_kept, rank = _segment_counts(keep, obs_lengths)
        n_kept = n_kept.tolist()
        job_of = np.cumsum([k > 0 for k in n_kept]) - 1
        job_aps = [ap_id for ap_id, k in zip(owned_ids, n_kept) if k]

        bits = np.zeros(n_obs)
        # Airtime per (obs row, subchannel), plus one spill row and column
        # for the kernel's padding entries.
        fractions = np.zeros((n_obs + 1, n_subs + 1))
        scheduled: List[Allocation] = []
        if job_aps:
            kept = np.flatnonzero(keep)
            kept_cids = self._row_cid[obs_rows[kept]].tolist()
            job_cids, start = [], 0
            for k in n_kept:
                if k:
                    job_cids.append(kept_cids[start : start + k])
                    start += k
            job = np.repeat(job_of, obs_lengths)[kept]
            col = rank[kept]
            # Padded (job, column) -> link row and obs row; padding points
            # at the rate matrix's zero row and the spill row.
            n_cols = 1 + max(n_kept)
            row_at = np.full((len(job_aps), n_cols), len(self._row_cid))
            row_at[job, col] = obs_rows[kept]
            obs_at = np.full((len(job_aps), n_cols), n_obs)
            obs_at[job, col] = kept
            job_subs = [subs_keys.get(ap_id, ()) for ap_id in job_aps]
            n_pos = max(len(subs) for subs in job_subs)
            pad = (n_subs,) * n_pos
            # C order, so the gathered rate tensor is C-contiguous and the
            # kernel's per-position slices are contiguous too.
            sub_at = np.ascontiguousarray(np.array(
                [subs + pad[len(subs):] for subs in job_subs], dtype=np.intp
            ).T)
            served, fraction = ProportionalFairScheduler.allocate_dense(
                [self.schedulers[ap_id] for ap_id in job_aps],
                job_cids,
                job_subs,
                self._rate_mat[row_at[None, :, :], sub_at[:, :, None]],
                np.append(demand, 0.0)[row_at],
                epoch_s,
            )
            bits[kept] = served[job, col]
            fractions[obs_at[None, :, :], sub_at[:, :, None]] = fraction
            served_rows = served[:, 1:].tolist()
            scheduled = [
                Allocation.from_dense(
                    epoch_s, dict(zip(cids, got)), fraction, b, cids, subs
                )
                for b, (cids, subs, got) in enumerate(
                    zip(job_cids, job_subs, served_rows)
                )
            ]

        # One observe pass: max-CQI tracking, detector verdicts and
        # scheduled fractions for every obs row at once, kept dense.
        cqi = self._cqi_mat[obs_rows]
        best = np.maximum(self._max_cqi_vec[obs_rows], cqi)
        self._max_cqi_vec[obs_rows] = best
        flags = detector < np.where(
            self._interfered_mat[obs_rows],
            self.detector_true_positive,
            self.detector_false_positive,
        )
        observed = _ObservedRows(
            obs_cids, cqi, best, flags, fractions[:n_obs, :n_subs]
        )
        prach = prach_counts.tolist()
        allocations: Dict[int, Allocation] = {}
        observations: Dict[int, ApObservation] = {}
        start = 0
        for ap_id, m, k, b in zip(owned_ids, obs_lengths, n_kept, job_of.tolist()):
            end = start + m
            allocations[ap_id] = scheduled[b] if k else Allocation(epoch_s)
            observations[ap_id] = ApObservation.from_dense(
                ap_id, k, max(int(prach[self._ap_col[ap_id]]), k, 1),
                observed, start, end,
            )
            start = end
        return (*self._settle(obs_cids, bits, demand[obs_rows]),
                allocations, observations)

    # -- Block compute -----------------------------------------------------------

    def _set_decision_context(
        self,
        subs_keys: Dict[int, tuple],
        active_list: List[int],
        active_entries: List[Tuple[int, tuple]],
    ) -> None:
        """The arrays one decision context fixes for every block.

        * ``_ent_cols`` / ``_granted``: the active grant holders' columns
          in grant (``allowed``) order, and the subchannels each holds --
          the interferer sequence of the SINR sums;
        * ``_active_cols``: the active APs' columns in topology order --
          the co-channel set of the control scale and the RLF sources;
        * ``_ent_sig`` / ``_active_ids``: the holders' AP ids and grant ids
          (:attr:`_grant_ids`), and the active AP ids, from which
          :meth:`_refresh_block` slices its block signature as bytes;
        * ``_rlf_overlap`` / ``_n_granted``: per active AP (the source)
          and AP column, the subchannel overlap count (zero for the AP
          itself and for disjoint grants), and per AP column
          ``max(len(my_subs), 1)``: an RLF weight is ``overlap /
          len(my_subs)``, and ``0.0`` for an AP without grants;
        * ``_has_rlf_sources``: per AP column, whether any *other* active
          AP overlaps its grants -- whether it draws RLF values.

        The overlap counts come from one product ``G @ G[active].T`` of
        the 0/1 grant matrix ``G`` (AP x subchannel id): every partial sum
        is a small integer, so the counts are exact and equal the set
        intersections the scalar oracle takes.
        """
        n_aps, n_subs = len(self._ap_col), self.grid.n_subchannels
        ap_cols = self._ap_col
        self._ent_cols = np.array(
            [ap_cols[ap_id] for ap_id, _ in active_entries], dtype=np.intp
        )
        self._ent_pos = {ap_id: k for k, (ap_id, _) in enumerate(active_entries)}
        grant_ids = self._grant_ids
        self._ent_sig = np.array(
            [
                [ap_id for ap_id, _ in active_entries],
                [grant_ids.setdefault(subs, len(grant_ids)) for _, subs in active_entries],
            ],
            dtype=np.int64,
        )
        self._active_ids = np.array(active_list, dtype=np.int64)
        self._active_pos = {ap_id: k for k, ap_id in enumerate(active_list)}
        self._granted = [
            [sub for sub in subs if 0 <= sub < n_subs] for _, subs in active_entries
        ]
        self._active_cols = np.array(
            [ap_cols[ap_id] for ap_id in active_list], dtype=np.intp
        )
        sub_pos = {
            sub: k
            for k, sub in enumerate(sorted(set().union(*subs_keys.values())))
        }
        grants = np.zeros((n_aps, len(sub_pos)))
        for ap_id, subs in subs_keys.items():
            col = ap_cols.get(ap_id)
            if col is not None and subs:
                grants[col, [sub_pos[sub] for sub in subs]] = 1.0
        overlap = grants @ grants[self._active_cols].T
        overlap[self._active_cols, np.arange(len(active_list))] = 0.0
        self._has_rlf_sources = (overlap > 0.0).any(axis=1).tolist()
        self._rlf_overlap = np.ascontiguousarray(overlap.T, dtype=np.int32)
        self._n_granted = np.maximum(grants.sum(axis=1), 1.0)

    def _audible_columns(
        self, ap_id: int, rows: np.ndarray
    ) -> Tuple[np.ndarray, int]:
        """Which AP columns any of this AP's clients can hear at all.

        A column is audible when at least one of the AP's client rows has
        non-zero received power from it; every other column is an exact
        ``0.0`` in all of the AP's rows, so it adds nothing to their
        interference sums (a bitwise no-op), and it is left out of their
        block signature and control scale.  Cached per row-set version,
        along with the audible count the per-epoch cull counters consume.
        """
        version = self._rows_version[ap_id]
        cached = self._audible_cols.get(ap_id)
        if cached is not None and cached[0] == version:
            return cached[1], cached[2]
        audible = (self._rx_w_mat[rows] != 0.0).any(axis=0)
        n_audible = int(audible.sum())
        self._audible_cols[ap_id] = (version, audible, n_audible)
        return audible, n_audible

    def _refresh_block(
        self,
        ap_id: int,
        allowed: Dict[int, Set[int]],
        stale: List[Tuple[np.ndarray, int, np.ndarray]],
    ) -> bool:
        """Validate one AP's cached block; queue the rows that went stale.

        The deterministic part of an AP's epoch -- SINR, CQI, rates,
        control scale, truly-interfered flags, RLF probability -- depends
        only on (a) the AP's row set and link powers (tracked by the
        row-set version the mobility/handover events bump) and (b) the
        epoch's decision signature (which audible active neighbours hold
        which subchannels).  The block's values live in the AP's rows of the
        epoch-wide matrices (``_rate_mat``, ``_cqi_mat``,
        ``_interfered_mat``, ``_rlf_prob``), which only this AP writes; when
        neither input changed they are reused verbatim.  Otherwise the
        rows to recompute -- all of them, or only the recorded dirty rows
        when the signature held -- are appended to ``stale`` as ``(rows,
        serving column, audible mask)`` for :meth:`_compute_rows`.
        Stochastic stages (RLF and detector draws, max-CQI tracking, the
        PRACH contention count) re-execute every epoch so the RNG streams
        advance exactly as in the scalar oracle.

        Returns:
            Whether the AP draws RLF values this epoch: it holds grants and
            *any* co-channel overlap source exists -- audible or not (a
            culled source contributes zero interference but still gates
            the draw, exactly as the oracle sees it).
        """
        rows = self._rows_of_ap[ap_id]
        col = self._ap_col[ap_id]
        m = len(rows)
        version = self._rows_version[ap_id]
        audible, n_audible = self._audible_columns(ap_id, rows)
        stats = self.last_epoch_stats
        n_aps = len(audible)
        stats["culled_columns"] += n_aps - n_audible
        stats["total_columns"] += n_aps
        has_rlf_sources = self._has_rlf_sources[col]

        fast = self._block_fast.get(ap_id)
        if (
            fast is not None
            and fast[0] == version
            and fast[1] == self._ctx_serial
        ):
            # Same rows and same epoch decision context as when the cached
            # block was last validated: every signature input is provably
            # unchanged, so the key comparison is skipped outright.
            stats["clean_aps"] += 1
            stats["clean_rows"] += m
            return has_rlf_sources
        # Audible active neighbours, as bytes: the interferers and their
        # grants in grant order, the co-channel cells in topology order,
        # and the RLF sources with their overlap counts.
        heard = audible[self._ent_cols]
        co_heard = audible[self._active_cols]
        own = self._ent_pos.get(ap_id)
        if own is not None:
            heard[own] = False
        own = self._active_pos.get(ap_id)
        if own is not None:
            co_heard[own] = False
        overlap = self._rlf_overlap[:, col]
        sources = co_heard & (overlap > 0)
        signature = (
            self._ent_sig[:, heard].tobytes(),
            self._active_ids[co_heard].tobytes(),
            len(allowed.get(ap_id, ())),
            self._active_ids[sources].tobytes(),
            overlap[sources].tobytes(),
        )

        key = (version, signature)
        cached = self._ap_blocks.get(ap_id)
        dirty_cids = self._dirty_rows.get(ap_id)
        if cached == key:
            stats["clean_aps"] += 1
            stats["clean_rows"] += m
        else:
            if cached is not None and dirty_cids and cached[1] == signature:
                # Same decision signature, same row membership: only the
                # recorded dirty rows' link data changed, so those rows
                # are recomputed and the rest reused verbatim.
                patched = np.array(
                    [
                        row
                        for row, cid in zip(
                            rows.tolist(), self._row_cid[rows].tolist()
                        )
                        if cid in dirty_cids
                    ],
                    dtype=np.intp,
                )
            else:
                patched = rows
            if len(patched):
                stale.append((patched, col, audible))
            self._ap_blocks[ap_id] = key
            stats["dirty_aps"] += 1
            stats["dirty_rows"] += len(patched)
            stats["clean_rows"] += m - len(patched)
        self._dirty_rows[ap_id] = set()
        self._block_fast[ap_id] = (version, self._ctx_serial, has_rlf_sources)
        return has_rlf_sources

    def _compute_rows(self, stale: List[Tuple[np.ndarray, int, np.ndarray]]) -> None:
        """Recompute every stale row of the epoch in one batched pass.

        ``stale`` holds, per AP in topology order, the rows to recompute,
        the AP's column and its audible mask (:meth:`_refresh_block`).
        Every block quantity of a row depends on that row alone, so rows
        of many APs batch together without changing any value; they run
        in chunks of about :data:`_BLOCK_CHUNK` links, in order, which
        bounds the temporaries.  With telemetry on, each recomputed link
        whose CQI is above 0 counts one ``harq.evaluations``.
        """
        rows = np.concatenate([entry[0] for entry in stale])
        counts = [len(entry[0]) for entry in stale]
        serving = np.repeat(
            np.array([entry[1] for entry in stale], dtype=np.intp), counts
        )
        owner = np.repeat(np.arange(len(stale)), counts)
        audible = np.stack([entry[2] for entry in stale])
        step = max(1, _BLOCK_CHUNK // max(1, audible.shape[1]))
        for start in range(0, len(rows), step):
            part = slice(start, start + step)
            self._compute_block_rows(
                rows[part], serving[part], audible[owner[part]]
            )

    def _compute_block_rows(
        self, rows: np.ndarray, serving: np.ndarray, audible: np.ndarray
    ) -> None:
        """Deterministic epoch quantities for a batch of client rows.

        ``serving`` is each row's serving AP column and ``audible`` its
        AP's audible mask, one row per client row.  Writes the rows'
        rates, CQIs, truly-interfered flags and RLF probabilities into
        the epoch-wide matrices.  Bit-for-bit identical to
        the scalar oracle's per-link loops by construction:

        * interference accumulates onto zeros one active grant holder at a
          time, in grant order, exactly as the scalar per-subchannel sums
          do; the serving column, a holder's subchannels outside its grant
          and every column the row's AP cannot hear contribute an exact
          ``0.0``, which leaves an IEEE-754 sum of non-negative powers
          bitwise unchanged;
        * the control scale takes the strongest co-channel cell the AP can
          hear (serving and inaudible columns masked to ``-inf``; none
          left gives ``SIR = +inf`` or NaN, i.e. scale 1.0, as the oracle);
        * the RLF data interference adds ``overlap / len(my_subs)``
          weighted powers onto zeros one active AP at a time, in topology
          order, as the oracle's weighted sum does; zero weights (the AP
          itself, disjoint or no grants) add ``0.0``;
        * dB conversions round exactly like ``10 * math.log10``
          (:func:`_elementwise_db`);
        * CQI quantisation via ``searchsorted(side="right")`` equals the
          table walk in :func:`cqi_from_sinr`;
        * rates come from a table prefilled with the scalar grid function,
          HARQ scales from :func:`harq_goodput_scale_array`, bit-identical
          to the scalar :func:`~repro.phy.harq.harq_goodput_scale`.
        """
        n = len(rows)
        n_subs = self.grid.n_subchannels
        at = np.arange(n)
        active_cols = self._active_cols
        W = self._rx_w_mat[rows]
        signal_w = W[at, serving]

        # RLF data SINR; computed even when the AP draws nothing this
        # epoch -- the stored value is simply unused then.  Source-major,
        # so each source's weighted powers add as one contiguous row.
        # The ``del``s below free each (rows x APs) temporary before the
        # next stage allocates its own.
        weighted_w = np.zeros(n)
        if len(active_cols):
            weighted = self._rlf_overlap[:, serving] / self._n_granted[serving]
            weighted *= W.T[active_cols]
            for source in weighted:
                weighted_w += source
            del weighted
        data_db = _elementwise_db(signal_w / (self._rb_noise_w + weighted_w))

        # Interference, subchannel-major: each holder's powers add onto
        # the subchannels it holds, one holder at a time in grant order.
        W[at, serving] = 0.0
        holders = W.T[self._ent_cols]
        del W
        interference_w = np.zeros((n_subs, n))
        per_sub = list(interference_w)
        for power, subs, heard in zip(
            holders, self._granted, holders.any(axis=1).tolist()
        ):
            if heard:
                for sub in subs:
                    np.add(per_sub[sub], power, out=per_sub[sub])
        del holders

        sinr = _elementwise_db(
            signal_w[:, None] / (self._rb_noise_w + interference_w.T)
        )
        clean_db = _elementwise_db(signal_w / self._rb_noise_w)
        cqi = np.searchsorted(self._cqi_min_sinr, sinr, side="right")
        clean_cqi = np.searchsorted(self._cqi_min_sinr, clean_db, side="right")

        rate = self._rate_table[cqi, np.arange(n_subs)] * harq_goodput_scale_array(
            sinr, cqi
        )
        if self.control_interference and len(active_cols):
            rx_dbm = self._rx_dbm_mat
            rivals = rx_dbm[rows[:, None], active_cols]
            rivals[
                ~audible[:, active_cols] | (active_cols == serving[:, None])
            ] = -np.inf
            sir_db = (rx_dbm[rows, serving] - rivals.max(axis=1)).tolist()
            rate *= np.array([_control_scale(s) for s in sir_db])[:, None]

        self._rate_mat[rows, :n_subs] = rate
        self._cqi_mat[rows] = cqi
        self._interfered_mat[rows] = (clean_cqi[:, None] > 0) & (
            cqi < INTERFERENCE_CQI_DROP_FRACTION * clean_cqi[:, None]
        )
        # rlf_probability per element: min(0.9, x) as Python's min picks.
        ramp = RLF_SLOPE_PER_DB * (RLF_SAFE_SINR_DB - data_db)
        self._rlf_prob[rows] = np.where(
            data_db >= RLF_SAFE_SINR_DB,
            0.0,
            np.where(ramp < RLF_MAX_PROBABILITY, ramp, RLF_MAX_PROBABILITY),
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

        ``_ap_blocks``, ``_block_fast`` and ``_audible_cols`` are excluded
        on purpose: they memoise deterministic functions of serialized
        state, so a cold cache recomputes bit-identical values (and
        serializing them would make a resumed run's digest depend on cache
        warmth).  The epoch RNG streams ("cqi-detector", "rlf") belong to
        the shared :class:`~repro.sim.rng.RngStreams` subsystem and are
        restored there.  Client positions and serving associations *are*
        semantic state (mutated by :meth:`move_client` /
        :meth:`reattach_client`), so they are serialized and re-applied
        on load.
        """
        clients = sorted(self.topology.clients, key=lambda c: c.client_id)
        return {
            "schedulers": {
                ap_id: scheduler.state_dict()
                for ap_id, scheduler in self.schedulers.items()
            },
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
        # Older snapshots also carry a ``max_cqi_state`` entry, which the
        # incremental epoch always left empty (its history lives in
        # ``max_cqi_vec``); it is ignored.
        #
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
        self._block_fast.clear()
        self._epoch_ctx = None
        self._dirty_rows = {ap.ap_id: set() for ap in self.topology.aps}
