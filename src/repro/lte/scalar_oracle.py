"""The scalar oracle: a per-link reference epoch for the LTE simulator.

:class:`ScalarOracleSimulator` runs the large-scale evaluation's epoch
(Section 6.3.4) the way ``docs/SIMULATION.md`` writes it down: per-AP,
per-client and per-subchannel Python loops, one SINR query and one random
draw at a time.  It exists to check
:class:`~repro.lte.network.LteNetworkSimulator`, whose epoch caches per-AP
blocks, recomputes their stale rows in one batched pass and keeps the
outcome dense.  For the same seeds the two agree bit for bit
(``tests/test_lte_network_vectorized.py``,
``tests/test_lte_network_incremental.py``).

The oracle shares only its *inputs* with the production class: the link
store (``_rx_w_mat``, ``_rx_dbm_mat``, ``_prach_mat``), the RNG streams
and the max-CQI state (``_max_cqi_vec``).  It never calls what it checks,
the block compute (``_refresh_block``, ``_set_decision_context``,
``_compute_rows``, ``_compute_block_rows``), and takes its HARQ scales
from the scalar :func:`~repro.phy.harq.harq_goodput_scale`, not the
array form the block compute uses.  It schedules through
:meth:`~repro.lte.scheduler.ProportionalFairScheduler.allocate_batch`, the
dict-job adapter over the PF kernel; the kernel's own reference is the
per-AP oracle of ``tests/test_lte_scheduler.py``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.lte.network import (
    INTERFERENCE_CQI_DROP_FRACTION,
    ZERO_SIGNAL_SINR_DB,
    ApObservation,
    ClientObservation,
    LteNetworkSimulator,
    _control_scale,
    rlf_probability,
)
from repro.lte.scheduler import Allocation, ProportionalFairScheduler
from repro.phy.harq import harq_goodput_scale
from repro.phy.mcs import CQI_OUT_OF_RANGE, cqi_from_sinr, efficiency_from_cqi
from repro.utils.dbmath import linear_to_db


class ScalarOracleSimulator(LteNetworkSimulator):
    """:class:`LteNetworkSimulator` whose epoch is the per-link oracle.

    Takes the production constructor's arguments except ``shard_ap_ids``:
    the oracle simulates the whole network in one process.  Events
    (:meth:`move_client`, :meth:`reattach_client`), checkpoints and the
    link store are the production class's own.
    """

    def __init__(
        self, *args: Any, shard_ap_ids: Optional[Sequence[int]] = None, **kwargs: Any
    ) -> None:
        if shard_ap_ids is not None:
            raise ValueError(
                "the scalar oracle simulates the whole network; "
                "it takes no shard_ap_ids"
            )
        super().__init__(*args, **kwargs)

    # -- Per-link queries -------------------------------------------------------

    def sinr_db(
        self,
        client_id: int,
        serving_ap: int,
        interfering_aps: Sequence[int],
    ) -> float:
        """Per-RB SINR at a client for a given co-RB interferer set."""
        rx_w = self._rx_w_mat[self._client_row[client_id]].tolist()
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
        rx_w = self._rx_w_mat[self._client_row[client_id]].tolist()
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
        rx_dbm = self._rx_dbm_mat[self._client_row[client_id]].tolist()
        cols = self._ap_col
        signal = rx_dbm[cols[serving_ap]]
        strongest = max(rx_dbm[cols[ap]] for ap in co_channel_aps)
        return _control_scale(signal - strongest)

    # -- Epoch ------------------------------------------------------------------

    def _epoch(
        self,
        allowed: Dict[int, Set[int]],
        demands_bits: Dict[int, float],
        prach_counts: Optional[np.ndarray],
    ) -> tuple:
        """The oracle's epoch: per-AP links, one schedule, per-AP observe.

        Three passes over the APs in topology order: links (every RLF
        draw), one batched PF schedule through the dict-job adapter, then
        :meth:`_observe` (every detector draw, one scalar draw at a time).
        The contender counts come from the link store, never from
        ``prach_counts``: the oracle is never a shard.  Every AP and every
        client row is computed afresh, which ``last_epoch_stats`` reports.
        """
        aps = self.topology.aps
        served = [(ap, self.topology.clients_of(ap.ap_id)) for ap in aps]
        # Active AP ids in topology order: the co-channel list.
        active_list = [
            ap.ap_id
            for ap, clients in served
            if any(demands_bits.get(c.client_id, 0.0) > 0.0 for c in clients)
        ]
        active_aps = set(active_list)
        detector_rng = self.rngs.stream("cqi-detector")
        rlf_rng = self.rngs.stream("rlf")
        # Per-subchannel interferer sets (only active cells interfere).
        interferers_on: Dict[int, List[int]] = {
            sub: [
                ap_id
                for ap_id, subs in allowed.items()
                if sub in subs and ap_id in active_aps
            ]
            for sub in range(self.grid.n_subchannels)
        }
        jobs, per_ap = [], []
        for ap, clients in served:
            ap_demands = {
                c.client_id: demands_bits.get(c.client_id, 0.0) for c in clients
            }
            ap_active = {cid: d for cid, d in ap_demands.items() if d > 0.0}
            rate_fn, disconnected, sinr_map, clean_map = self._scalar_links(
                ap, clients, allowed, interferers_on, active_list, ap_demands,
                rlf_rng,
            )
            for cid in disconnected:
                del ap_active[cid]
            job = None
            if ap_active:
                job = len(jobs)
                jobs.append((
                    self.schedulers[ap.ap_id],
                    sorted(allowed.get(ap.ap_id, set())),
                    ap_active,
                    rate_fn,
                ))
            per_ap.append((ap.ap_id, clients, ap_demands, ap_active,
                           sinr_map, clean_map, job))

        scheduled = ProportionalFairScheduler.allocate_batch(jobs, self.epoch_s)
        allocations: Dict[int, Allocation] = {}
        observations: Dict[int, ApObservation] = {}
        cids: List[int] = []
        bits: List[float] = []
        demand: List[float] = []
        for ap_id, clients, ap_demands, ap_active, sinr_map, clean_map, job in per_ap:
            allocation = (
                Allocation(self.epoch_s) if job is None else scheduled[job]
            )
            allocations[ap_id] = allocation
            observations[ap_id] = self._observe(
                ap_id, clients, ap_active, sinr_map, clean_map, allocation,
                demands_bits, detector_rng,
            )
            cids.extend(ap_demands)
            demand.extend(ap_demands.values())
            bits.extend(allocation.served_bits.get(cid, 0.0) for cid in ap_demands)
        n_aps = len(aps)
        self.last_epoch_stats = {
            "dirty_aps": n_aps,
            "clean_aps": 0,
            "dirty_rows": len(cids),
            "clean_rows": 0,
            "culled_columns": 0,
            "total_columns": n_aps * n_aps,
        }
        return (*self._settle(cids, np.array(bits), np.array(demand)),
                allocations, observations)

    def _scalar_links(
        self,
        ap,
        clients,
        allowed: Dict[int, Set[int]],
        interferers_on: Dict[int, List[int]],
        active_list: List[int],
        ap_demands: Dict[int, float],
        rlf_rng: np.random.Generator,
    ) -> tuple:
        """One AP's links: per-link loops, one SINR query at a time.

        Returns the AP's rate function, its disconnected clients and the
        SINR maps :meth:`_observe` reads.
        """
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

        return rate_fn, disconnected, sinr_map, clean_map

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
            # The cross-epoch max-CQI history is the production class's
            # own store, one row per client.
            history = self._max_cqi_vec[client_row[cid]]
            subband_cqi = []
            detected = []
            max_cqi = []
            for sub in range(n_subs):
                sinr = sinr_map[(cid, sub)]
                cqi = cqi_from_sinr(sinr)
                subband_cqi.append(cqi)
                best = max(int(history[sub]), cqi)
                history[sub] = best
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
