"""Uplink system-level model: power control, scheduling and interference.

The paper's interference-management discussion "focuses on the downlink
because the uplink is much less saturated; yet, the uplink can be managed
similarly" (Section 5).  This module supplies that symmetric half:

* **Fractional open-loop power control** (TS 36.213): a UE transmits at
  ``min(P_max, P0 + alpha * PL)`` per resource block, so cell-interior
  clients radiate little -- the same physics that localises PRACH.
* **Per-cell uplink scheduling** over the AP's allowed subchannels (TDD
  uses one allocation for both directions, so CellFi's subchannel
  decisions protect the uplink for free).
* **Inter-cell uplink interference**: the aggressor on subchannel ``k`` at
  cell ``i`` is whatever client the neighbouring cell scheduled on ``k``,
  modelled fluidly as the time-share-weighted average over its active
  clients.

The model reuses the downlink simulator's topology and channel so UL/DL
results are directly comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Set, Tuple

from repro.phy.harq import harq_goodput_scale
from repro.phy.mcs import CQI_OUT_OF_RANGE, cqi_from_sinr, efficiency_from_cqi
from repro.phy.resource_grid import RB_BANDWIDTH_HZ, ResourceGrid
from repro.sim.topology import Topology
from repro.utils.dbmath import dbm_to_watt, linear_to_db, thermal_noise_dbm

#: Fractional power-control defaults (TS 36.213 operator-typical values).
PC_P0_DBM_PER_RB = -85.0
PC_ALPHA = 0.8

#: eNodeB receiver noise figure (better than a handset's).
ENB_NOISE_FIGURE_DB = 5.0


@dataclass
class UplinkEpochResult:
    """Uplink outcome of one epoch.

    Attributes:
        throughput_bps: uplink throughput per client.
        tx_power_dbm: the power-controlled per-RB transmit PSD per client.
        sinr_db: average scheduled-subchannel SINR per client.
    """

    throughput_bps: Dict[int, float] = field(default_factory=dict)
    tx_power_dbm: Dict[int, float] = field(default_factory=dict)
    sinr_db: Dict[int, float] = field(default_factory=dict)


class UplinkModel:
    """Fluid uplink simulator sharing the downlink's substrate.

    Args:
        topology: node placement (same object the DL simulator uses).
        grid: the shared TDD carrier.
        channel: propagation model.
        max_ue_power_dbm: the TVWS portable cap (20 dBm).
        p0_dbm_per_rb / alpha: fractional power-control parameters.
    """

    def __init__(
        self,
        topology: Topology,
        grid: ResourceGrid,
        channel,
        max_ue_power_dbm: float = 20.0,
        p0_dbm_per_rb: float = PC_P0_DBM_PER_RB,
        alpha: float = PC_ALPHA,
    ) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha!r}")
        self.topology = topology
        self.grid = grid
        self.channel = channel
        self.max_ue_power_dbm = max_ue_power_dbm
        self.p0_dbm_per_rb = p0_dbm_per_rb
        self.alpha = alpha
        self._rb_noise_dbm = thermal_noise_dbm(RB_BANDWIDTH_HZ, ENB_NOISE_FIGURE_DB)
        self._loss: Dict[Tuple[int, int], float] = {}
        for client in topology.clients:
            for ap in topology.aps:
                self._loss[(client.client_id, ap.ap_id)] = channel.loss_db(
                    client, ap
                )

    # -- Power control --------------------------------------------------------

    def tx_psd_dbm_per_rb(self, client_id: int, n_rbs: int = 1) -> float:
        """Power-controlled per-RB transmit power toward the serving cell.

        The total budget (20 dBm) is shared across the granted RBs; the
        power-control target caps it from below the budget when the path
        loss is small.
        """
        if n_rbs < 1:
            raise ValueError(f"need at least one RB, got {n_rbs}")
        client = self.topology.client(client_id)
        loss = self._loss[(client_id, client.ap_id)]
        target = self.p0_dbm_per_rb + self.alpha * loss
        budget_per_rb = self.max_ue_power_dbm - 10.0 * math.log10(n_rbs)
        return min(target, budget_per_rb)

    # -- SINR -------------------------------------------------------------------

    def uplink_sinr_db(
        self,
        client_id: int,
        aggressors: Sequence[Tuple[int, float]] = (),
    ) -> float:
        """Uplink SINR of ``client_id`` at its serving cell.

        Args:
            aggressors: ``(client_id, activity)`` pairs for co-subchannel
                uplink transmitters of other cells, with duty-cycle weights.
        """
        client = self.topology.client(client_id)
        serving = client.ap_id
        signal_dbm = (
            self.tx_psd_dbm_per_rb(client_id) - self._loss[(client_id, serving)]
        )
        noise_w = dbm_to_watt(self._rb_noise_dbm)
        interference_w = 0.0
        for other_id, activity in aggressors:
            if not 0.0 <= activity <= 1.0:
                raise ValueError(f"activity out of [0,1]: {activity!r}")
            rx = self.tx_psd_dbm_per_rb(other_id) - self._loss[(other_id, serving)]
            interference_w += activity * dbm_to_watt(rx)
        return linear_to_db(dbm_to_watt(signal_dbm) / (noise_w + interference_w))

    # -- Epoch evaluation ----------------------------------------------------------

    def run_epoch(
        self,
        allowed: Mapping[int, Set[int]],
        ul_demands_bits: Mapping[int, float],
        epoch_s: float = 1.0,
    ) -> UplinkEpochResult:
        """Fluid uplink allocation for one epoch.

        Each cell round-robins its UL-active clients across its allowed
        subchannels; inter-cell interference on a subchannel is the
        time-share-weighted mix of the other cell's active clients.
        """
        result = UplinkEpochResult()
        # Active clients per AP and their time share per subchannel.
        active_by_ap: Dict[int, List[int]] = {}
        for client in self.topology.clients:
            if ul_demands_bits.get(client.client_id, 0.0) > 0.0:
                active_by_ap.setdefault(client.ap_id, []).append(client.client_id)

        for ap in self.topology.aps:
            clients = active_by_ap.get(ap.ap_id, [])
            subs = sorted(allowed.get(ap.ap_id, set()))
            if not clients or not subs:
                for cid in clients:
                    result.throughput_bps[cid] = 0.0
                continue
            share = 1.0 / len(clients)
            for cid in clients:
                # Aggressors: other cells' clients active on the same
                # subchannels, each weighted by its own cell's time share.
                aggressors: List[Tuple[int, float]] = []
                for other in self.topology.aps:
                    if other.ap_id == ap.ap_id:
                        continue
                    other_clients = active_by_ap.get(other.ap_id, [])
                    other_subs = allowed.get(other.ap_id, set())
                    if not other_clients or not other_subs:
                        continue
                    overlap = len(set(subs) & set(other_subs)) / len(subs)
                    if overlap == 0.0:
                        continue
                    weight = overlap / len(other_clients)
                    aggressors.extend(
                        (ocid, weight) for ocid in other_clients
                    )
                sinr = self.uplink_sinr_db(cid, aggressors)
                cqi = cqi_from_sinr(sinr)
                result.sinr_db[cid] = sinr
                result.tx_power_dbm[cid] = self.tx_psd_dbm_per_rb(cid)
                if cqi == CQI_OUT_OF_RANGE:
                    result.throughput_bps[cid] = 0.0
                    continue
                rbs = sum(self.grid.subchannel_rbs(k) for k in subs)
                rate = self.grid.uplink_rate_bps(efficiency_from_cqi(cqi), rbs)
                rate *= harq_goodput_scale(sinr, cqi) * share
                served = min(rate * epoch_s, ul_demands_bits[cid])
                result.throughput_bps[cid] = served / epoch_s
        return result
