"""Distributed subchannel selection: hopping, buckets, and re-use packing.

Implements the Figure 4 procedure and the bucket/re-use rules of paper
Section 5.3:

* Initially an AP picks its ``S_i`` subchannels at random, drawing for each
  a bucket value from an exponential distribution with mean ``lambda = 10``
  ("we found lambda = 10 to be a good choice experimentally").
* Each period, for every client scheduled on a held subchannel: a "bad"
  verdict (interference detected) decrements the bucket by the fraction of
  time that client was scheduled there.  "The bucket update mechanism makes
  sure that a new AP is able to win a subchannel irrespective of how long
  the previous AP has been operating on it."
* When a bucket reaches zero the AP gives the subchannel up and hops to the
  subchannel of **maximum utility**, where utility is the sum of the
  throughputs achievable (estimated from CQI) by the clients recently
  scheduled on the abandoned subchannel, scaled by their scheduled time.
* **Channel re-use** (packing): the AP moves a held subchannel down to a
  lower index when that lower subchannel has looked interference-free to
  all relevant clients for a contiguous stretch -- clients that nobody
  interferes with (e.g. close to their AP) spontaneously stack onto the
  same low subchannels across networks, yielding "up to 2x gain in
  throughput for exposed clients".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set

import numpy as np

from repro.obs import runtime as _obs_runtime
from repro.phy.mcs import efficiency_from_cqi


@dataclass(frozen=True)
class ClientSense:
    """What one client's reports tell its AP this epoch.

    Attributes:
        subband_cqi: latest CQI per subchannel.
        max_subband_cqi: running max CQI per subchannel (clean estimate).
        interference_detected: detector verdict per subchannel.
        scheduled_fraction: airtime per subchannel last epoch.
    """

    subband_cqi: Sequence[int]
    max_subband_cqi: Sequence[int]
    interference_detected: Sequence[bool]
    scheduled_fraction: Mapping[int, float]


@dataclass
class HopperConfig:
    """Tunables of the hopping procedure.

    Attributes:
        n_subchannels: subchannels on the carrier (13 on 5 MHz).
        bucket_mean: mean of the exponential bucket distribution (paper: 10).
        reuse_enabled: apply the channel re-use packing heuristic.
        reuse_persistence_epochs: how long a lower subchannel must look free
            before packing onto it.
    """

    n_subchannels: int
    bucket_mean: float = 10.0
    reuse_enabled: bool = True
    reuse_persistence_epochs: int = 3

    def __post_init__(self) -> None:
        if self.n_subchannels <= 0:
            raise ValueError(f"need subchannels, got {self.n_subchannels}")
        if self.bucket_mean <= 0.0:
            raise ValueError(f"bucket mean must be > 0, got {self.bucket_mean}")
        if self.reuse_persistence_epochs < 1:
            raise ValueError("re-use persistence must be >= 1 epoch")


class SubchannelHopper:
    """Per-AP hopping state machine.

    Args:
        config: tunables.
        rng: random stream (initial picks, bucket draws, tie breaks).
    """

    def __init__(self, config: HopperConfig, rng: np.random.Generator) -> None:
        self.config = config
        self.rng = rng
        #: Held subchannel -> remaining bucket value.
        self.buckets: Dict[int, float] = {}
        #: Clients recently scheduled per held subchannel (for utility and
        #: the re-use rule's "users scheduled ... in the recent past").
        self._recent_clients: Dict[int, Set[int]] = {}
        #: Consecutive epochs each subchannel has looked free to all of our
        #: relevant clients.
        self._free_streak: Dict[int, int] = {
            k: 0 for k in range(config.n_subchannels)
        }
        self.hop_count = 0
        self.reuse_moves = 0

    # -- Queries -----------------------------------------------------------------

    @property
    def holdings(self) -> Set[int]:
        """Currently held subchannels."""
        return set(self.buckets)

    _initialized_empty = False

    # -- Main per-epoch step ------------------------------------------------------

    def step(
        self,
        target_share: int,
        senses: Mapping[int, ClientSense],
    ) -> Set[int]:
        """Advance one epoch; returns the subchannels to use next epoch.

        Args:
            target_share: ``S_i`` from the share calculation.
            senses: per-client sensing input for the epoch just finished.

        Raises:
            ValueError: if ``target_share`` exceeds the carrier size.
        """
        if not 0 <= target_share <= self.config.n_subchannels:
            raise ValueError(
                f"share {target_share} out of range 0..{self.config.n_subchannels}"
            )
        if not self.buckets and not self._initialized_empty:
            self._initialize(target_share)
            return self.holdings

        hops_before = self.hop_count
        reuse_before = self.reuse_moves
        self._update_free_streaks(senses)
        self._drain_buckets(senses)
        self._hop_empty_buckets(senses)
        self._resize(target_share, senses)
        if self.config.reuse_enabled:
            self._pack_downwards(senses)
        self._remember_recent_clients(senses)
        tel = _obs_runtime.active()
        if tel is not None:
            hops = self.hop_count - hops_before
            tel.inc("hopping.steps")
            if hops:
                tel.inc("hopping.hops", hops)
            if self.reuse_moves > reuse_before:
                tel.inc("hopping.reuse_moves", self.reuse_moves - reuse_before)
            tel.observe(
                "hopping.hops_per_step",
                hops,
                edges=(0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0),
            )
        return self.holdings

    # -- Phase 0: initial random pick ----------------------------------------------

    def _initialize(self, target_share: int) -> None:
        if target_share == 0:
            self._initialized_empty = True
            return
        picks = self.rng.choice(
            self.config.n_subchannels, size=target_share, replace=False
        )
        for k in picks:
            self.buckets[int(k)] = self._draw_bucket()

    def _draw_bucket(self) -> float:
        return float(self.rng.exponential(self.config.bucket_mean))

    # -- Phase 1: bucket drain ---------------------------------------------------------

    def _drain_buckets(self, senses: Mapping[int, ClientSense]) -> None:
        for k in list(self.buckets):
            for sense in senses.values():
                frac = sense.scheduled_fraction.get(k, 0.0)
                if frac <= 0.0:
                    continue
                if sense.interference_detected[k]:
                    self.buckets[k] -= frac

    # -- Phase 2: hops -------------------------------------------------------------------

    def _hop_empty_buckets(self, senses: Mapping[int, ClientSense]) -> None:
        for k in sorted(self.buckets):
            if self.buckets[k] > 0.0:
                continue
            departing_clients = self._recent_clients.get(k, set())
            replacement = self._best_candidate(senses, departing_clients)
            del self.buckets[k]
            self._recent_clients.pop(k, None)
            if replacement is not None:
                self.buckets[replacement] = self._draw_bucket()
                self._recent_clients[replacement] = set(departing_clients)
            self.hop_count += 1

    def _best_candidate(
        self,
        senses: Mapping[int, ClientSense],
        weight_clients: Set[int],
    ) -> Optional[int]:
        """Maximum-utility subchannel not currently held.

        Utility of candidate ``k'``: sum over the relevant clients of the
        rate their CQI reading promises on ``k'``, weighted by how much
        airtime they recently received.  When no history exists (cold
        start, idle cell) all active clients weigh equally.
        """
        candidates = [
            k for k in range(self.config.n_subchannels) if k not in self.buckets
        ]
        if not candidates:
            return None
        best_k = None
        best_utility = -1.0
        # Random scan order randomises tie-breaks.
        for k in self.rng.permutation(candidates):
            utility = self._utility(int(k), senses, weight_clients)
            if utility > best_utility:
                best_utility = utility
                best_k = int(k)
        return best_k

    def _utility(
        self,
        candidate: int,
        senses: Mapping[int, ClientSense],
        weight_clients: Set[int],
    ) -> float:
        total = 0.0
        for client_id, sense in senses.items():
            if weight_clients and client_id not in weight_clients:
                continue
            weight = sum(sense.scheduled_fraction.values()) or 1.0
            rate = efficiency_from_cqi(sense.subband_cqi[candidate])
            if sense.interference_detected[candidate]:
                # A subchannel the client already flags is a bad bet.
                rate *= 0.1
            total += weight * rate
        return total

    # -- Phase 3: share resize ----------------------------------------------------------------

    def _resize(self, target_share: int, senses: Mapping[int, ClientSense]) -> None:
        while len(self.buckets) < target_share:
            extra = self._best_candidate(senses, set())
            if extra is None:
                break
            self.buckets[extra] = self._draw_bucket()
        while len(self.buckets) > target_share:
            # Shed the least useful holding.
            worst = min(
                self.buckets,
                key=lambda k: self._utility(k, senses, self._recent_clients.get(k, set())),
            )
            del self.buckets[worst]
            self._recent_clients.pop(worst, None)

    # -- Phase 4: channel re-use packing ----------------------------------------------------------

    def _update_free_streaks(self, senses: Mapping[int, ClientSense]) -> None:
        for k in range(self.config.n_subchannels):
            free_for_all = all(
                not sense.interference_detected[k] for sense in senses.values()
            ) if senses else False
            if free_for_all and k not in self.buckets:
                self._free_streak[k] += 1
            else:
                self._free_streak[k] = 0

    def _pack_downwards(self, senses: Mapping[int, ClientSense]) -> None:
        """Move the highest held subchannel onto a persistent-free lower one."""
        if not self.buckets:
            return
        highest = max(self.buckets)
        candidates = [
            k
            for k in range(highest)
            if k not in self.buckets
            and self._free_streak[k] >= self.config.reuse_persistence_epochs
        ]
        if not candidates:
            return
        target = min(candidates)
        recent = self._recent_clients.get(highest, set())
        # The paper's rule: all users recently scheduled on the abandoned
        # subchannel must have seen the target as free.
        for client_id in recent:
            sense = senses.get(client_id)
            if sense is not None and sense.interference_detected[target]:
                return
        bucket = self.buckets.pop(highest)
        self.buckets[target] = bucket
        self._recent_clients[target] = recent
        self._recent_clients.pop(highest, None)
        self._free_streak[target] = 0
        self.reuse_moves += 1

    # -- Checkpointing ----------------------------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Hopping state.

        The RNG is excluded: it is one of the shared
        :class:`repro.sim.rng.RngStreams` generators and is restored in
        place by that subsystem, preserving the aliasing.
        """
        return {
            "buckets": dict(self.buckets),
            "recent_clients": dict(self._recent_clients),
            "free_streak": dict(self._free_streak),
            "hop_count": self.hop_count,
            "reuse_moves": self.reuse_moves,
            "initialized_empty": self._initialized_empty,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        self.buckets = {int(k): float(v) for k, v in state["buckets"].items()}
        self._recent_clients = {
            int(k): set(v) for k, v in state["recent_clients"].items()
        }
        self._free_streak = {int(k): int(v) for k, v in state["free_streak"].items()}
        self.hop_count = state["hop_count"]
        self.reuse_moves = state["reuse_moves"]
        self._initialized_empty = state["initialized_empty"]

    # -- Bookkeeping ------------------------------------------------------------------------------

    def _remember_recent_clients(self, senses: Mapping[int, ClientSense]) -> None:
        for k in self.buckets:
            scheduled = {
                client_id
                for client_id, sense in senses.items()
                if sense.scheduled_fraction.get(k, 0.0) > 0.0
            }
            if scheduled:
                self._recent_clients[k] = scheduled
