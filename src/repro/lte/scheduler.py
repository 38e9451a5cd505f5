"""Downlink schedulers: allocation of subchannel airtime to clients.

CellFi deliberately leaves the standard LTE scheduler untouched: "the
scheduler is free to schedule any client in any of the resource blocks made
available by the interference management system" (paper Section 4.3).  The
simulators therefore use these schedulers both for plain LTE (all
subchannels allowed) and for CellFi (allowed set from interference
management).

The schedulers operate at *epoch* granularity (the 1 s interference-
management period): an epoch is divided into mini-slots and each allowed
subchannel is assigned to one client per mini-slot.  This captures
time-sharing, finite demands and per-subchannel rate differences without
simulating every 1 ms TTI.

Every AP of the system-level simulator runs the same PF scheduler, so
:meth:`ProportionalFairScheduler.allocate_batch` schedules all of an
epoch's APs in one lockstep NumPy kernel, bit-identical to scheduling
them one at a time; :meth:`ProportionalFairScheduler.allocate` is a batch
of one.  :class:`RoundRobinScheduler` keeps the generic per-pick engine
of :class:`Scheduler`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.obs import runtime as _obs_runtime

#: Mini-slots per scheduling epoch.  50 slots x 1 s epoch = 20 ms granularity,
#: fine enough for fairness yet ~20x cheaper than per-TTI simulation.
MINISLOTS_PER_EPOCH = 50

#: ``_REPEATED_FRACTION[k]``: the airtime fraction of ``k`` mini-slots,
#: summed as ``k`` repeated ``+= 1 / MINISLOTS_PER_EPOCH`` from ``0.0``.
_REPEATED_FRACTION = np.array(
    list(accumulate([1.0 / MINISLOTS_PER_EPOCH] * MINISLOTS_PER_EPOCH, initial=0.0))
)
_REPEATED_FRACTION.flags.writeable = False


@dataclass
class Allocation:
    """The outcome of scheduling one epoch.

    Attributes:
        epoch_s: epoch duration scheduled over.
        served_bits: bits delivered per client.
        time_fraction: fraction of the epoch each (client, subchannel) pair
            was scheduled -- the ``frac_j`` the bucket-update rule consumes.
    """

    epoch_s: float
    served_bits: Dict[int, float] = field(default_factory=dict)
    time_fraction: Dict[Tuple[int, int], float] = field(default_factory=dict)

    def client_throughput_bps(self, client_id: int) -> float:
        """Average throughput of ``client_id`` over the epoch."""
        return self.served_bits.get(client_id, 0.0) / self.epoch_s

    def fraction(self, client_id: int, subchannel: int) -> float:
        """Fraction of the epoch ``client_id`` was scheduled on ``subchannel``."""
        return self.time_fraction.get((client_id, subchannel), 0.0)

    def clients_on(self, subchannel: int) -> List[int]:
        """Clients that received any airtime on ``subchannel``."""
        return [
            client
            for (client, sub), frac in self.time_fraction.items()
            if sub == subchannel and frac > 0.0
        ]


#: Rate function signature: (client_id, subchannel) -> achievable bps when
#: scheduled full-time on that subchannel.
RateFn = Callable[[int, int], float]


class Scheduler(ABC):
    """Interface: divide subchannel airtime among clients for one epoch."""

    @abstractmethod
    def allocate(
        self,
        allowed_subchannels: Sequence[int],
        demands_bits: Dict[int, float],
        rate_fn: RateFn,
        epoch_s: float = 1.0,
    ) -> Allocation:
        """Produce an allocation for one epoch.

        Args:
            allowed_subchannels: subchannels this AP may use (from the
                interference manager; plain LTE passes all of them).
            demands_bits: per-client backlog for this epoch;
                ``float('inf')`` for saturated clients.
            rate_fn: achievable full-time rate per (client, subchannel).
            epoch_s: epoch duration in seconds.
        """

    def _slot_allocate(
        self,
        allowed_subchannels: Sequence[int],
        demands_bits: Dict[int, float],
        rate_fn: RateFn,
        epoch_s: float,
        pick: Callable[[int, Dict[int, float], Dict[int, float]], int],
    ) -> Allocation:
        """Shared mini-slot engine.

        ``pick(subchannel, remaining_demand, served_so_far)`` returns the
        client to serve, or -1 for none.
        """
        tel = _obs_runtime.active()
        span = (
            tel.span(
                "scheduler.allocate",
                cat="scheduler",
                args={
                    "clients": len(demands_bits),
                    "subchannels": len(allowed_subchannels),
                },
            )
            if tel is not None
            else None
        )
        if span is not None:
            span.__enter__()
        allocation = Allocation(epoch_s=epoch_s)
        remaining = dict(demands_bits)
        served: Dict[int, float] = {c: 0.0 for c in demands_bits}
        slot_s = epoch_s / MINISLOTS_PER_EPOCH
        for _ in range(MINISLOTS_PER_EPOCH):
            for sub in allowed_subchannels:
                client = pick(sub, remaining, served)
                if client < 0:
                    continue
                bits = min(rate_fn(client, sub) * slot_s, remaining[client])
                if bits <= 0.0:
                    continue
                remaining[client] -= bits
                served[client] += bits
                key = (client, sub)
                allocation.time_fraction[key] = (
                    allocation.time_fraction.get(key, 0.0) + 1.0 / MINISLOTS_PER_EPOCH
                )
        allocation.served_bits = served
        if span is not None:
            span.__exit__(None, None, None)
            tel.inc("scheduler.allocations")
            tel.inc("scheduler.served_bits", sum(served.values()))
            tel.inc(
                "scheduler.clients_served",
                sum(1 for bits in served.values() if bits > 0.0),
            )
        return allocation


class RoundRobinScheduler(Scheduler):
    """Cycle through backlogged clients on every subchannel.

    Deterministic and fair in airtime; used as the simple baseline and in
    unit tests where predictability matters.
    """

    def __init__(self) -> None:
        self._cursor: Dict[int, int] = {}

    def state_dict(self) -> Dict[str, object]:
        """Per-subchannel cursor positions (the only cross-epoch state)."""
        return {"cursor": dict(self._cursor)}

    def load_state(self, state: Dict[str, object]) -> None:
        self._cursor = dict(state["cursor"])

    def allocate(
        self,
        allowed_subchannels: Sequence[int],
        demands_bits: Dict[int, float],
        rate_fn: RateFn,
        epoch_s: float = 1.0,
    ) -> Allocation:
        client_order = sorted(demands_bits)

        def pick(sub: int, remaining: Dict[int, float], served: Dict[int, float]) -> int:
            eligible = [
                c for c in client_order if remaining[c] > 0.0 and rate_fn(c, sub) > 0.0
            ]
            if not eligible:
                return -1
            cursor = self._cursor.get(sub, 0)
            client = eligible[cursor % len(eligible)]
            self._cursor[sub] = cursor + 1
            return client

        return self._slot_allocate(
            allowed_subchannels, demands_bits, rate_fn, epoch_s, pick
        )


#: One PF scheduling job: the AP's scheduler, its allowed subchannels (in
#: pick order), its per-client demands and its rate function.
PfJob = Tuple["ProportionalFairScheduler", Sequence[int], Dict[int, float], RateFn]


class ProportionalFairScheduler(Scheduler):
    """Classic proportional fairness: maximise ``rate / smoothed average``.

    The exponential average persists across epochs, so long-lived rate
    disparities even out over time exactly as in a real eNodeB.
    """

    def __init__(self, smoothing: float = 0.05, floor_bps: float = 1e3) -> None:
        if not 0.0 < smoothing <= 1.0:
            raise ValueError(f"smoothing must be in (0,1], got {smoothing!r}")
        self.smoothing = smoothing
        self.floor_bps = floor_bps
        self._average_bps: Dict[int, float] = {}

    def state_dict(self) -> Dict[str, object]:
        """Smoothed per-client averages (the fairness memory)."""
        return {"average_bps": dict(self._average_bps)}

    def load_state(self, state: Dict[str, object]) -> None:
        self._average_bps = dict(state["average_bps"])

    def allocate(
        self,
        allowed_subchannels: Sequence[int],
        demands_bits: Dict[int, float],
        rate_fn: RateFn,
        epoch_s: float = 1.0,
    ) -> Allocation:
        return self.allocate_batch(
            [(self, allowed_subchannels, demands_bits, rate_fn)], epoch_s
        )[0]

    @staticmethod
    def allocate_batch(jobs: Sequence[PfJob], epoch_s: float = 1.0) -> List[Allocation]:
        """Schedule one epoch for many independent APs in lockstep.

        Each job is ``(scheduler, allowed_subchannels, demands_bits,
        rate_fn)`` with its own scheduler; the result holds one
        :class:`Allocation` per job, and every job's scheduler gets its
        smoothed averages updated.

        Within one AP a pick depends on the bits served by the previous
        picks (mini-slot by mini-slot, subchannel by subchannel), but APs
        are independent.  So the kernel walks (mini-slot, position in the
        AP's allowed list) once, and each step makes the next pick of
        every AP at once over padded ``(n_aps, 1 + max_clients)`` arrays.
        The result is bit-identical to scheduling the APs one by one:

        * the pick is the first client with the largest ``rate / denom``
          if that is ``> 0`` -- ``argmax`` returns the first maximum, and
          exhausted or padding clients carry an infinite denominator
          (metric ``0.0``), as does the idle sentinel in column 0 that
          wins whenever no client's metric is positive;
        * ``denom = max(served + history, floor)`` is kept per client and
          refreshed only at the picked entry, with the same operations;
        * a pick that would serve ``bits <= 0`` changes nothing, and once
          no AP progressed during a mini-slot every later slot would be
          the same no-op, so the walk stops;
        * ``time_fraction`` grows by repeated ``+= 1/MINISLOTS_PER_EPOCH``.

        ``tests/test_lte_scheduler.py`` pins this against the per-AP loop.
        """
        if not jobs:
            return []
        tel = _obs_runtime.active()
        span = (
            tel.span(
                "scheduler.allocate",
                cat="scheduler",
                args={
                    "aps": len(jobs),
                    "clients": sum(len(job[2]) for job in jobs),
                    "subchannels": sum(len(job[1]) for job in jobs),
                },
            )
            if tel is not None
            else None
        )
        if span is not None:
            span.__enter__()
        n_jobs = len(jobs)
        client_ids = [list(job[2]) for job in jobs]
        sub_lists = [list(job[1]) for job in jobs]
        # Padded state, one row per AP; rate[p] holds every AP's rates on
        # its p-th allowed subchannel.  Clients sit at columns 1..n and
        # column 0 is the idle sentinel: zero rate and zero demand like
        # the padding, so picking it serves min(0, 0) = 0 bits, a no-op.
        n_cols = 1 + max(len(c) for c in client_ids)
        n_pos = max(len(s) for s in sub_lists)
        rate = np.zeros((n_pos, n_jobs, n_cols))
        remaining = np.zeros((n_jobs, n_cols))
        history = np.zeros((n_jobs, n_cols))
        floor_denom = np.empty(n_jobs)
        for b, (scheduler, _, demands, rate_fn) in enumerate(jobs):
            cids = client_ids[b]
            subs = sub_lists[b]
            averages = scheduler._average_bps
            for client in cids:
                averages.setdefault(client, scheduler.floor_bps)
            end = 1 + len(cids)
            floor_denom[b] = scheduler.floor_bps * epoch_s / 100.0
            # Denominator mixes historical average with bits already served
            # *this epoch*, so fairness acts within the epoch too (otherwise
            # one client would win every mini-slot).
            smoothing = scheduler.smoothing
            history[b, 1:end] = [smoothing * averages[c] * epoch_s for c in cids]
            remaining[b, 1:end] = [demands[c] for c in cids]
            if not subs or not cids:
                continue
            # Backends that precompute per-client rate rows expose them as
            # an attribute on the closure; reading the table skips one
            # function call per (subchannel, client) pair.
            rate_rows = getattr(rate_fn, "rate_rows", None)
            if rate_rows is None:
                table = [[rate_fn(c, s) for c in cids] for s in subs]
            else:
                rows = [rate_rows[c] for c in cids]
                table = [[row[s] for row in rows] for s in subs]
            rate[: len(subs), b, 1:end] = table

        n_entries = n_jobs * n_cols
        served = np.zeros((n_jobs, n_cols))
        served_flat = served.reshape(-1)
        remaining_flat = remaining.reshape(-1)
        history_flat = history.reshape(-1)
        denom = np.where(
            remaining > 0.0,
            np.maximum(served + history, floor_denom[:, None]),
            np.inf,
        )
        denom_flat = denom.reshape(-1)
        # Bits one mini-slot carries, per (position, AP, column).
        slot_bits = rate.reshape(n_pos, n_entries) * (epoch_s / MINISLOTS_PER_EPOCH)
        row_base = np.arange(n_jobs) * n_cols
        # One slot's picks (flat entries) and the bits they served, then
        # the count of serving picks per (position, AP, column) entry.
        picks = np.empty((n_pos, n_jobs), dtype=np.intp)
        moved = np.empty((n_pos, n_jobs))
        pos_base = (np.arange(n_pos) * n_entries)[:, None]
        counts = np.zeros(n_pos * n_entries, dtype=np.intp)
        for _ in range(MINISLOTS_PER_EPOCH):
            for p in range(n_pos):
                picked = picks[p]
                bits = moved[p]
                (rate[p] / denom).argmax(axis=1, out=picked)
                picked += row_base
                left = remaining_flat.take(picked)
                np.minimum(slot_bits[p].take(picked), left, out=bits)
                left -= bits
                got = served_flat.take(picked)
                got += bits
                remaining_flat[picked] = left
                served_flat[picked] = got
                got += history_flat.take(picked)
                np.maximum(got, floor_denom, out=got)
                got[left <= 0.0] = np.inf
                denom_flat[picked] = got
            serving = moved > 0.0
            # A mini-slot that served nothing left every AP's state as it
            # was, so every later slot would be the same no-op.
            if not serving.any():
                break
            counts[(picks + pos_base)[serving]] += 1
        # The fraction of k serving picks is k repeated
        # ``+= 1/MINISLOTS_PER_EPOCH``, as the per-pick loop accumulated it.
        fraction = _REPEATED_FRACTION[counts].reshape(n_pos, n_jobs, n_cols)

        # Per-job allocations from the padded state, then the averages.
        served_rows = served[:, 1:].tolist()
        allocations = []
        for b, (scheduler, _, _, _) in enumerate(jobs):
            cids = client_ids[b]
            subs = sub_lists[b]
            got = served_rows[b]
            block = fraction[: len(subs), b, 1 : 1 + len(cids)]
            pos, col = np.nonzero(block)
            allocations.append(
                Allocation(
                    epoch_s=epoch_s,
                    served_bits=dict(zip(cids, got)),
                    time_fraction={
                        (cids[c], subs[p]): f
                        for p, c, f in zip(
                            pos.tolist(), col.tolist(), block[pos, col].tolist()
                        )
                    },
                )
            )
            # Update the smoothed averages from realised epoch throughput.
            averages = scheduler._average_bps
            smoothing = scheduler.smoothing
            floor_bps = scheduler.floor_bps
            for client, bits in zip(cids, got):
                realised = bits / epoch_s
                averages[client] = (
                    (1.0 - smoothing) * averages[client]
                    + smoothing * max(realised, floor_bps)
                )
        if span is not None:
            span.__exit__(None, None, None)
            tel.inc("scheduler.allocations", n_jobs)
            for allocation in allocations:
                served_bits = allocation.served_bits
                tel.inc("scheduler.served_bits", sum(served_bits.values()))
                tel.inc(
                    "scheduler.clients_served",
                    sum(1 for bits in served_bits.values() if bits > 0.0),
                )
        return allocations
