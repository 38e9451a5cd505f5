"""The downlink PF scheduler: allocation of subchannel airtime to clients.

CellFi deliberately leaves the standard LTE scheduler untouched: "the
scheduler is free to schedule any client in any of the resource blocks made
available by the interference management system" (paper Section 4.3).  The
simulators therefore run this one scheduler both for plain LTE (all
subchannels allowed) and for CellFi (allowed set from interference
management).

The scheduler operates at *epoch* granularity (the 1 s interference-
management period): an epoch is divided into mini-slots and each allowed
subchannel is assigned to one client per mini-slot.  This captures
time-sharing, finite demands and per-subchannel rate differences without
simulating every 1 ms TTI.

Every AP of the system-level simulator runs the same PF scheduler, so
one array kernel, :func:`pf_lockstep`, schedules all of an epoch's APs in
lockstep, bit-identical to scheduling them one at a time; saturated
demand (every positive demand infinite, plain LTE's full-buffer clients)
takes a leaner step that skips the exhaustion bookkeeping.
:meth:`ProportionalFairScheduler.allocate_dense` runs it for jobs already
in its padded arrays (the network's incremental epoch gathers them from
its rate matrix) and updates the PF averages from the dense outcome;
:meth:`ProportionalFairScheduler.allocate_batch` is the thin adapter for
dict-shaped jobs, and :meth:`ProportionalFairScheduler.allocate` is a
batch of one.  Their :class:`Allocation` objects keep the kernel's dense
fraction block and build ``time_fraction`` only when it is read.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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


class Allocation:
    """The outcome of scheduling one epoch.

    Attributes:
        epoch_s: epoch duration scheduled over.
        served_bits: bits delivered per client.
        time_fraction: fraction of the epoch each (client, subchannel) pair
            was scheduled -- the ``frac_j`` the bucket-update rule consumes.
            An allocation made by the batched PF kernel keeps a reference
            to the kernel's dense fraction block and builds this dict on
            first read.
    """

    def __init__(
        self,
        epoch_s: float,
        served_bits: Optional[Dict[int, float]] = None,
        time_fraction: Optional[Dict[Tuple[int, int], float]] = None,
    ) -> None:
        self.epoch_s = epoch_s
        self.served_bits = {} if served_bits is None else served_bits
        self._time_fraction = {} if time_fraction is None else time_fraction
        self._dense: Optional[tuple] = None

    @classmethod
    def from_dense(
        cls,
        epoch_s: float,
        served_bits: Dict[int, float],
        fraction: np.ndarray,
        job: int,
        client_ids: Sequence[int],
        subchannels: Sequence[int],
    ) -> "Allocation":
        """Job ``job`` of a ``(position, job, 1 + client)`` fraction block."""
        allocation = cls(epoch_s, served_bits)
        allocation._time_fraction = None
        allocation._dense = (fraction, job, client_ids, subchannels)
        return allocation

    @property
    def time_fraction(self) -> Dict[Tuple[int, int], float]:
        if self._time_fraction is None:
            fraction, job, cids, subs = self._dense
            block = fraction[: len(subs), job, 1 : 1 + len(cids)]
            pos, col = np.nonzero(block)
            self._time_fraction = {
                (cids[c], subs[p]): f
                for p, c, f in zip(
                    pos.tolist(), col.tolist(), block[pos, col].tolist()
                )
            }
            self._dense = None
        return self._time_fraction

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Allocation):
            return NotImplemented
        return (self.epoch_s, self.served_bits, self.time_fraction) == (
            other.epoch_s, other.served_bits, other.time_fraction
        )

    def __repr__(self) -> str:
        return (
            f"Allocation(epoch_s={self.epoch_s!r}, "
            f"served_bits={self.served_bits!r}, "
            f"time_fraction={self.time_fraction!r})"
        )

    def fraction(self, client_id: int, subchannel: int) -> float:
        """Fraction of the epoch ``client_id`` was scheduled on ``subchannel``."""
        return self.time_fraction.get((client_id, subchannel), 0.0)


#: Rate function signature: (client_id, subchannel) -> achievable bps when
#: scheduled full-time on that subchannel.
RateFn = Callable[[int, int], float]


#: One PF scheduling job: the AP's scheduler, its allowed subchannels (in
#: pick order), its per-client demands and its rate function.
PfJob = Tuple["ProportionalFairScheduler", Sequence[int], Dict[int, float], RateFn]


def _saturated(remaining: np.ndarray, floor_denom: np.ndarray) -> bool:
    """Whether :func:`pf_lockstep` may skip its exhaustion bookkeeping.

    True when every *positive* demand is infinite: a pick then never
    exhausts its client (``min(bits, inf) = bits`` and ``inf - bits =
    inf``).  Zero demands -- the sentinel, the padding and idle clients --
    are not part of the test: they keep an infinite denominator and metric
    0, so the sentinel at column 0 still wins over them.  The floors must
    be positive, so the sentinel's own metric ``0 / denom`` stays 0 once a
    pick refreshes its denominator to ``max(0 + 0, floor)``.  A scheduler
    rejects ``floor_bps <= 0``, but ``floor_bps * epoch_s / 100`` can
    still be zero for a zero, negative or underflowing epoch length.
    """
    return bool(
        np.isinf(remaining[remaining > 0.0]).all() and (floor_denom > 0.0).all()
    )


def pf_lockstep(
    rate: np.ndarray,
    remaining: np.ndarray,
    history: np.ndarray,
    floor_denom: np.ndarray,
    epoch_s: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """The PF kernel: one epoch of many independent APs in lockstep.

    ``rate`` is ``(n_pos, n_aps, n_cols)``: ``rate[p, b]`` holds AP ``b``'s
    client rates on its ``p``-th allowed subchannel.  Clients sit at
    columns ``1..`` and column 0 is the idle sentinel: zero rate and zero
    demand like the padding, so picking it serves ``min(0, 0) = 0`` bits,
    a no-op.  ``remaining`` (the demands, consumed in place) and
    ``history`` (``smoothing * average * epoch_s``) are ``(n_aps, n_cols)``
    and ``floor_denom`` is per AP.  Returns the bits ``served`` per
    ``(AP, column)`` and the airtime ``fraction`` per (position, AP,
    column).  Pass ``rate`` C-contiguous: every step divides one
    position's slice, and a strided slice makes the walk ~10% slower.

    Within one AP a pick depends on the bits served by the previous picks
    (mini-slot by mini-slot, subchannel by subchannel), but APs are
    independent.  So the kernel walks (mini-slot, position) once, and each
    step makes the next pick of every AP at once.  The result is
    bit-identical to scheduling the APs one by one:

    * the pick is the first client with the largest ``rate / denom`` if
      that is ``> 0`` -- ``argmax`` returns the first maximum, and
      exhausted or padding clients carry an infinite denominator (metric
      ``0.0``), as does the idle sentinel that wins whenever no client's
      metric is positive;
    * ``denom = max(served + history, floor)`` is kept per client and
      refreshed only at the picked entry, with the same operations;
    * a pick that would serve ``bits <= 0`` changes nothing, and once no AP
      progressed during a mini-slot every later slot would be the same
      no-op, so the walk stops;
    * the fraction grows by repeated ``+= 1/MINISLOTS_PER_EPOCH``.

    Each step is a fixed handful of NumPy calls on per-position views and
    preallocated ``out=`` buffers.  When the call's demand is saturated
    (:func:`_saturated`: every positive demand infinite, as for plain
    LTE's full-buffer clients) a step also skips the exhaustion
    bookkeeping -- clipping the bits to the demand left, consuming it and
    marking exhausted clients -- which leaves every value unchanged.
    """
    n_pos, n_aps, n_cols = rate.shape
    n_entries = n_aps * n_cols
    served = np.zeros((n_aps, n_cols))
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
    row_base = np.arange(n_aps) * n_cols
    # One slot's picks (flat entries) and the bits they served, then the
    # count of serving picks per (position, AP, column) entry.
    picks = np.empty((n_pos, n_aps), dtype=np.intp)
    moved = np.empty((n_pos, n_aps))
    pos_base = (np.arange(n_pos) * n_entries)[:, None]
    counts = np.zeros(n_pos * n_entries, dtype=np.intp)
    # Per-step scratch, and each position's views, walked every mini-slot.
    metric = np.empty((n_aps, n_cols))
    got = np.empty(n_aps)
    history_at = np.empty(n_aps)
    steps = list(zip(rate, slot_bits, picks, moved))
    saturated = _saturated(remaining, floor_denom)
    for _ in range(MINISLOTS_PER_EPOCH):
        for rate_p, bits_p, picked, bits in steps:
            np.divide(rate_p, denom, out=metric)
            metric.argmax(axis=1, out=picked)
            picked += row_base
            bits_p.take(picked, out=bits)
            if not saturated:
                left = remaining_flat.take(picked)
                np.minimum(bits, left, out=bits)
                left -= bits
                remaining_flat[picked] = left
            served_flat.take(picked, out=got)
            got += bits
            served_flat[picked] = got
            got += history_flat.take(picked, out=history_at)
            np.maximum(got, floor_denom, out=got)
            if not saturated:
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
    return served, _REPEATED_FRACTION[counts].reshape(n_pos, n_aps, n_cols)


class ProportionalFairScheduler:
    """Classic proportional fairness: maximise ``rate / smoothed average``.

    The exponential average persists across epochs, so long-lived rate
    disparities even out over time exactly as in a real eNodeB.
    """

    def __init__(self, smoothing: float = 0.05, floor_bps: float = 1e3) -> None:
        if not 0.0 < smoothing <= 1.0:
            raise ValueError(f"smoothing must be in (0,1], got {smoothing!r}")
        # A zero floor leaves an unserved zero-rate client a 0 / 0 metric,
        # a NaN that ``argmax`` picks every mini-slot: nobody is served.
        if not floor_bps > 0.0:
            raise ValueError(f"floor_bps must be > 0, got {floor_bps!r}")
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
        """Schedule one AP for one epoch: a batch of one.

        ``rate_fn(client, subchannel)`` is the full-time rate and
        ``demands_bits`` the per-client backlog (``inf`` when saturated).
        The epoch engine calls :meth:`allocate_dense`; perfbench's
        ``sched.*`` layer still wraps this method.
        """
        return self.allocate_batch(
            [(self, allowed_subchannels, demands_bits, rate_fn)], epoch_s
        )[0]

    @staticmethod
    def allocate_dense(
        schedulers: Sequence["ProportionalFairScheduler"],
        client_ids: Sequence[Sequence[int]],
        subchannels: Sequence[Sequence[int]],
        rate: np.ndarray,
        remaining: np.ndarray,
        epoch_s: float = 1.0,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Schedule jobs already packed into :func:`pf_lockstep`'s arrays.

        Job ``b`` is ``schedulers[b]`` serving ``client_ids[b]`` (columns
        ``1..``) on ``subchannels[b]`` (positions ``0..``).  The jobs'
        smoothed averages become the kernel's history, and afterwards each
        average takes the per-client rule ``(1 - smoothing) * average +
        smoothing * max(bits / epoch_s, floor)`` from the dense ``served``
        array, elementwise with the same IEEE operations.  Returns the
        kernel's ``(served, fraction)``.
        """
        tel = _obs_runtime.active()
        span = (
            tel.span(
                "scheduler.allocate",
                cat="scheduler",
                args={
                    "aps": len(schedulers),
                    "clients": sum(len(cids) for cids in client_ids),
                    "subchannels": sum(len(subs) for subs in subchannels),
                },
            )
            if tel is not None
            else None
        )
        if span is not None:
            span.__enter__()
        average = np.zeros(remaining.shape)
        for b, (scheduler, cids) in enumerate(zip(schedulers, client_ids)):
            averages, floor_bps = scheduler._average_bps, scheduler.floor_bps
            average[b, 1 : 1 + len(cids)] = [averages.get(c, floor_bps) for c in cids]
        smoothing = np.array([s.smoothing for s in schedulers])[:, None]
        floor_bps = np.array([s.floor_bps for s in schedulers])
        # The denominator mixes the historical average with bits already
        # served *this epoch*, so fairness acts within the epoch too
        # (otherwise one client would win every mini-slot).
        served, fraction = pf_lockstep(
            rate,
            remaining,
            smoothing * average * epoch_s,
            floor_bps * epoch_s / 100.0,
            epoch_s,
        )
        average = (1.0 - smoothing) * average + smoothing * np.maximum(
            served / epoch_s, floor_bps[:, None]
        )
        for scheduler, cids, row in zip(
            schedulers, client_ids, average[:, 1:].tolist()
        ):
            scheduler._average_bps.update(zip(cids, row))
        if span is not None:
            span.__exit__(None, None, None)
            tel.inc("scheduler.allocations", len(schedulers))
            for cids, row in zip(client_ids, served[:, 1:].tolist()):
                got = row[: len(cids)]
                tel.inc("scheduler.served_bits", sum(got))
                tel.inc("scheduler.clients_served", sum(1 for b in got if b > 0.0))
        return served, fraction

    @staticmethod
    def allocate_batch(jobs: Sequence[PfJob], epoch_s: float = 1.0) -> List[Allocation]:
        """Schedule one epoch for many independent APs in lockstep.

        Each job is ``(scheduler, allowed_subchannels, demands_bits,
        rate_fn)`` with its own scheduler; the jobs are packed into
        :func:`pf_lockstep`'s padded arrays (clients in demand-dict order,
        subchannels in list order), scheduled by :meth:`allocate_dense`,
        and returned as one :class:`Allocation` per job.
        ``tests/test_lte_scheduler.py`` pins this against the per-AP loop.
        """
        if not jobs:
            return []
        client_ids = [list(job[2]) for job in jobs]
        sub_lists = [list(job[1]) for job in jobs]
        n_cols = 1 + max(len(cids) for cids in client_ids)
        n_pos = max(len(subs) for subs in sub_lists)
        rate = np.zeros((n_pos, len(jobs), n_cols))
        remaining = np.zeros((len(jobs), n_cols))
        for b, (_, _, demands, rate_fn) in enumerate(jobs):
            cids, subs = client_ids[b], sub_lists[b]
            remaining[b, 1 : 1 + len(cids)] = [demands[c] for c in cids]
            if subs and cids:
                rate[: len(subs), b, 1 : 1 + len(cids)] = [
                    [rate_fn(c, s) for c in cids] for s in subs
                ]
        served, fraction = ProportionalFairScheduler.allocate_dense(
            [job[0] for job in jobs], client_ids, sub_lists, rate, remaining, epoch_s
        )
        return [
            Allocation.from_dense(
                epoch_s, dict(zip(cids, got)), fraction, b, cids, subs
            )
            for b, (cids, subs, got) in enumerate(
                zip(client_ids, sub_lists, served[:, 1:].tolist())
            )
        ]
