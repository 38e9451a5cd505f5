"""Unit tests for the downlink schedulers."""

import math
import pickle
import random
from typing import Dict, Sequence
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.large_scale import TECH_CELLFI, SaturatedLteRun
from repro.lte import scheduler as scheduler_module
from repro.lte.scheduler import (
    MINISLOTS_PER_EPOCH,
    Allocation,
    ProportionalFairScheduler,
    RateFn,
)
from repro.obs import Telemetry, activated
from repro.obs import runtime as _obs_runtime


def _flat_rate(rate):
    return lambda client, sub: rate


class TestAllocation:
    def test_client_throughput(self):
        alloc = Allocation(epoch_s=2.0, served_bits={1: 4e6})
        assert alloc.client_throughput_bps(1) == 2e6
        assert alloc.client_throughput_bps(99) == 0.0

    def test_fraction_default_zero(self):
        assert Allocation(epoch_s=1.0).fraction(1, 2) == 0.0

    def test_clients_on(self):
        alloc = Allocation(epoch_s=1.0, time_fraction={(2, 0): 0.5, (1, 0): 0.5, (1, 1): 1.0})
        assert alloc.clients_on(0) == [1, 2]
        assert alloc.clients_on(1) == [1]


class TestProportionalFair:
    def test_equal_conditions_equal_split(self):
        scheduler = ProportionalFairScheduler()
        alloc = scheduler.allocate(
            [0, 1, 2], {1: float("inf"), 2: float("inf")}, _flat_rate(1e6)
        )
        assert alloc.served_bits[1] == pytest.approx(alloc.served_bits[2], rel=0.1)

    def test_airtime_fairness_with_unequal_rates(self):
        # PF equalises airtime, so throughput is proportional to rate.
        scheduler = ProportionalFairScheduler()

        def rate(client, sub):
            return 2e6 if client == 1 else 5e5

        alloc = scheduler.allocate([0], {1: float("inf"), 2: float("inf")}, rate)
        ratio = alloc.served_bits[1] / alloc.served_bits[2]
        assert ratio == pytest.approx(4.0, rel=0.2)

    def test_prefers_subchannel_quality(self):
        # A client only schedulable on one subchannel still gets served.
        scheduler = ProportionalFairScheduler()

        def rate(client, sub):
            if client == 1:
                return 1e6 if sub == 0 else 0.0
            return 1e6

        alloc = scheduler.allocate([0, 1], {1: float("inf"), 2: float("inf")}, rate)
        assert alloc.served_bits[1] > 0.0
        assert alloc.fraction(1, 1) == 0.0

    def test_average_persists_across_epochs(self):
        scheduler = ProportionalFairScheduler(smoothing=0.5)
        # Epoch 1: client 1 alone, builds up a high average.
        scheduler.allocate([0], {1: float("inf")}, _flat_rate(1e6))
        # Epoch 2: newcomer 2 should get more than half the airtime.
        alloc = scheduler.allocate(
            [0], {1: float("inf"), 2: float("inf")}, _flat_rate(1e6)
        )
        assert alloc.served_bits[2] >= alloc.served_bits[1]

    def test_demand_respected(self):
        scheduler = ProportionalFairScheduler()
        alloc = scheduler.allocate([0], {1: 500.0, 2: float("inf")}, _flat_rate(1e6))
        assert alloc.served_bits[1] == pytest.approx(500.0)

    def test_bad_smoothing_rejected(self):
        with pytest.raises(ValueError):
            ProportionalFairScheduler(smoothing=0.0)

    @pytest.mark.parametrize("floor_bps", [0.0, -0.0, -1e3, float("nan")])
    def test_non_positive_floor_rejected(self, floor_bps):
        # With a zero floor, a zero-rate client with no history got a NaN
        # metric that argmax picked every mini-slot, so this probe served
        # nobody (the per-AP oracle divided by zero instead).
        with pytest.raises(ValueError, match="floor_bps"):
            ProportionalFairScheduler(floor_bps=floor_bps)

        def rate(client, sub):
            return 0.0 if client == 1 else 1e6

        alloc = ProportionalFairScheduler().allocate(
            [0], {1: float("inf"), 2: float("inf")}, rate
        )
        assert alloc.served_bits == {1: 0.0, 2: 1e6}

    def test_empty_subchannels_yield_nothing(self):
        alloc = ProportionalFairScheduler().allocate([], {1: float("inf")}, _flat_rate(1e6))
        assert alloc.served_bits[1] == 0.0


class _PerApOracle(ProportionalFairScheduler):
    """The per-AP PF loop the batched kernel replaced, kept as its oracle.

    ``allocate`` schedules one AP at a time with the inlined mini-slot
    engine (strict ``metric > best`` pick from 0.0, per-AP early exits),
    exactly as the network ran it before APs were batched.
    """

    def allocate(self, allowed_subchannels, demands_bits, rate_fn, epoch_s=1.0):
        for client in demands_bits:
            self._average_bps.setdefault(client, self.floor_bps)
        allocation = self._fast_allocate(
            allowed_subchannels, demands_bits, rate_fn, epoch_s
        )
        # Update the smoothed averages from realised epoch throughput.
        for client in demands_bits:
            realised = allocation.served_bits.get(client, 0.0) / epoch_s
            self._average_bps[client] = (
                (1.0 - self.smoothing) * self._average_bps[client]
                + self.smoothing * max(realised, self.floor_bps)
            )
        return allocation

    def _fast_allocate(
        self,
        allowed_subchannels: Sequence[int],
        demands_bits: Dict[int, float],
        rate_fn: RateFn,
        epoch_s: float,
    ) -> Allocation:
        """Verbatim per-AP loop: one pick per (mini-slot, subchannel)."""
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
        slot_fraction = 1.0 / MINISLOTS_PER_EPOCH
        floor_denom = self.floor_bps * epoch_s / 100.0
        # Denominator mixes historical average with bits already served
        # *this epoch*, so fairness acts within the epoch too (otherwise
        # one client would win every mini-slot).
        averages = self._average_bps
        history = {
            client: self.smoothing * averages[client] * epoch_s
            for client in remaining
        }
        # Backends that precompute per-client rate rows expose them as an
        # attribute on the closure; prefetching from the table skips one
        # function call per (subchannel, client) pair.  The table holds
        # the exact floats ``rate_fn`` would return, so the allocation is
        # unchanged.
        rate_rows = getattr(rate_fn, "rate_rows", None)
        per_sub = []
        if rate_rows is None:
            for sub in allowed_subchannels:
                pairs = []
                for client in remaining:
                    rate = rate_fn(client, sub)
                    if rate > 0.0:
                        pairs.append((client, rate))
                per_sub.append((sub, pairs))
        else:
            client_rows = [(c, rate_rows[c]) for c in remaining]
            for sub in allowed_subchannels:
                pairs = []
                for client, row in client_rows:
                    rate = row[sub]
                    if rate > 0.0:
                        pairs.append((client, rate))
                per_sub.append((sub, pairs))
        time_fraction = allocation.time_fraction
        # A mini-slot that allocates nothing leaves (served, remaining)
        # untouched, so every later slot would be the same no-op: the
        # remaining slots are skipped wholesale.  This triggers once all
        # demand is exhausted (or only zero-rate backlog is left), so
        # finite-demand epochs stop paying for empty slots while the
        # produced allocation stays identical.
        n_live = sum(1 for left in remaining.values() if left > 0.0)
        progressed = True
        for _ in range(MINISLOTS_PER_EPOCH):
            if n_live == 0 or not progressed:
                break
            progressed = False
            for sub, pairs in per_sub:
                best_client = -1
                best_rate = 0.0
                best_metric = 0.0
                for client, rate in pairs:
                    if remaining[client] <= 0.0:
                        continue
                    denom = served[client] + history[client]
                    if denom < floor_denom:
                        denom = floor_denom
                    metric = rate / denom
                    if metric > best_metric:
                        best_metric = metric
                        best_client = client
                        best_rate = rate
                if best_client < 0:
                    continue
                left = remaining[best_client]
                bits = best_rate * slot_s
                if bits > left:
                    bits = left
                if bits <= 0.0:
                    continue
                left -= bits
                remaining[best_client] = left
                if left <= 0.0:
                    n_live -= 1
                progressed = True
                served[best_client] += bits
                key = (best_client, sub)
                got = time_fraction.get(key)
                time_fraction[key] = (
                    slot_fraction if got is None else got + slot_fraction
                )
                if n_live == 0:
                    break
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


N_SUBS = 13

_rates = st.one_of(
    st.just(0.0),
    st.floats(min_value=5e-324, max_value=2.2e-308),  # subnormal
    st.floats(min_value=0.0, max_value=2e7),
)
_demands = st.one_of(
    st.just(0.0),
    st.just(math.inf),
    st.floats(min_value=0.0, max_value=5e6),
)


@st.composite
def _ap_job(draw):
    """One AP's epoch input: ragged allowed list, clients in any id order."""
    allowed = draw(st.lists(st.integers(0, N_SUBS - 1), unique=True, max_size=N_SUBS))
    clients = draw(st.lists(st.integers(0, 500), unique=True, max_size=9))
    demands = {c: draw(_demands) for c in clients}
    rows = {c: draw(st.lists(_rates, min_size=N_SUBS, max_size=N_SUBS)) for c in clients}
    priors = {
        c: draw(st.floats(min_value=1e-3, max_value=1e8))
        for c in clients
        if draw(st.booleans())
    }
    smoothing = draw(st.floats(min_value=1e-3, max_value=1.0))
    floor_bps = draw(st.floats(min_value=1e-2, max_value=1e6))
    table = draw(st.booleans())
    return allowed, demands, rows, priors, smoothing, floor_bps, table


def _rate_fn(rows, table):
    def rate_fn(client, sub):
        return rows[client][sub]

    if table:
        # The network's incremental epoch exposes its rate table.
        rate_fn.rate_rows = rows
    return rate_fn


def _hex_map(values):
    return {key: float.hex(v) for key, v in values.items()}


def _example_ap(demands):
    """A fixed AP job: client 1 at 4 Mbit/s on every subchannel, the
    others at ``1e6 * (1 + (client + sub) % 3)``.

    Client 1 is the fastest everywhere, so a small finite demand on it is
    exhausted by its first pick while its metric still leads.
    """
    rows = {
        c: [(4e6 if c == 1 else 1e6 * (1 + (c + sub) % 3)) for sub in range(N_SUBS)]
        for c in demands
    }
    return [0, 3, 5, 12], demands, rows, {}, 0.05, 1e3, False


# Both kernel branches on every run: all positive demands infinite (the
# saturated branch; zero demands and padding must not defeat it), all
# finite, and mixed, where client 1 is exhausted early yet would keep
# the best metric without its exhaustion mark.
_ALL_INF = [_example_ap({1: math.inf, 2: math.inf, 3: 0.0}), _example_ap({7: math.inf})]
_ALL_FINITE = [_example_ap({1: 1e4, 2: 5e6, 3: 3e5}), _example_ap({7: 2e4, 8: 0.0})]
_MIXED = [_example_ap({1: 1e4, 2: math.inf, 3: 0.0}), _example_ap({7: math.inf, 8: 4e5})]


class TestBatchedPfMatchesPerApOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        aps=st.lists(_ap_job(), min_size=1, max_size=8),
        epoch_s=st.sampled_from([1.0, 0.5, 2.0]),
    )
    @example(aps=_ALL_INF, epoch_s=1.0)
    @example(aps=_ALL_FINITE, epoch_s=1.0)
    @example(aps=_MIXED, epoch_s=1.0)
    def test_batch_equals_per_ap_loop(self, aps, epoch_s):
        # The kernel skips its exhaustion bookkeeping exactly when every
        # positive demand of the call is infinite.
        saturated = all(
            bits == math.inf
            for _, demands, *_ in aps
            for bits in demands.values()
            if bits > 0.0
        )
        decisions = []
        decide = scheduler_module._saturated

        def spy(remaining, floor_denom):
            decisions.append(decide(remaining, floor_denom))
            return decisions[-1]

        with mock.patch.object(scheduler_module, "_saturated", spy):
            self._check_against_oracle(aps, epoch_s)
        assert decisions == [saturated, saturated]

    def _check_against_oracle(self, aps, epoch_s):
        batched, oracles, inputs = [], [], []
        for allowed, demands, rows, priors, smoothing, floor_bps, table in aps:
            pair = []
            for cls in (ProportionalFairScheduler, _PerApOracle):
                scheduler = cls(smoothing=smoothing, floor_bps=floor_bps)
                scheduler._average_bps.update(priors)
                pair.append(scheduler)
            batched.append(pair[0])
            oracles.append(pair[1])
            inputs.append((allowed, demands, _rate_fn(rows, table)))
        # Two epochs, so the second one starts from post-epoch averages.
        for _ in range(2):
            got = ProportionalFairScheduler.allocate_batch(
                [
                    (scheduler, allowed, dict(demands), rate_fn)
                    for scheduler, (allowed, demands, rate_fn) in zip(batched, inputs)
                ],
                epoch_s,
            )
            assert len(got) == len(aps)
            for alloc, oracle, scheduler, (allowed, demands, rate_fn) in zip(
                got, oracles, batched, inputs
            ):
                want = oracle.allocate(allowed, dict(demands), rate_fn, epoch_s)
                assert list(alloc.served_bits) == list(want.served_bits)
                assert _hex_map(alloc.served_bits) == _hex_map(want.served_bits)
                assert alloc.time_fraction == want.time_fraction
                assert _hex_map(scheduler._average_bps) == _hex_map(
                    oracle._average_bps
                )

    def test_empty_batch(self):
        assert ProportionalFairScheduler.allocate_batch([]) == []


class TestLazyTimeFraction:
    """``time_fraction`` of a kernel allocation is built on first read."""

    def _pair(self):
        rng = random.Random(5)
        jobs, oracles = [], []
        for ap in range(4):
            clients = list(range(10 * ap, 10 * ap + 2 + ap))
            allowed = sorted(rng.sample(range(N_SUBS), 3 + 2 * ap))
            demands = {c: rng.choice([0.0, 2e5, 3e6, math.inf]) for c in clients}
            rows = {c: [rng.uniform(0.0, 2e6) for _ in range(N_SUBS)] for c in clients}
            rate_fn = _rate_fn(rows, False)
            jobs.append((ProportionalFairScheduler(), allowed, demands, rate_fn))
            oracles.append(
                _PerApOracle().allocate(allowed, dict(demands), rate_fn)
            )
        return ProportionalFairScheduler.allocate_batch(jobs), oracles

    def test_lazy_fractions_equal_per_ap_oracle(self):
        got, want = self._pair()
        for alloc, oracle in zip(got, want):
            assert alloc._time_fraction is None  # nothing built yet
            assert alloc.time_fraction == oracle.time_fraction
            assert alloc == oracle
            for sub in range(N_SUBS):
                assert alloc.clients_on(sub) == oracle.clients_on(sub)

    def test_unread_allocation_survives_pickle(self):
        got, want = self._pair()
        for alloc, oracle in zip(got, want):
            restored = pickle.loads(pickle.dumps(alloc))
            assert restored.time_fraction == oracle.time_fraction
            assert restored.served_bits == oracle.served_bits
            assert restored == alloc


class TestBatchedTelemetry:
    def test_counters_match_epoch_allocations(self):
        """One span per batched call; counters keep per-AP totals."""
        tel = Telemetry(trace=True)
        run = SaturatedLteRun(TECH_CELLFI, 4, n_aps=20, clients_per_ap=3, epochs=3)
        calls = served = clients = 0.0
        try:
            with activated(tel):
                for epoch in range(3):
                    result = run.step_epoch()
                    for alloc in result.allocations.values():
                        if not alloc.served_bits:
                            continue  # AP had nothing to schedule
                        calls += 1
                        served += sum(alloc.served_bits.values())
                        clients += sum(1 for b in alloc.served_bits.values() if b > 0.0)
                    counters = tel.snapshot()["counters"]
                    assert counters["scheduler.allocations"] == calls
                    assert counters["scheduler.served_bits"] == served
                    assert counters["scheduler.clients_served"] == clients
                    spans = [
                        r for r in tel.tracer.records if r.name == "scheduler.allocate"
                    ]
                    assert len(spans) == epoch + 1
        finally:
            run.close()
        assert calls > 20  # most APs scheduled in every epoch
