"""Property-based tests (hypothesis) on core invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interference.hopping import ClientSense, HopperConfig, SubchannelHopper
from repro.core.interference.share import compute_share
from repro.phy.harq import block_error_rate, delivery_probability, expected_attempts
from repro.phy.mcs import cqi_from_sinr, efficiency_from_cqi
from repro.phy.resource_grid import RB_COUNT_BY_BANDWIDTH, ResourceGrid
from repro.traffic.flows import Flow, FlowTracker
from repro.utils.dbmath import (
    db_to_linear,
    dbm_to_watt,
    linear_to_db,
)
from repro.utils.stats import Cdf, jain_fairness, percentile


class TestDbMathProperties:
    @given(st.floats(min_value=-200.0, max_value=200.0))
    def test_db_roundtrip(self, db):
        assert linear_to_db(db_to_linear(db)) == pytest.approx(db, abs=1e-9)

    @given(st.floats(min_value=-150.0, max_value=60.0))
    def test_dbm_roundtrip(self, dbm):
        assert linear_to_db(dbm_to_watt(dbm)) + 30.0 == pytest.approx(dbm, abs=1e-9)


class TestStatsProperties:
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=100,
        ),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_percentile_within_range(self, values, q):
        result = percentile(values, q)
        span = max(abs(min(values)), abs(max(values)), 1.0)
        tolerance = 1e-12 * span  # Interpolation rounding slack.
        assert min(values) - tolerance <= result <= max(values) + tolerance

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    def test_jain_fairness_bounds(self, values):
        fairness = jain_fairness(values)
        assert 1.0 / len(values) - 1e-9 <= fairness <= 1.0 + 1e-9

    @given(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=2,
            max_size=100,
        )
    )
    def test_cdf_monotone(self, values):
        cdf = Cdf(values)
        lo, hi = min(values), max(values)
        previous = 0.0
        for i in range(11):
            x = lo + (hi - lo) * i / 10.0
            level = cdf.evaluate(x)
            assert level >= previous - 1e-12
            previous = level
        assert cdf.evaluate(hi) == 1.0


class TestMcsProperties:
    @given(st.floats(min_value=-30.0, max_value=40.0))
    def test_cqi_in_range(self, sinr):
        assert 0 <= cqi_from_sinr(sinr) <= 15

    @given(
        st.floats(min_value=-30.0, max_value=40.0),
        st.floats(min_value=0.0, max_value=10.0),
    )
    def test_cqi_monotone(self, sinr, delta):
        assert cqi_from_sinr(sinr + delta) >= cqi_from_sinr(sinr)

    @given(st.integers(min_value=0, max_value=15))
    def test_efficiency_nonnegative(self, cqi):
        assert efficiency_from_cqi(cqi) >= 0.0


class TestHarqProperties:
    @given(
        st.floats(min_value=-20.0, max_value=30.0),
        st.integers(min_value=1, max_value=15),
    )
    def test_bler_is_probability(self, sinr, cqi):
        assert 0.0 <= block_error_rate(sinr, cqi) <= 1.0

    @given(
        st.floats(min_value=-20.0, max_value=30.0),
        st.integers(min_value=1, max_value=15),
    )
    def test_delivery_beats_single_shot(self, sinr, cqi):
        # HARQ can only help: P(delivered) >= P(first attempt succeeds).
        assert (
            delivery_probability(sinr, cqi)
            >= (1.0 - block_error_rate(sinr, cqi)) - 1e-12
        )

    @given(
        st.floats(min_value=-20.0, max_value=30.0),
        st.integers(min_value=1, max_value=15),
    )
    def test_expected_attempts_bounds(self, sinr, cqi):
        assert 1.0 - 1e-12 <= expected_attempts(sinr, cqi) <= 4.0 + 1e-12


class TestResourceGridProperties:
    @given(st.sampled_from(sorted(RB_COUNT_BY_BANDWIDTH)))
    def test_subchannels_partition_rbs(self, bandwidth):
        grid = ResourceGrid(bandwidth)
        total = sum(grid.subchannel_rbs(k) for k in grid.all_subchannels())
        assert total == grid.n_rbs

    @given(
        st.sampled_from(sorted(RB_COUNT_BY_BANDWIDTH)),
        st.floats(min_value=0.0, max_value=5.55),
    )
    def test_rates_nonnegative_and_bounded(self, bandwidth, efficiency):
        grid = ResourceGrid(bandwidth)
        rate = grid.downlink_rate_bps(efficiency, grid.n_rbs)
        assert rate >= 0.0
        # 5.55 bit/RE over the whole grid is the ceiling.
        assert rate <= grid.peak_downlink_rate_bps() + 1e-6


class TestShareProperties:
    @given(
        st.integers(min_value=1, max_value=100),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=500),
    )
    def test_share_bounds(self, total, own, contenders):
        share = compute_share(total, own, contenders)
        assert 0 <= share <= total
        if own > 0:
            assert share >= 1

    @given(
        st.integers(min_value=1, max_value=13),
        st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=6),
    )
    def test_shared_collision_domain_feasible(self, total_subchannels, client_counts):
        # When every AP hears every client, the computed shares must fit in
        # the carrier with at most one extra subchannel per AP (the
        # at-least-one rule for tiny shares).
        everyone = sum(client_counts)
        shares = [
            compute_share(total_subchannels, n, everyone) for n in client_counts
        ]
        slack = sum(1 for s, n in zip(shares, client_counts) if s == 1)
        assert sum(shares) <= total_subchannels + slack


class TestHopperProperties:
    @given(
        st.integers(min_value=0, max_value=13),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30)
    def test_holdings_track_share(self, share, seed):
        hopper = SubchannelHopper(
            HopperConfig(n_subchannels=13), np.random.default_rng(seed)
        )
        hopper.step(share, {})
        assert len(hopper.holdings) == share
        # A second step with an empty sense dict keeps the size.
        hopper.step(share, {})
        assert len(hopper.holdings) == share

    @given(
        st.integers(min_value=1, max_value=13),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30)
    def test_holdings_are_valid_subchannels(self, share, seed):
        hopper = SubchannelHopper(
            HopperConfig(n_subchannels=13), np.random.default_rng(seed)
        )
        holdings = hopper.step(share, {})
        assert holdings <= set(range(13))
        assert len(holdings) == len(set(holdings))


class TestShareFormulaProperties:
    """The Section 5.2 share formula, checked against the paper's algebra."""

    @given(
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=400),
    )
    def test_matches_paper_formula(self, total, own, est):
        # S_i = floor(N_i * S / NP_i), NP_i clamped up to N_i (an AP always
        # hears its own clients), result clamped into [1, S].
        contenders = max(est, own)
        expected = max(1, min(math.floor(own * total / contenders), total))
        assert compute_share(total, own, est) == expected

    @given(
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=400),
    )
    def test_monotone_in_own_clients(self, total, own, est):
        assert compute_share(total, own + 1, est) >= compute_share(total, own, est)

    @given(
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=400),
    )
    def test_antitone_in_contenders(self, total, own, est):
        # Hearing more contenders can only shrink the share: imperfect
        # sensing under-estimates, never over-grabs (Section 5.4).
        assert compute_share(total, own, est + 1) <= compute_share(total, own, est)

    @given(
        st.integers(min_value=2, max_value=13),
        st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=5),
    )
    def test_demand_slack_keeps_shares_feasible(self, total, client_counts):
        # Under the demand assumption (neighbourhood demand leaves slack:
        # every AP entitled to >= 1 full subchannel), the computed shares
        # pack into the carrier with no at-least-one inflation at all.
        everyone = sum(client_counts)
        shares = [compute_share(total, n, everyone) for n in client_counts]
        if total >= everyone:  # demand assumption holds
            assert sum(shares) <= total


def _epoch_senses(n_subchannels=13):
    """Strategy: one epoch's ``{client_id: ClientSense}`` sensing input."""
    flags = st.lists(
        st.booleans(), min_size=n_subchannels, max_size=n_subchannels
    )
    cqi = st.lists(
        st.integers(min_value=0, max_value=15),
        min_size=n_subchannels,
        max_size=n_subchannels,
    )
    fracs = st.dictionaries(
        st.integers(min_value=0, max_value=n_subchannels - 1),
        st.floats(min_value=0.01, max_value=1.0),
        max_size=4,
    )
    sense = st.builds(
        lambda c, f, s: ClientSense(
            subband_cqi=c,
            max_subband_cqi=c,
            interference_detected=f,
            scheduled_fraction=s,
        ),
        cqi,
        flags,
        fracs,
    )
    return st.dictionaries(
        st.integers(min_value=0, max_value=9), sense, max_size=3
    )


class _RecordingHopper(SubchannelHopper):
    """Records every exponential bucket draw for the ladder invariant."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.draws = []

    def _draw_bucket(self):
        value = super()._draw_bucket()
        self.draws.append(value)
        return value


class TestBucketProperties:
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=1, max_value=13),
        st.lists(_epoch_senses(), min_size=1, max_size=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_buckets_stay_within_the_exponential_ladder(
        self, seed, share, epochs
    ):
        # Buckets are born as exponential draws and only ever decremented;
        # a drained bucket is hopped away the same epoch.  So after any
        # step sequence every held bucket is non-negative and no larger
        # than the biggest draw so far.
        hopper = _RecordingHopper(
            HopperConfig(n_subchannels=13), np.random.default_rng(seed)
        )
        for senses in epochs:
            hopper.step(share, senses)
            assert hopper.draws, "holding subchannels implies draws happened"
            ceiling = max(hopper.draws) + 1e-9
            for bucket in hopper.buckets.values():
                assert 0.0 <= bucket <= ceiling

    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=1, max_value=13),
        st.lists(_epoch_senses(), min_size=1, max_size=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_share_tracked_through_arbitrary_sensing(self, seed, share, epochs):
        # Whatever the interference reports, the hopper ends every epoch
        # holding exactly its target share (candidates always exist while
        # share <= carrier size).
        hopper = SubchannelHopper(
            HopperConfig(n_subchannels=13), np.random.default_rng(seed)
        )
        for senses in epochs:
            holdings = hopper.step(share, senses)
            assert len(holdings) == share
            assert holdings <= set(range(13))


class TestReusePackingProperties:
    @given(
        st.integers(min_value=1, max_value=13),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_packing_never_leaves_a_usable_lower_subchannel(self, share, seed):
        # With every subchannel persistently interference-free, re-use
        # packing must walk the holdings down until they occupy exactly
        # the lowest-index subchannels -- holding a higher subchannel
        # while a persistently-free lower one exists is the bug the rule
        # forbids.
        config = HopperConfig(n_subchannels=13, reuse_persistence_epochs=2)
        hopper = SubchannelHopper(config, np.random.default_rng(seed))
        clean = ClientSense(
            subband_cqi=[10] * 13,
            max_subband_cqi=[10] * 13,
            interference_detected=[False] * 13,
            scheduled_fraction={},
        )
        hopper.step(share, {})  # initial random pick
        for _ in range(config.reuse_persistence_epochs + 13 + 2):
            hopper.step(share, {0: clean})
        assert hopper.holdings == set(range(share))

    @given(
        st.integers(min_value=2, max_value=13),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_packing_disabled_means_no_moves(self, share, seed):
        config = HopperConfig(n_subchannels=13, reuse_enabled=False)
        hopper = SubchannelHopper(config, np.random.default_rng(seed))
        clean = ClientSense(
            subband_cqi=[10] * 13,
            max_subband_cqi=[10] * 13,
            interference_detected=[False] * 13,
            scheduled_fraction={},
        )
        initial = set(hopper.step(share, {}))
        for _ in range(8):
            hopper.step(share, {0: clean})
        assert hopper.reuse_moves == 0
        assert hopper.holdings == initial  # nothing drains, nothing moves


class TestFlowTrackerProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1.0, max_value=1e5),
                st.floats(min_value=0.0, max_value=10.0),
            ),
            min_size=1,
            max_size=20,
        ),
        st.lists(st.floats(min_value=0.0, max_value=1e5), min_size=1, max_size=30),
    )
    def test_conservation(self, flows, services):
        """Bits served never exceed bits offered; queues never go negative."""
        tracker = FlowTracker()
        offered = 0.0
        for size, arrival in flows:
            tracker.arrive(Flow(client_id=1, arrival_s=arrival, size_bits=size))
            offered += size
        t = 100.0
        for amount in services:
            tracker.serve(1, amount, t, t + 1.0)
            t += 1.0
            assert tracker.queued_bits(1) >= -1e-9
        delivered = offered - tracker.queued_bits(1)
        assert delivered <= offered + 1e-6
        for flow in tracker.completed:
            assert flow.completed_s >= flow.arrival_s or flow.completed_s >= 100.0
