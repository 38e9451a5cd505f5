"""Bit-exactness of the fast kernels against their scalar definitions.

Three kernels replace scalar loops on the mobile hot path, and each must
reproduce its definition bit for bit (compared by ``float.hex``):

* ``_u1_from_words``: the Box-Muller ``u1 = (v + 1) / (2**64 + 2)`` from
  uint64 hash words, a float candidate with a big-int fallback near
  rounding boundaries;
* the shadowing key builder inside ``CompositeChannel.loss_db_rows``,
  against the scalar ``loss_db`` / ``shadowing_db`` per link;
* the fused ``harq_goodput_scale``, against
  ``delivery_probability / expected_attempts``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.harq import (
    block_error_rate,
    delivery_probability,
    expected_attempts,
    harq_goodput_scale,
)
from repro.phy.mcs import CQI_OUT_OF_RANGE, LTE_CQI_TABLE
from repro.phy.propagation import (
    CompositeChannel,
    LogNormalShadowing,
    UrbanHataPathLoss,
    _u1_from_words,
)
from repro.sim.topology import AccessPointSite, ClientSite

U64_MAX = 2**64 - 1


def u1_reference(v):
    return (v + 1) / (2**64 + 2)


def assert_u1_exact(words):
    got = _u1_from_words(np.array(words, dtype=np.uint64)).tolist()
    for v, value in zip(words, got):
        assert value.hex() == u1_reference(v).hex(), f"word {v}"


def near_ties(bit_length, k, delta):
    """Words whose ``v + 1`` sits ``delta`` from a rounding midpoint.

    For ``n = v + 1`` of ``bit_length`` bits (54..64) the float64
    conversion drops ``s = bit_length - 53`` bits; the midpoints of the
    binade are ``2**(bit_length - 1) + k * 2**s + 2**(s - 1)``.
    """
    s = bit_length - 53
    k %= 1 << 52
    n = (1 << (bit_length - 1)) + k * (1 << s) + (1 << (s - 1)) + delta
    return min(max(n - 1, 0), U64_MAX)


class TestU1Kernel:
    def test_edges(self):
        assert_u1_exact([0, 1, 2, U64_MAX, U64_MAX - 1, 2**63, 2**63 - 1])

    def test_powers_of_two_at_every_bit_length(self):
        words = {
            min(max((1 << b) + d - 1, 0), U64_MAX)
            for b in range(65)
            for d in range(-3, 4)
        }
        assert_u1_exact(sorted(words))

    def test_near_ties_at_every_bit_length(self):
        words = {
            near_ties(b, k, d)
            for b in range(54, 65)
            for k in (0, 1, 2, 12345, (1 << 52) - 2, (1 << 52) - 1)
            for d in range(-4, 5)
        }
        assert_u1_exact(sorted(words))

    def test_the_last_binade_window_is_two_wide(self):
        # Just below 2**64 the exact quotient sits up to ~2 below n, so
        # n one above a midpoint may still round down.
        words = [
            near_ties(64, k, d) for k in range(0, 1 << 20, 4099) for d in (0, 1, 2)
        ]
        assert_u1_exact(words)

    @given(st.lists(st.integers(0, U64_MAX), min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_random_words(self, words):
        assert_u1_exact(words)

    @given(
        st.lists(
            st.tuples(
                st.integers(54, 64),
                st.integers(0, (1 << 52) - 1),
                st.integers(-3, 3),
            ),
            min_size=1,
            max_size=32,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_random_near_ties(self, triples):
        assert_u1_exact([near_ties(b, k, d) for b, k, d in triples])


# Coordinates chosen so links hit every branch of the canonical order:
# swapped and unswapped endpoints, equal x with the y tiebreak (either
# way), equal quantized tags, and -0.0 against 0.0 (equal as numbers,
# different as key text).
GRID = [-0.0, 0.0, 0.04, 0.05, 0.06, 1.0, 1.05, 250.0, 999.95, 1500.0]
coords = st.sampled_from(GRID) | st.floats(0.0, 2000.0)
points = st.tuples(coords, coords)


def assert_rows_match_scalar(channel, ap_points, client_points):
    aps = [AccessPointSite(j, x, y) for j, (x, y) in enumerate(ap_points)]
    clients = [
        ClientSite(i, x, y, ap_id=0) for i, (x, y) in enumerate(client_points)
    ]
    block = channel.loss_db_rows(aps, clients).tolist()
    for i, client in enumerate(clients):
        for j, ap in enumerate(aps):
            assert block[i][j].hex() == channel.loss_db(ap, client).hex()


def shadowed_channel(seed=3):
    return CompositeChannel(
        UrbanHataPathLoss(), LogNormalShadowing(sigma_db=7.0, seed=seed)
    )


class TestShadowingKeyBuilder:
    def test_swapped_unswapped_and_y_tiebreak(self):
        ap_points = [(100.0, 100.0), (100.0, 50.0), (100.0, 150.0), (5.0, 9.0)]
        client_points = [(100.0, 100.0), (50.0, 100.0), (150.0, 100.0)]
        assert_rows_match_scalar(shadowed_channel(), ap_points, client_points)

    def test_negative_zero_against_zero(self):
        ap_points = [(-0.0, 5.0), (0.0, 5.0), (-0.0, -0.0), (0.0, 0.0)]
        client_points = [(0.0, 3.0), (-0.0, 3.0), (0.0, -0.0), (-0.0, 7.0)]
        assert_rows_match_scalar(shadowed_channel(), ap_points, client_points)

    def test_reciprocal_across_signed_zeros(self):
        # Endpoints that compare equal as tuples but format apart must
        # still draw one value for both link directions, in all three paths.
        points = [(-0.0, 5.0), (0.0, 5.0), (-0.0, -0.0), (0.0, 0.0),
                  (0.0, -0.0), (-0.0, 0.0), (1.0, 5.0)]
        pairs = [(a, b) for a in points for b in points]
        ax, ay, bx, by = (np.array(c) for c in zip(*(a + b for a, b in pairs)))
        channel = shadowed_channel()
        shadowing = channel.shadowing
        forward = shadowing.shadowing_db_batch(ax, ay, bx, by).tolist()
        backward = shadowing.shadowing_db_batch(bx, by, ax, ay).tolist()
        for k, (a, b) in enumerate(pairs):
            want = shadowing.shadowing_db(*a, *b)
            assert shadowing.shadowing_db(*b, *a) == want, (a, b)
            assert forward[k] == want == backward[k], (a, b)
        aps = [AccessPointSite(j, x, y) for j, (x, y) in enumerate(points)]
        clients = [ClientSite(i, x, y, ap_id=0) for i, (x, y) in enumerate(points)]
        block = channel.loss_db_rows(aps, clients)
        assert np.array_equal(block, block.T)
        assert_rows_match_scalar(channel, points, points)

    @given(
        ap_points=st.lists(points, min_size=1, max_size=6),
        client_points=st.lists(points, min_size=1, max_size=6),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_scalar_loss(self, ap_points, client_points, seed):
        assert_rows_match_scalar(shadowed_channel(seed), ap_points, client_points)

    def test_one_memo_serves_two_ap_lists(self):
        # The per-AP key pieces are memoized on the AP list's identity:
        # alternating lists must each get their own pieces.
        channel = shadowed_channel()
        first = [(10.0, 20.0), (900.0, 5.0)]
        second = [(300.0, 300.0)]
        for ap_points in (first, second, first):
            assert_rows_match_scalar(channel, ap_points, [(400.0, 40.0)])


def fused_reference(sinr_db, cqi):
    return delivery_probability(sinr_db, cqi) / expected_attempts(sinr_db, cqi)


def assert_fused_exact(sinr_db, cqi):
    assert harq_goodput_scale(sinr_db, cqi).hex() == fused_reference(
        sinr_db, cqi
    ).hex(), (sinr_db, cqi)


class TestFusedHarq:
    @given(
        sinr_db=st.floats(-300.0, 300.0, allow_nan=False),
        cqi=st.integers(CQI_OUT_OF_RANGE, len(LTE_CQI_TABLE)),
    )
    @settings(max_examples=500, deadline=None)
    def test_matches_delivery_over_attempts(self, sinr_db, cqi):
        assert_fused_exact(sinr_db, cqi)

    @pytest.mark.parametrize("cqi", range(1, len(LTE_CQI_TABLE) + 1))
    def test_dense_sweep_through_the_waterfall(self, cqi):
        # Where retransmissions matter, so every running product carries
        # weight; a reassociated product here changes about 4% of the
        # results in the last bit.
        threshold = LTE_CQI_TABLE[cqi - 1].min_sinr_db
        for k in range(400):
            assert_fused_exact(threshold - 12.0 + 16.0 * k / 400, cqi)

    def test_out_of_range_cqi(self):
        for sinr_db in (-20.0, 0.0, 35.0):
            assert harq_goodput_scale(sinr_db, CQI_OUT_OF_RANGE) == 0.0
            assert_fused_exact(sinr_db, CQI_OUT_OF_RANGE)

    @pytest.mark.parametrize("cqi", [1, 7, 15])
    def test_waterfall_guards(self, cqi):
        # |x| > 40 short-circuits the logistic: probe both sides of each
        # guard, for the first transmission and for the combined ones.
        threshold = LTE_CQI_TABLE[cqi - 1].min_sinr_db
        offset = math.log(9.0) / 1.6
        for edge in (40.0, -40.0):
            centre = threshold - offset + edge / 1.6
            for step in (-1e-9, 0.0, 1e-9, -6.0, 6.0):
                assert_fused_exact(centre + step, cqi)
        # Just past the upper guard the curve is clamped to 0, just inside
        # it is not (below -40 the logistic already rounds to 1.0).
        above = threshold - offset + 40.5 / 1.6
        assert block_error_rate(above, cqi) == 0.0
        assert block_error_rate(above - 1.0 / 1.6, cqi) > 0.0
        assert block_error_rate(threshold - offset - 40.5 / 1.6, cqi) == 1.0

    def test_nan_and_overflow_agree(self):
        assert math.isnan(harq_goodput_scale(float("nan"), 7))
        assert math.isnan(fused_reference(float("nan"), 7))
        assert_fused_exact(float("inf"), 7)
        # A SINR so low that its linear power underflows to 0 has no dB
        # value; both forms reject it the same way.
        for fn in (harq_goodput_scale, fused_reference):
            with pytest.raises(ValueError):
                fn(-4000.0, 7)
