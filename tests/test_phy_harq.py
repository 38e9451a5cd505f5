"""Unit tests for the HARQ model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lte.network import ZERO_SIGNAL_SINR_DB
from repro.obs import Telemetry, activated
from repro.phy.harq import (
    MAX_TRANSMISSIONS,
    TARGET_BLER,
    block_error_rate,
    delivery_probability,
    expected_attempts,
    harq_goodput_scale,
    harq_goodput_scale_array,
)
from repro.phy.mcs import LTE_CQI_TABLE


class TestBlerCurve:
    def test_anchored_at_threshold(self):
        for entry in LTE_CQI_TABLE:
            assert block_error_rate(entry.min_sinr_db, entry.cqi) == pytest.approx(
                TARGET_BLER, abs=1e-6
            )

    def test_monotone_decreasing_in_sinr(self):
        for sinr in range(-10, 25):
            assert block_error_rate(float(sinr), 7) >= block_error_rate(
                float(sinr) + 1.0, 7
            )

    def test_deep_fade_is_certain_loss(self):
        assert block_error_rate(-40.0, 7) == pytest.approx(1.0, abs=1e-6)

    def test_strong_signal_is_error_free(self):
        assert block_error_rate(60.0, 7) == pytest.approx(0.0, abs=1e-6)

    def test_cqi0_always_fails(self):
        assert block_error_rate(30.0, 0) == 1.0

    def test_higher_cqi_needs_more_sinr(self):
        sinr = 10.0
        assert block_error_rate(sinr, 12) > block_error_rate(sinr, 5)


class TestClosedForms:
    def test_delivery_probability_at_threshold_is_high(self):
        # One retransmission with chase combining nearly always recovers
        # a block transmitted at the 10% BLER point.
        for entry in LTE_CQI_TABLE:
            assert delivery_probability(entry.min_sinr_db, entry.cqi) > 0.99

    def test_expected_attempts_bounds(self):
        for sinr in (-5.0, 0.0, 10.0, 30.0):
            attempts = expected_attempts(sinr, 7)
            assert 1.0 <= attempts <= MAX_TRANSMISSIONS

    def test_expected_attempts_one_at_high_sinr(self):
        assert expected_attempts(40.0, 7) == pytest.approx(1.0, abs=1e-4)

    def test_goodput_scale_range(self):
        for sinr in (-10.0, 0.0, 5.9, 20.0):
            assert 0.0 <= harq_goodput_scale(sinr, 7) <= 1.0

    def test_goodput_scale_is_one_at_high_sinr(self):
        assert harq_goodput_scale(40.0, 7) == pytest.approx(1.0, abs=1e-4)

    def test_goodput_scale_zero_for_cqi0(self):
        assert harq_goodput_scale(10.0, 0) == 0.0

#: The waterfall's offset and slope (``harq._BLER_OFFSET_DB``, per dB).
_OFFSET_DB = math.log(1.0 / TARGET_BLER - 1.0) / 1.6


def _anchors(cqi):
    """SINRs where one of the four attempts meets an edge of the curve.

    Attempt ``k`` combines ``k`` copies, so its SINR is ``10 log10 k`` dB
    above the first one's; the logistic's ``|x| <= 40`` guards and the
    CQI's switching threshold then sit at these first-attempt SINRs.
    """
    threshold = LTE_CQI_TABLE[max(cqi, 1) - 1].min_sinr_db
    points = [threshold]
    for k in range(1, MAX_TRANSMISSIONS + 1):
        gain = 10.0 * math.log10(k)
        for edge in (40.0, -40.0):
            points.append(threshold - _OFFSET_DB + edge / 1.6 - gain)
    return points


def _pair(cqi):
    near = st.sampled_from(_anchors(cqi)).flatmap(
        lambda a: st.floats(a - 1e-9, a + 1e-9) | st.floats(a - 0.5, a + 0.5)
    )
    wide = st.floats(-80.0, 120.0, allow_nan=False)
    sinr = st.just(ZERO_SIGNAL_SINR_DB) | near | wide
    return st.tuples(sinr, st.just(cqi))


_pairs = st.lists(st.integers(0, len(LTE_CQI_TABLE)).flatmap(_pair), max_size=60)


def _assert_array_matches_scalar(sinrs, cqis):
    got = harq_goodput_scale_array(np.array(sinrs), np.array(cqis, dtype=int))
    assert got.shape == (len(sinrs),)
    want = [harq_goodput_scale(s, c) for s, c in zip(sinrs, cqis)]
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]


class TestArrayGoodputScale:
    """``harq_goodput_scale_array`` is the scalar function, bit for bit."""

    @given(pairs=_pairs)
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_by_hex(self, pairs):
        _assert_array_matches_scalar([s for s, _ in pairs], [c for _, c in pairs])

    @pytest.mark.parametrize("cqi", range(len(LTE_CQI_TABLE) + 1))
    def test_dense_sweep_through_the_waterfall(self, cqi):
        # Every CQI over the whole curve of all four attempts, with the
        # guard and threshold neighbourhoods one ulp apart.
        threshold = LTE_CQI_TABLE[max(cqi, 1) - 1].min_sinr_db
        sinrs = np.linspace(threshold - 40.0, threshold + 40.0, 4001).tolist()
        for anchor in _anchors(cqi):
            step = anchor
            for _ in range(4):
                step = math.nextafter(step, math.inf)
                sinrs.append(step)
            sinrs.extend([math.nextafter(anchor, -math.inf), anchor])
        sinrs.append(ZERO_SIGNAL_SINR_DB)
        _assert_array_matches_scalar(sinrs, [cqi] * len(sinrs))

    def test_shapes_and_out_of_range_cqi(self):
        sinr = np.array([[3.0, 12.5], [ZERO_SIGNAL_SINR_DB, 30.0]])
        cqi = np.array([[5, 0], [1, 15]])
        got = harq_goodput_scale_array(sinr, cqi)
        assert got.shape == (2, 2) and got[0, 1] == 0.0
        assert got.tolist() == [
            [harq_goodput_scale(s, c) for s, c in zip(row, crow)]
            for row, crow in zip(sinr.tolist(), cqi.tolist())
        ]
        assert harq_goodput_scale_array(np.zeros(0), np.zeros(0, int)).shape == (0,)
        # An invalid CQI, and a SINR whose linear power underflows to 0,
        # raise as in the scalar function.
        for sinr_db, bad_cqi in ((10.0, 16), (-4000.0, 7)):
            with pytest.raises(ValueError):
                harq_goodput_scale(sinr_db, bad_cqi)
            with pytest.raises(ValueError):
                harq_goodput_scale_array(np.array([sinr_db]), np.array([bad_cqi]))

    def test_same_libm_exp_calls_as_scalar(self, monkeypatch):
        # The guards decide which attempts reach ``math.exp``; the array
        # form must make exactly the scalar loop's calls.  Below the -40
        # guard the logistic would round to 1.0 anyway, so only this call
        # count, not any value, shows that guard.
        sinrs, cqis = [], []
        for cqi in range(1, len(LTE_CQI_TABLE) + 1):
            for anchor in _anchors(cqi):
                sinrs.extend([anchor - 5.0, anchor - 1e-9, anchor + 1e-9, anchor + 5.0])
                cqis.extend([cqi] * 4)
        calls = []
        exp = math.exp

        def counting(x):
            calls.append(x)
            return exp(x)

        monkeypatch.setattr(math, "exp", counting)
        for s, c in zip(sinrs, cqis):
            harq_goodput_scale(s, c)
        scalar_calls = sorted(calls)
        calls.clear()
        harq_goodput_scale_array(np.array(sinrs), np.array(cqis))
        assert sorted(calls) == scalar_calls

    def test_telemetry_counters_equal_scalar_loop(self):
        rng = np.random.default_rng(3)
        sinrs = rng.uniform(-10.0, 40.0, 500)
        cqis = rng.integers(0, len(LTE_CQI_TABLE) + 1, 500)
        snapshots = []
        for evaluate in (
            lambda: [harq_goodput_scale(s, c) for s, c in zip(sinrs.tolist(), cqis.tolist())],
            lambda: harq_goodput_scale_array(sinrs, cqis),
        ):
            tel = Telemetry()
            with activated(tel):
                evaluate()
            snapshots.append(tel.snapshot())
        scalar, array = snapshots
        assert array["counters"] == scalar["counters"]
        assert array["histograms"] == scalar["histograms"]
        assert scalar["counters"]["harq.evaluations"] == int((cqis != 0).sum())
