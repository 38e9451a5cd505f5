"""Unit tests for TV channel plans."""

import pytest

from repro.tvws.channels import ChannelPlan, EU_CHANNEL_PLAN, US_CHANNEL_PLAN


class TestPlans:
    def test_us_plan_shape(self):
        assert len(US_CHANNEL_PLAN) == 38
        ch14 = US_CHANNEL_PLAN.channel(14)
        assert ch14.low_hz == 470e6
        assert ch14.bandwidth_hz == 6e6

    def test_eu_plan_shape(self):
        assert len(EU_CHANNEL_PLAN) == 40
        ch21 = EU_CHANNEL_PLAN.channel(21)
        assert ch21.low_hz == 470e6
        assert ch21.bandwidth_hz == 8e6
        # ETSI band ends at 790 MHz.
        assert EU_CHANNEL_PLAN.channel(60).high_hz == pytest.approx(790e6)

    def test_channels_contiguous(self):
        for plan in (US_CHANNEL_PLAN, EU_CHANNEL_PLAN):
            for a, b in zip(plan.channels, plan.channels[1:]):
                assert a.high_hz == pytest.approx(b.low_hz)

    def test_contains(self):
        assert 14 in US_CHANNEL_PLAN
        assert 13 not in US_CHANNEL_PLAN

    def test_unknown_channel_raises(self):
        with pytest.raises(KeyError):
            US_CHANNEL_PLAN.channel(99)

    def test_center_frequency(self):
        assert US_CHANNEL_PLAN.channel(14).center_hz == pytest.approx(473e6)

    def test_overlaps(self):
        ch = US_CHANNEL_PLAN.channel(14)
        assert ch.overlaps(469e6, 471e6)
        assert not ch.overlaps(476e6, 480e6)

    def test_invalid_plan_parameters(self):
        with pytest.raises(ValueError):
            ChannelPlan("bad", 1, 0, 470e6, 6e6)
        with pytest.raises(ValueError):
            ChannelPlan("bad", 1, 4, 470e6, 0.0)
