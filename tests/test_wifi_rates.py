"""Unit tests for 802.11 rates and frame timing."""

import pytest

from repro.wifi.frames import (
    FrameTimings,
    MAX_AMPDU_BYTES,
    TXOP_LIMIT_S,
)
from repro.wifi.rates import (
    BASE_MCS,
    WIFI_MCS_TABLE,
    best_mcs,
    data_rate_bps,
)


class TestMcsTable:
    def test_ten_entries(self):
        assert len(WIFI_MCS_TABLE) == 10

    def test_no_code_rate_below_half(self):
        # Table 1: 802.11af coding rate >= 0.5 -- the key contrast to LTE.
        assert min(m.code_rate for m in WIFI_MCS_TABLE) == pytest.approx(0.5)

    def test_efficiency_monotone(self):
        effs = [m.efficiency for m in WIFI_MCS_TABLE]
        assert effs == sorted(effs)

    def test_snr_thresholds_monotone(self):
        snrs = [m.min_snr_db for m in WIFI_MCS_TABLE]
        assert snrs == sorted(snrs)

    def test_mcs0_reference_rate(self):
        # BPSK 1/2 on 20 MHz: 6.5 Mb/s (802.11ac single stream).
        assert data_rate_bps(WIFI_MCS_TABLE[0], 20e6) == pytest.approx(6.5e6)

    def test_mcs9_reference_rate(self):
        # 256QAM 5/6 on 20 MHz: 86.7 Mb/s.
        assert data_rate_bps(WIFI_MCS_TABLE[9], 20e6) == pytest.approx(86.7e6, rel=0.01)

    def test_rates_scale_with_bandwidth(self):
        mcs = WIFI_MCS_TABLE[5]
        assert data_rate_bps(mcs, 6e6) == pytest.approx(
            data_rate_bps(mcs, 20e6) * 6 / 20
        )

    def test_bad_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            data_rate_bps(BASE_MCS, 0.0)


class TestRateAdaptation:
    def test_below_mcs0_unreachable(self):
        # Wi-Fi at SNR 1 dB cannot communicate; LTE (CQI 1 at -6.7) can.
        assert best_mcs(1.0) is None

    def test_selects_highest_feasible(self):
        assert best_mcs(2.0).index == 0
        assert best_mcs(16.0).index == 4
        assert best_mcs(50.0).index == 9

    def test_monotone_in_snr(self):
        previous = -1
        for snr in range(0, 40):
            mcs = best_mcs(float(snr))
            index = -1 if mcs is None else mcs.index
            assert index >= previous
            previous = index


class TestFrameTimings:
    def test_difs_is_sifs_plus_two_slots(self):
        t = FrameTimings(bandwidth_hz=20e6)
        assert t.difs_s == pytest.approx(t.sifs_s + 2 * t.slot_s)

    def test_control_frames_longer_on_narrow_channel(self):
        wide = FrameTimings(bandwidth_hz=20e6)
        narrow = FrameTimings(bandwidth_hz=6e6)
        assert narrow.rts_s > wide.rts_s
        assert narrow.ack_s > wide.ack_s

    def test_aggregate_fills_txop(self):
        t = FrameTimings(bandwidth_hz=20e6)
        rate = 10e6  # At 10 Mb/s a 4 ms TXOP carries 5000 bytes.
        assert t.aggregate_bytes(rate) == 5000

    def test_aggregate_caps_at_65kb(self):
        t = FrameTimings(bandwidth_hz=20e6)
        assert t.aggregate_bytes(1e9) == MAX_AMPDU_BYTES

    def test_aggregate_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            FrameTimings(bandwidth_hz=20e6).aggregate_bytes(0.0)

    def test_data_frame_duration(self):
        t = FrameTimings(bandwidth_hz=20e6)
        duration = t.data_frame_s(1250, 10e6)  # 10000 bits at 10 Mb/s.
        assert duration == pytest.approx(t.preamble_s + 1e-3)

    def test_data_frame_within_txop_limit(self):
        t = FrameTimings(bandwidth_hz=20e6)
        for rate in (6.5e6, 20e6, 86.7e6):
            n_bytes = t.aggregate_bytes(rate)
            assert t.data_frame_s(n_bytes, rate) <= TXOP_LIMIT_S + t.preamble_s + 1e-4

    def test_rts_cts_overhead_larger(self):
        t = FrameTimings(bandwidth_hz=20e6)
        assert t.exchange_overhead_s(True) > t.exchange_overhead_s(False)
