"""Unit tests for EARFCN arithmetic, SIB messages and timing models."""

import pytest

from repro.lte.rrc import (
    AP_REBOOT_S,
    CELL_SEARCH_S,
    ReacquisitionTiming,
    SibMessage,
    earfcn_from_frequency,
    frequency_from_earfcn,
)


class TestEarfcn:
    def test_band_base_is_zero(self):
        assert earfcn_from_frequency(470e6) == 0

    def test_100khz_raster(self):
        assert earfcn_from_frequency(470.1e6) == 1
        assert earfcn_from_frequency(473e6) == 30

    def test_roundtrip(self):
        for earfcn in (0, 1, 30, 1234):
            assert earfcn_from_frequency(frequency_from_earfcn(earfcn)) == earfcn

    def test_off_raster_rejected(self):
        with pytest.raises(ValueError):
            earfcn_from_frequency(470e6 + 50e3)

    def test_below_band_rejected(self):
        with pytest.raises(ValueError):
            earfcn_from_frequency(400e6)

    def test_negative_earfcn_rejected(self):
        with pytest.raises(ValueError):
            frequency_from_earfcn(-1)


class TestSib:
    def test_frequencies_derived(self):
        sib = SibMessage(
            downlink_earfcn=30,
            uplink_earfcn=30,
            max_ue_power_dbm=20.0,
            bandwidth_hz=5e6,
            cell_id=7,
        )
        assert sib.downlink_frequency_hz == pytest.approx(473e6)
        assert sib.uplink_frequency_hz == sib.downlink_frequency_hz


class TestTiming:
    def test_paper_measured_values(self):
        # Figure 6: 1 min 36 s reboot, 56 s cell search.
        assert AP_REBOOT_S == 96.0
        assert CELL_SEARCH_S == 56.0

    def test_vacate_within_etsi_deadline(self):
        timing = ReacquisitionTiming()
        assert timing.time_to_vacate() < 60.0

    def test_resume_is_reboot_plus_search(self):
        timing = ReacquisitionTiming()
        assert timing.time_to_resume() == pytest.approx(96.0 + 56.0)
