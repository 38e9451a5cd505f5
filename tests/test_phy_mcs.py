"""Unit tests for the CQI/MCS tables."""

import pytest

from repro.phy.mcs import (
    CQI_OUT_OF_RANGE,
    LTE_CQI_TABLE,
    LTE_MIN_CODE_RATE,
    WIFI_MIN_CODE_RATE,
    cqi_from_sinr,
    efficiency_from_cqi,
    entry_for_cqi,
)


class TestTableStructure:
    def test_fifteen_entries(self):
        assert len(LTE_CQI_TABLE) == 15

    def test_indices_sequential(self):
        assert [e.cqi for e in LTE_CQI_TABLE] == list(range(1, 16))

    def test_efficiency_monotone(self):
        effs = [e.efficiency for e in LTE_CQI_TABLE]
        assert effs == sorted(effs)

    def test_thresholds_monotone(self):
        thresholds = [e.min_sinr_db for e in LTE_CQI_TABLE]
        assert thresholds == sorted(thresholds)

    def test_cqi1_is_the_paper_low_rate(self):
        # Table 1: LTE coding rate goes down to ~0.1 (78/1024 = 0.076).
        assert LTE_CQI_TABLE[0].code_rate == pytest.approx(78 / 1024)
        assert LTE_MIN_CODE_RATE < 0.1 < WIFI_MIN_CODE_RATE

    def test_top_cqi_efficiency(self):
        # 64QAM 948/1024 -> 5.55 bit per resource element.
        assert LTE_CQI_TABLE[-1].efficiency == pytest.approx(5.554, abs=0.01)

    def test_modulations_consistent(self):
        for entry in LTE_CQI_TABLE:
            expected = {"QPSK": 2, "16QAM": 4, "64QAM": 6}[entry.modulation]
            assert entry.bits_per_symbol == expected


class TestCqiMapping:
    def test_below_range_is_zero(self):
        assert cqi_from_sinr(-10.0) == CQI_OUT_OF_RANGE

    def test_at_first_threshold(self):
        assert cqi_from_sinr(-6.7) == 1

    def test_high_sinr_saturates(self):
        assert cqi_from_sinr(40.0) == 15

    def test_monotone_in_sinr(self):
        previous = -1
        for sinr in range(-10, 30):
            cqi = cqi_from_sinr(float(sinr))
            assert cqi >= previous
            previous = cqi

    def test_each_threshold_maps_to_its_cqi(self):
        for entry in LTE_CQI_TABLE:
            assert cqi_from_sinr(entry.min_sinr_db) == entry.cqi
            assert cqi_from_sinr(entry.min_sinr_db - 0.01) == entry.cqi - 1


class TestLookups:
    def test_entry_for_cqi_bounds(self):
        with pytest.raises(ValueError):
            entry_for_cqi(0)
        with pytest.raises(ValueError):
            entry_for_cqi(16)

    def test_efficiency_zero_for_cqi0(self):
        assert efficiency_from_cqi(CQI_OUT_OF_RANGE) == 0.0
