"""Unit tests for repro.utils.dbmath."""

import math

import numpy as np
import pytest

from repro.utils.dbmath import (
    THERMAL_NOISE_DBM_PER_HZ,
    db_to_linear,
    dbm_to_watt,
    dbm_to_watt_array,
    linear_to_db,
    thermal_noise_dbm,
    watt_to_dbm,
    wireless_sum_dbm,
)


class TestDbConversions:
    def test_zero_db_is_unity(self):
        assert db_to_linear(0.0) == pytest.approx(1.0)

    def test_three_db_doubles(self):
        assert db_to_linear(3.0103) == pytest.approx(2.0, rel=1e-4)

    def test_ten_db_is_ten(self):
        assert db_to_linear(10.0) == pytest.approx(10.0)

    def test_negative_db_divides(self):
        assert db_to_linear(-10.0) == pytest.approx(0.1)

    def test_roundtrip(self):
        for value in (0.001, 1.0, 42.0, 1e6):
            assert db_to_linear(linear_to_db(value)) == pytest.approx(value)

    def test_linear_to_db_rejects_zero(self):
        with pytest.raises(ValueError):
            linear_to_db(0.0)

    def test_linear_to_db_rejects_negative(self):
        with pytest.raises(ValueError):
            linear_to_db(-1.0)


class TestDbmWatt:
    def test_zero_dbm_is_one_milliwatt(self):
        assert dbm_to_watt(0.0) == pytest.approx(1e-3)

    def test_thirty_dbm_is_one_watt(self):
        assert dbm_to_watt(30.0) == pytest.approx(1.0)

    def test_roundtrip(self):
        for dbm in (-120.0, -30.0, 0.0, 23.0, 46.0):
            assert watt_to_dbm(dbm_to_watt(dbm)) == pytest.approx(dbm)

    def test_watt_to_dbm_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            watt_to_dbm(0.0)


    def test_array_is_bit_identical_to_scalar(self):
        rng = np.random.default_rng(45)
        dbm = np.concatenate(
            [
                rng.uniform(-200.0, 50.0, 3000),
                np.array([-np.inf, np.inf, 30.0, -3300.0]),
            ]
        ).reshape(2, 1502)
        got = dbm_to_watt_array(dbm)
        assert got.shape == dbm.shape
        assert [v.hex() for v in got.ravel().tolist()] == [
            dbm_to_watt(v).hex() for v in dbm.ravel().tolist()
        ]

    def test_array_overflow_raises_like_scalar(self):
        with pytest.raises(OverflowError):
            dbm_to_watt(3200.0)
        with pytest.raises(OverflowError):
            dbm_to_watt_array(np.array([0.0, 3200.0]))


class TestWirelessSum:
    def test_empty_sum_is_minus_infinity(self):
        assert wireless_sum_dbm([]) == float("-inf")

    def test_single_value_passthrough(self):
        assert wireless_sum_dbm([-90.0]) == pytest.approx(-90.0)

    def test_two_equal_signals_add_three_db(self):
        assert wireless_sum_dbm([-90.0, -90.0]) == pytest.approx(-87.0, abs=0.02)

    def test_dominant_signal_wins(self):
        total = wireless_sum_dbm([-60.0, -100.0])
        assert total == pytest.approx(-60.0, abs=0.01)

    def test_sum_is_commutative(self):
        a = wireless_sum_dbm([-80.0, -85.0, -90.0])
        b = wireless_sum_dbm([-90.0, -80.0, -85.0])
        assert a == pytest.approx(b)


class TestThermalNoise:
    def test_one_hertz_is_ktb(self):
        assert thermal_noise_dbm(1.0) == pytest.approx(THERMAL_NOISE_DBM_PER_HZ)

    def test_20mhz_wifi_noise_floor(self):
        # Classic figure: -174 + 73 = -101 dBm over 20 MHz.
        assert thermal_noise_dbm(20e6) == pytest.approx(-100.99, abs=0.05)

    def test_noise_figure_adds_directly(self):
        base = thermal_noise_dbm(5e6)
        assert thermal_noise_dbm(5e6, noise_figure_db=7.0) == pytest.approx(base + 7.0)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            thermal_noise_dbm(0.0)
