"""Smoke + shape tests for every experiment reproduction.

These run scaled-down versions of each paper experiment and assert the
*direction* of every headline claim.  The full-scale numbers live in the
benchmark harness; here the point is that the claims survive at CI scale.
"""

import numpy as np
import pytest

from repro.experiments.convergence import (
    run_convergence_sweep,
    run_reuse_experiment,
)
from repro.experiments.coverage import run_drive_test
from repro.experiments.cqi_detector import run_fig8
from repro.experiments.db_timeline import run_db_timeline
from repro.experiments.interference_exp import run_two_cell_walk
from repro.experiments.large_scale import (
    TECH_CELLFI,
    TECH_LTE,
    TECH_WIFI,
    run_coverage_vs_density,
    run_page_load_times,
    run_throughput_cdfs,
)
from repro.experiments.prach_eval import run_prach_eval


@pytest.fixture(scope="module")
def drive_test():
    return run_drive_test(step_m=50.0, samples_per_point=40)


class TestFig1:
    def test_broadband_coverage(self, drive_test):
        # Paper: 1 Mb/s at >= 85% of locations.
        assert drive_test.coverage_fraction(1.0) >= 0.85

    def test_range_beyond_1300m(self, drive_test):
        assert drive_test.max_range_m(1.0) >= 1300.0

    def test_median_dl_coding_rate_near_half(self, drive_test):
        median = np.median(drive_test.all_code_rates("downlink"))
        assert 0.35 <= median <= 0.65

    def test_low_rates_used(self, drive_test):
        # LTE dips below Wi-Fi's 1/2 floor on the long links.
        rates = drive_test.all_code_rates("downlink")
        assert min(rates) < 0.2

    def test_uplink_rides_single_rb(self, drive_test):
        fractions = drive_test.channel_fractions("uplink")
        assert max(fractions) <= 1.0 / 13  # At most one subband equivalent.

    def test_downlink_uses_full_channel(self, drive_test):
        assert np.median(drive_test.channel_fractions("downlink")) == 1.0

    def test_harq_usage_on_long_links(self, drive_test):
        # Paper: ~25% of packets beyond 500 m use HARQ.
        usage = drive_test.harq_usage_beyond(500.0)
        assert 0.10 <= usage <= 0.45

    def test_harq_grows_with_distance(self, drive_test):
        near = [p.harq_fraction for p in drive_test.points if p.distance_m < 300.0]
        far = [p.harq_fraction for p in drive_test.points if p.distance_m > 900.0]
        assert np.mean(far) > np.mean(near)

    def test_throughput_decreases_with_distance(self, drive_test):
        curve = drive_test.throughput_curve()
        first_third = np.mean([t for d, t in curve if d < 500.0])
        last_third = np.mean([t for d, t in curve if d > 1100.0])
        assert last_third < first_third / 2


class TestFig6:
    @pytest.fixture(scope="class")
    def timeline(self):
        return run_db_timeline()

    def test_vacates_within_etsi_minute(self, timeline):
        assert timeline.vacate_latency_s is not None
        assert timeline.vacate_latency_s <= 60.0

    def test_compliant(self, timeline):
        assert timeline.compliant

    def test_resume_dominated_by_reboot_and_search(self, timeline):
        # Paper: 1 m 36 s reboot + 56 s search ~ 152 s.
        assert timeline.resume_latency_s == pytest.approx(152.0, abs=10.0)

    def test_radio_on_before_client(self, timeline):
        assert timeline.radio_on_time_s < timeline.client_reconnect_time_s


class TestFig7:
    @pytest.fixture(scope="class")
    def walk(self):
        return run_two_cell_walk()

    def test_sinr_spans_wide_range(self, walk):
        sinrs = [s.sinr_db for s in walk.samples]
        assert min(sinrs) < -10.0
        assert max(sinrs) > 15.0

    def test_signalling_interference_bounded(self, walk):
        # Paper: "the two vary by at most 20%".
        assert walk.signalling_vs_none_max_gap() <= 0.20 + 1e-9

    def test_data_interference_much_worse(self, walk):
        # Paper: up to ~50% goodput loss at SINR < 10 dB.
        assert walk.full_interference_median_loss() >= 0.25

    def test_disconnections_only_under_data_interference(self, walk):
        assert walk.disconnection_count() > 0
        # And they cluster at the low-SINR end of the path.
        low = [s for s in walk.samples if s.sinr_db < 0.0]
        high = [s for s in walk.samples if s.sinr_db > 10.0]
        assert not any(s.disconnected_full for s in high)
        assert any(s.disconnected_full for s in low)


class TestFig8:
    @pytest.fixture(scope="class")
    def trace(self):
        return run_fig8()

    def test_false_positives_below_2_percent(self, trace):
        assert trace.false_positive_rate < 0.02

    def test_true_positives_near_80_percent(self, trace):
        assert 0.6 <= trace.true_positive_rate <= 0.95

    def test_faded_interference_not_flagged(self, trace):
        # Weak interference must not trigger reallocation.
        assert trace.faded_flag_rate < 0.05

    def test_throughput_drops_during_interference(self, trace):
        on = [t for t, s in zip(trace.throughput_mbps, trace.interferer_on) if s]
        off = [t for t, s in zip(trace.throughput_mbps, trace.interferer_on) if not s]
        assert np.mean(on) < 0.6 * np.mean(off)


class TestPrach:
    @pytest.fixture(scope="class")
    def evaluation(self):
        return run_prach_eval(trials=25, speed_trials=60)

    def test_reliable_at_minus_10db(self, evaluation):
        assert evaluation.detection_by_snr[-10.0] >= 0.95

    def test_degrades_below_operating_point(self, evaluation):
        assert evaluation.detection_by_snr[-20.0] < 0.5

    def test_low_false_alarms(self, evaluation):
        assert evaluation.false_alarm <= 0.02

    def test_complexity_ratio_large(self, evaluation):
        # One correlation vs one per candidate root (16 here).
        assert evaluation.complexity_ratio > 8.0

    def test_faster_than_occasion_rate(self, evaluation):
        assert evaluation.speed_factor_vs_occasion_rate > 1.0

    def test_shift_recovered(self, evaluation):
        assert evaluation.shift_identified


class TestTheorem1:
    @pytest.fixture(scope="class")
    def sweep(self):
        return run_convergence_sweep(
            n_nodes_list=(8, 32), fading_list=(0.0, 0.3), replications=5
        )

    def test_always_converges(self, sweep):
        assert all(p.converged_all for p in sweep)

    def test_within_bound(self, sweep):
        for point in sweep:
            assert point.mean_rounds <= point.bound_rounds

    def test_fading_slows_convergence(self, sweep):
        by_key = {(p.n_nodes, p.fading_p): p.mean_rounds for p in sweep}
        assert by_key[(32, 0.3)] >= by_key[(32, 0.0)]


class TestChannelReuse:
    @pytest.fixture(scope="class")
    def result(self):
        return run_reuse_experiment(epochs=20)

    def test_packing_happens(self, result):
        assert result.reuse_moves > 0

    def test_exposed_clients_gain(self, result):
        # Paper: "upto 2x gain in throughput for exposed clients".
        assert result.exposed_gain > 1.05


class TestFig9Small:
    """Scaled-down large-scale comparison: directions must already hold."""

    @pytest.fixture(scope="class")
    def cdfs(self):
        return run_throughput_cdfs(
            seeds=[1], n_aps=8, epochs=8, wifi_duration_s=2.5, include_oracle=True
        )

    def test_cellfi_starves_fewest(self, cdfs):
        cellfi = cdfs.starved_fraction(TECH_CELLFI)
        assert cellfi <= cdfs.starved_fraction(TECH_LTE)
        assert cellfi <= cdfs.starved_fraction(TECH_WIFI)

    def test_cellfi_throughput_not_sacrificed(self, cdfs):
        assert cdfs.median_bps(TECH_CELLFI) >= 0.8 * cdfs.median_bps(TECH_LTE)

    def test_oracle_upper_bounds_starvation(self, cdfs):
        assert cdfs.starved_fraction("Oracle") <= cdfs.starved_fraction(TECH_LTE)

    def test_page_loads_favour_cellfi(self):
        result = run_page_load_times(
            seeds=[2], n_aps=6, duration_s=12.0, include_wifi=True
        )
        assert result.median_s(TECH_CELLFI) <= result.median_s(TECH_WIFI)


class TestFig2Small:
    """Scaled-down Figure 2: the af/ac gap at CI size."""

    @pytest.fixture(scope="class")
    def fig2(self):
        from repro.experiments.wifi_macs import run_fig2

        return run_fig2(seed=2, n_aps=5, clients_per_ap=4, duration_s=2.0)

    def test_snr_calibration(self, fig2):
        gap = abs(fig2.mean_snr_db["802.11af"] - fig2.mean_snr_db["802.11ac"])
        assert gap <= 1.5

    def test_ac_dominates_af(self, fig2):
        af = np.array(fig2.throughput_bps["802.11af"])
        ac = np.array(fig2.throughput_bps["802.11ac"])
        assert np.median(ac) > np.median(af)
        assert (af < 50e3).mean() >= (ac < 50e3).mean()


class TestDenserScenario:
    """Paper: with 16 clients per AP 'CellFi still offers coverage to more
    than 80% of users', ahead of LTE."""

    def test_sixteen_clients_per_ap(self):
        from repro.experiments.large_scale import SaturatedLteRun
        from repro.experiments.common import build_scenario

        scenario = build_scenario(seed=4, n_aps=6, clients_per_ap=16)
        cellfi, lte = (
            SaturatedLteRun(
                tech, scenario.seed, scenario.n_aps, scenario.clients_per_ap,
                epochs=8, scenario=scenario,
            ).run()
            for tech in (TECH_CELLFI, TECH_LTE)
        )
        assert cellfi.connected_fraction >= 0.80
        assert cellfi.connected_fraction >= lte.connected_fraction - 0.02


class TestUplinkProtection:
    """Extension: CellFi's TDD allocations also shield the uplink."""

    @pytest.fixture(scope="class")
    def comparison(self):
        from repro.experiments.uplink_exp import run_uplink_comparison

        return run_uplink_comparison(seed=3, n_aps=6, clients_per_ap=4, epochs=8)

    def test_cellfi_lifts_uplink_sinr(self, comparison):
        assert comparison.median_sinr_db("CellFi") >= comparison.median_sinr_db("LTE")

    def test_uplink_still_delivers(self, comparison):
        assert comparison.median_bps("CellFi") > 0.0
