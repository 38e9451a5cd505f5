"""Tests for the LTE-U-style duty-cycling coexistence wrapper."""

import numpy as np
import pytest

from repro.core.coexistence import (
    DutyCyclePolicy,
    MAX_DUTY_CYCLE,
    MIN_DUTY_CYCLE,
)
from repro.core.interference.manager import CellFiInterferenceManager
from repro.baselines.plain_lte import PlainLtePolicy
from repro.experiments.common import build_scenario
from repro.sim.rng import RngStreams
from repro.traffic.backlogged import saturated_demand_fn


def _policy(**kwargs):
    return DutyCyclePolicy(PlainLtePolicy([0, 1], 13), **kwargs)


class TestSchedule:
    def test_on_epochs_lead_each_window(self):
        policy = _policy(period_epochs=10, initial_duty_cycle=0.8)
        pattern = [policy.is_on(e) for e in range(10)]
        assert pattern == [True] * 8 + [False] * 2

    def test_pattern_repeats(self):
        policy = _policy(period_epochs=5, initial_duty_cycle=0.6)
        first = [policy.is_on(e) for e in range(5)]
        second = [policy.is_on(e) for e in range(5, 10)]
        assert first == second

    def test_off_epochs_silence_everyone(self):
        policy = _policy(period_epochs=2, initial_duty_cycle=0.5)
        on = policy.decide(0, None)
        off = policy.decide(1, None)
        assert all(subs for subs in on.values())
        assert all(subs == set() for subs in off.values())

    def test_realised_duty_cycle_tracks_schedule(self):
        policy = _policy(period_epochs=10, initial_duty_cycle=0.8)
        for epoch in range(40):
            policy.decide(epoch, None)
        assert policy.realised_duty_cycle == pytest.approx(0.8, abs=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            _policy(period_epochs=1)
        with pytest.raises(ValueError):
            _policy(initial_duty_cycle=0.1)


class TestAdaptation:
    def test_busy_wifi_shrinks_duty_cycle(self):
        policy = _policy(
            period_epochs=5, initial_duty_cycle=0.8,
            wifi_activity=lambda epoch: 1.0,
        )
        for epoch in range(50):
            policy.decide(epoch, None)
        assert policy.duty_cycle == pytest.approx(MIN_DUTY_CYCLE, abs=0.05)

    def test_idle_wifi_grows_duty_cycle(self):
        policy = _policy(
            period_epochs=5, initial_duty_cycle=0.5,
            wifi_activity=lambda epoch: 0.0,
        )
        for epoch in range(50):
            policy.decide(epoch, None)
        assert policy.duty_cycle == pytest.approx(MAX_DUTY_CYCLE, abs=0.05)

    def test_bad_activity_rejected(self):
        policy = _policy(wifi_activity=lambda epoch: 2.0)
        with pytest.raises(ValueError):
            policy.decide(0, None)


class TestComposition:
    def test_wraps_cellfi_end_to_end(self):
        scenario = build_scenario(seed=6, n_aps=4, clients_per_ap=3)
        net = scenario.lte_net("net")
        inner = CellFiInterferenceManager(
            scenario.ap_ids, net.grid.n_subchannels, scenario.rngs.fork("mgr")
        )
        policy = DutyCyclePolicy(inner, period_epochs=4, initial_duty_cycle=0.75)
        results = net.run(12, policy, saturated_demand_fn(net.topology))
        # OFF epochs deliver nothing; ON epochs deliver.
        off_epochs = [r for e, r in enumerate(results) if not policy.is_on(e)]
        on_epochs = [r for e, r in enumerate(results) if policy.is_on(e)]
        assert all(
            sum(r.throughput_bps.values()) == 0.0 for r in off_epochs
        )
        assert all(sum(r.throughput_bps.values()) > 0.0 for r in on_epochs[1:])

    def test_throughput_scales_with_duty_cycle(self):
        scenario = build_scenario(seed=7, n_aps=3, clients_per_ap=3)
        totals = {}
        for duty in (0.5, 0.9):
            net = scenario.lte_net(f"net-{duty}")
            policy = DutyCyclePolicy(
                PlainLtePolicy(scenario.ap_ids, net.grid.n_subchannels),
                period_epochs=10,
                initial_duty_cycle=duty,
            )
            results = net.run(20, policy, saturated_demand_fn(net.topology))
            totals[duty] = sum(sum(r.throughput_bps.values()) for r in results)
        ratio = totals[0.5] / totals[0.9]
        assert ratio == pytest.approx(0.5 / 0.9, rel=0.15)
