"""Unit tests for traffic models and flow tracking."""

import numpy as np
import pytest

from repro.sim.topology import grid_topology
from repro.traffic.backlogged import saturated_demand_fn, saturated_demands
from repro.traffic.flows import Flow, FlowTracker
from repro.traffic.web import (
    WebWorkloadConfig,
    generate_web_sessions,
)


class TestBacklogged:
    def test_all_clients_infinite(self):
        topo = grid_topology(2, 3, 500.0)
        demands = saturated_demands(topo)
        assert len(demands) == 12
        assert all(v == float("inf") for v in demands.values())

    def test_demand_fn_returns_fresh_dict(self):
        topo = grid_topology(1, 2, 500.0)
        fn = saturated_demand_fn(topo)
        first = fn(0)
        first[0] = 0.0
        assert fn(1)[0] == float("inf")


class TestWebWorkload:
    def test_every_client_browses(self):
        rng = np.random.default_rng(1)
        pages = generate_web_sessions([1, 2, 3], 60.0, rng)
        assert {p.client_id for p in pages} == {1, 2, 3}

    def test_arrivals_sorted_and_bounded(self):
        rng = np.random.default_rng(2)
        pages = generate_web_sessions([1, 2], 30.0, rng)
        times = [p.arrival_s for p in pages]
        assert times == sorted(times)
        assert all(0.0 <= t < 30.0 for t in times)

    def test_page_sizes_heavy_tailed(self):
        rng = np.random.default_rng(3)
        config = WebWorkloadConfig()
        sizes = [config.draw_page_bytes(rng)[0] for _ in range(500)]
        assert np.median(sizes) < np.mean(sizes)  # Right-skew.

    def test_median_page_size_realistic(self):
        rng = np.random.default_rng(4)
        config = WebWorkloadConfig()
        sizes = [config.draw_page_bytes(rng)[0] for _ in range(1000)]
        assert 50e3 < np.median(sizes) < 2e6  # Hundreds of kB.

    def test_think_time_mean(self):
        rng = np.random.default_rng(5)
        config = WebWorkloadConfig()
        thinks = [config.draw_think_s(rng) for _ in range(2000)]
        # lognormal(ln 6, 1) -> mean = 6 * exp(0.5) ~ 9.9 s.
        assert np.mean(thinks) == pytest.approx(9.9, rel=0.2)

    def test_object_count_clipped(self):
        rng = np.random.default_rng(6)
        config = WebWorkloadConfig(max_objects=10)
        for _ in range(200):
            _, n = config.draw_page_bytes(rng)
            assert 1 <= n <= 10

    def test_duration_validated(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError):
            generate_web_sessions([1], 0.0, rng)


class TestFlow:
    def test_initial_remaining(self):
        flow = Flow(client_id=1, arrival_s=0.0, size_bits=1000.0)
        assert flow.remaining_bits == 1000.0
        assert flow.completion_time_s is None

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            Flow(client_id=1, arrival_s=0.0, size_bits=0.0)


class TestFlowTracker:
    def test_fifo_completion(self):
        tracker = FlowTracker()
        tracker.arrive(Flow(client_id=1, arrival_s=0.0, size_bits=100.0))
        tracker.arrive(Flow(client_id=1, arrival_s=1.0, size_bits=100.0))
        done = tracker.serve(1, 100.0, start_s=2.0, end_s=2.0)
        assert len(done) == 1
        assert done[0].arrival_s == 0.0

    def test_partial_service(self):
        tracker = FlowTracker()
        tracker.arrive(Flow(client_id=1, arrival_s=0.0, size_bits=100.0))
        assert tracker.serve(1, 40.0, 1.0, 1.0) == []
        assert tracker.queued_bits(1) == 60.0
        done = tracker.serve(1, 60.0, 2.0, 2.0)
        assert done[0].completed_s == 2.0
        assert done[0].completion_time_s == 2.0

    def test_interpolated_completion_within_epoch(self):
        tracker = FlowTracker()
        tracker.arrive(Flow(client_id=1, arrival_s=0.0, size_bits=100.0))
        done = tracker.serve(1, 400.0, start_s=0.0, end_s=1.0)
        # The flow was 1/4 of the delivered bits: completes at t=0.25.
        assert done[0].completed_s == pytest.approx(0.25)

    def test_one_delivery_finishes_multiple_flows(self):
        tracker = FlowTracker()
        for i in range(3):
            tracker.arrive(Flow(client_id=1, arrival_s=float(i), size_bits=10.0))
        done = tracker.serve(1, 30.0, 5.0, 6.0)
        assert len(done) == 3
        assert tracker.in_flight() == 0

    def test_completion_times_accumulate(self):
        tracker = FlowTracker()
        tracker.arrive(Flow(client_id=1, arrival_s=1.0, size_bits=10.0))
        tracker.serve(1, 10.0, 3.0, 3.0)
        assert tracker.completion_times() == [2.0]

    def test_active_clients(self):
        tracker = FlowTracker()
        tracker.arrive(Flow(client_id=1, arrival_s=0.0, size_bits=10.0))
        tracker.arrive(Flow(client_id=2, arrival_s=0.0, size_bits=10.0))
        tracker.serve(2, 10.0, 1.0, 1.0)
        assert tracker.active_clients() == [1]

    def test_total_queued(self):
        tracker = FlowTracker()
        tracker.arrive(Flow(client_id=1, arrival_s=0.0, size_bits=10.0))
        tracker.arrive(Flow(client_id=2, arrival_s=0.0, size_bits=20.0))
        assert tracker.total_queued_bits() == 30.0

    def test_serving_unknown_client_is_noop(self):
        tracker = FlowTracker()
        assert tracker.serve(9, 100.0, 0.0, 1.0) == []

    def test_validation(self):
        tracker = FlowTracker()
        with pytest.raises(ValueError):
            tracker.serve(1, -1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            tracker.serve(1, 1.0, 2.0, 1.0)
