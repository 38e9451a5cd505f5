"""Unit tests for the discrete-event simulator."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_callback_fires_at_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run(until=10.0)
        assert seen == [2.5]

    def test_clock_ends_at_until(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append("late"))
        sim.schedule(1.0, lambda: order.append("early"))
        sim.run(until=5.0)
        assert order == ["early", "late"]

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: order.append(i))
        sim.run(until=1.0)
        assert order == [0, 1, 2, 3, 4]

    def test_event_at_until_fires(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(True))
        sim.run(until=5.0)
        assert seen == [True]

    def test_event_after_until_does_not_fire(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.1, lambda: seen.append(True))
        sim.run(until=5.0)
        assert seen == []
        sim.run(until=6.0)
        assert seen == [True]

    def test_negative_delay_raises(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-0.1, lambda: None)

    def test_run_backwards_raises(self):
        sim = Simulator()
        sim.run(until=5.0)
        with pytest.raises(ValueError):
            sim.run(until=4.0)

    def test_schedule_at_absolute(self):
        sim = Simulator()
        sim.run(until=2.0)
        seen = []
        sim.schedule_at(3.0, lambda: seen.append(sim.now))
        sim.run(until=4.0)
        assert seen == [3.0]

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []

        def outer():
            sim.schedule(1.0, lambda: seen.append(sim.now))

        sim.schedule(1.0, outer)
        sim.run(until=3.0)
        assert seen == [2.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(1.0, lambda: seen.append(True))
        event.cancel()
        sim.run(until=2.0)
        assert seen == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert event.cancelled

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        event = sim.schedule(2.0, lambda: None)
        event.cancel()
        assert sim.pending_events() == 1


class TestRecurring:
    def test_schedule_every_repeats(self):
        sim = Simulator()
        ticks = []
        sim.schedule_every(1.0, lambda: ticks.append(sim.now))
        sim.run(until=3.5)
        assert ticks == [1.0, 2.0, 3.0]

    def test_start_delay_override(self):
        sim = Simulator()
        ticks = []
        sim.schedule_every(2.0, lambda: ticks.append(sim.now), start_delay=0.5)
        sim.run(until=5.0)
        assert ticks == [0.5, 2.5, 4.5]

    def test_cancelling_first_stops_chain(self):
        sim = Simulator()
        ticks = []
        event = sim.schedule_every(1.0, lambda: ticks.append(sim.now))
        event.cancel()
        sim.run(until=5.0)
        assert ticks == []

    def test_nonpositive_interval_raises(self):
        with pytest.raises(ValueError):
            Simulator().schedule_every(0.0, lambda: None)


class TestRunUntilIdle:
    def test_drains_queue(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(2.0, lambda: seen.append(2))
        sim.run_until_idle()
        assert seen == [1, 2]
        assert sim.now == 2.0

    def test_reentrant_run_raises(self):
        sim = Simulator()

        def nested():
            with pytest.raises(RuntimeError):
                sim.run(until=10.0)

        sim.schedule(1.0, nested)
        sim.run(until=2.0)


class TestRunUntilIdleClock:
    def test_finite_max_time_advances_clock_past_last_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.run_until_idle(max_time=5.0)
        assert fired == [1.0]
        assert sim.now == 5.0

    def test_finite_max_time_with_empty_queue(self):
        sim = Simulator()
        sim.run_until_idle(max_time=3.0)
        assert sim.now == 3.0

    def test_event_beyond_max_time_stays_queued(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: fired.append(True))
        sim.run_until_idle(max_time=5.0)
        assert fired == []
        assert sim.now == 5.0
        assert sim.pending_events() == 1

    def test_followup_scheduling_sees_continuous_timeline(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.run_until_idle(max_time=4.0)
        # A relative delay from here must be measured from t=4, not t=1.
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.run_until_idle()
        assert fired == [1.0, 5.0]
        assert sim.now == 5.0

    def test_unbounded_idle_stops_at_last_event(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run_until_idle()
        assert sim.now == 2.0


class TestLazyDeletionBounds:
    def test_pending_events_under_recurring_chains(self):
        sim = Simulator()
        for _ in range(10):
            sim.schedule_every(0.5, lambda: None)
        sim.run(until=100.0)
        # 10 chains x 200 fires each; exactly one future event per chain.
        assert sim.pending_events() == 10
        assert sim.queue_size() == 10

    def test_cancel_storm_compacts_on_next_schedule(self):
        sim = Simulator()
        events = [sim.schedule(10.0, lambda: None) for _ in range(1000)]
        for event in events[:900]:
            event.cancel()
        assert sim.pending_events() == 100
        # The next push notices cancelled entries outnumber live ones.
        sim.schedule(10.0, lambda: None)
        assert sim.pending_events() == 101
        assert sim.queue_size() == 101

    def test_timer_reset_churn_keeps_heap_bounded(self):
        sim = Simulator()
        # Typical timeout-reset pattern: arm a batch of timers, cancel them
        # all, re-arm.  10,000 cancelled events pass through the queue; the
        # heap must stay proportional to the live set, not the churn.
        for _ in range(100):
            events = [sim.schedule(10.0, lambda: None) for _ in range(100)]
            for event in events:
                event.cancel()
            assert sim.queue_size() <= 256
        assert sim.pending_events() == 0
        # One more schedule triggers a final compaction to the live set.
        sim.schedule(1.0, lambda: None)
        assert sim.queue_size() == 1

    def test_cancelled_recurring_chain_leaves_no_garbage_growth(self):
        sim = Simulator()
        ticks = []
        keeper = sim.schedule_every(1.0, lambda: ticks.append(sim.now))
        victims = [sim.schedule_every(1.0, lambda: None) for _ in range(200)]
        for event in victims:
            event.cancel()
        sim.run(until=50.0)
        assert len(ticks) == 50
        # The 200 cancelled chain heads never fired or rescheduled.
        assert sim.pending_events() == 1

    def test_cancel_after_fire_does_not_corrupt_count(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.run(until=2.0)
        event.cancel()  # Late cancel of an already-fired event.
        assert sim.pending_events() == 0
        assert sim.queue_size() == 0


class TestScheduleGuards:
    def test_nan_delay_raises_with_clear_message(self):
        with pytest.raises(ValueError, match="NaN"):
            Simulator().schedule(float("nan"), lambda: None)

    def test_negative_delay_message_mentions_past(self):
        with pytest.raises(ValueError, match="past"):
            Simulator().schedule(-1.0, lambda: None)

    def test_nan_schedule_at_raises(self):
        with pytest.raises(ValueError):
            Simulator().schedule_at(float("nan"), lambda: None)


class TestEventRepr:
    def test_repr_shows_callback_site_and_pending_state(self):
        sim = Simulator()

        def my_callback():
            pass

        event = sim.schedule(1.5, my_callback)
        text = repr(event)
        assert "my_callback" in text
        assert "pending" in text
        assert "t=1.500000" in text

    def test_repr_shows_cancelled_state(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        assert "cancelled" in repr(event)

    def test_repr_shows_fired_state(self):
        # A builtin callback: its site name (``builtins.int``) cannot
        # contain a state word, unlike a local function's qualname.
        sim = Simulator()
        event = sim.schedule(1.0, int)
        assert ", pending, cb=builtins.int)" in repr(event)
        sim.run(until=2.0)
        assert ", fired, cb=builtins.int)" in repr(event)


class _Recorder:
    """A callback that logs its label; labels survive a checkpoint."""

    def __init__(self, label, fired):
        self.label = label
        self.fired = fired

    def __call__(self):
        self.fired.append(self.label)


# Dyadic delays so same-time ties are common and exact.
_delays = st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0, 2.0])
_ops = st.one_of(
    st.tuples(st.just("schedule"), _delays),
    st.tuples(st.just("schedule_at"), st.integers(0, 10**6)),
    st.tuples(st.just("cancel"), st.integers(0, 10**6)),
    st.tuples(st.just("churn"), st.integers(Simulator.COMPACTION_MIN_SIZE, 120),
              st.integers(0, 8)),
    st.tuples(st.just("step")),
    st.tuples(st.just("run"), _delays),
    st.tuples(st.just("roundtrip")),
)


class TestHeapOrderProperty:
    """Random schedule/cancel/step/run/checkpoint mixes against a model.

    The model keeps the live events as ``seq -> time``; whatever fires
    must be exactly the due live events in ``(time, seq)`` order.
    """

    @given(ops=st.lists(_ops, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_fires_live_events_in_time_seq_order(self, ops):
        sim = Simulator()
        fired = []
        live = {}  # seq -> time, the model's queue.
        handles = []  # Every handle ever returned, fired ones included.

        def add(handle, at):
            assert handle.time == at
            assert handle.seq not in live
            live[handle.seq] = handle.time
            handles.append(handle)

        def schedule(delay):
            seq = sim._next_seq
            add(sim.schedule(delay, _Recorder(seq, fired)), sim.now + delay)
            # A push compacts once cancelled entries outnumber live ones.
            if sim.queue_size() >= Simulator.COMPACTION_MIN_SIZE:
                assert sim.queue_size() <= 2 * sim.pending_events()

        def cancel(index):
            handle = handles[index % len(handles)]
            handle.cancel()
            live.pop(handle.seq, None)

        def expect_fired(until):
            due = sorted((t, s) for s, t in live.items() if t <= until)
            for _, seq in due:
                del live[seq]
            return [seq for _, seq in due]

        for op in ops:
            kind = op[0]
            if kind == "schedule":
                schedule(op[1])
            elif kind == "schedule_at":
                if live:  # Tie with a pending event's exact time.
                    at = sorted(live.values())[op[1] % len(live)]
                    seq = sim._next_seq
                    add(sim.schedule_at(at, _Recorder(seq, fired)), at)
            elif kind == "cancel":
                if handles:
                    cancel(op[1])
            elif kind == "churn":
                _, count, keep = op
                first = len(handles)
                for i in range(count):
                    schedule([0.25, 0.5, 1.0][i % 3])
                for index in range(first + keep, len(handles)):
                    cancel(index)
                schedule(0.5)
            elif kind == "step":
                head = min(((t, s) for s, t in live.items()), default=None)
                before = len(fired)
                event = sim.step()
                if head is None:
                    assert event is None and fired[before:] == []
                else:
                    del live[head[1]]
                    assert fired[before:] == [head[1]]
                    assert (event.time, event.seq) == head == (sim.now, head[1])
            elif kind == "run":
                until = sim.now + op[1]
                expected = expect_fired(until)
                before = len(fired)
                sim.run(until=until)
                assert fired[before:] == expected
                assert sim.now == until
            else:
                state = json.loads(json.dumps(
                    sim.state_dict(lambda callback: callback.label)
                ))
                assert state["events"] == sorted([t, s, s] for s, t in live.items())
                restored = Simulator()
                lookup = restored.load_state(
                    state, lambda label: _Recorder(label, fired)
                )
                assert sorted(lookup) == sorted(live)
                handles = [lookup.get(h.seq, h) for h in handles]
                sim = restored
            assert sim.pending_events() == len(live)
            assert sim.queue_size() >= sim.pending_events()

        before = len(fired)
        sim.run_until_idle()
        assert fired[before:] == expect_fired(float("inf"))
        assert sim.pending_events() == 0 and sim.queue_size() == 0
