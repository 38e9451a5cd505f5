"""A minimal, deterministic discrete-event simulator.

Design notes
------------
* Events carry a monotonically increasing sequence number so that two events
  scheduled for the same instant fire in scheduling order -- this makes every
  run bit-reproducible for a fixed seed, which the tests rely on.
* The heap holds ``(time, seq, event)`` tuples, as SimPy's does, so every
  heap comparison runs in C.  ``seq`` is unique, so a comparison never
  reaches the :class:`Event`, which defines no ordering.
* Cancellation is O(1): a cancelled event stays in the heap but is skipped
  when popped (the standard "lazy deletion" idiom; heapq has no remove).
  When cancelled entries outnumber live ones the heap is compacted in
  place, so heavy cancel/reschedule churn cannot grow the queue without
  bound.
* The engine is intentionally simple -- no coroutine processes.  Callers
  schedule callbacks; recurring behaviours reschedule themselves.  This keeps
  stack traces flat and state explicit, which matters when debugging MAC
  interactions.
"""

from __future__ import annotations

import heapq
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs import runtime as _obs_runtime
from repro.obs.profile import callback_site


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule`.

    Attributes:
        time: absolute simulation time (seconds) at which the event fires.
        callback: zero-argument callable invoked at ``time``.
    """

    __slots__ = ("time", "seq", "callback", "_cancelled", "_tally")

    def __init__(self, time: float, seq: int, callback: Callable[[], None]) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self._cancelled = False
        # While the event sits in a simulator's queue this holds the
        # simulator's cancelled-entry counter (a one-element list); it is
        # detached on pop so late cancels of already-fired events don't
        # skew the count.
        self._tally: Optional[List[int]] = None

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if not self._cancelled:
            self._cancelled = True
            if self._tally is not None:
                self._tally[0] += 1

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._cancelled

    def __repr__(self) -> str:
        # The queue detaches ``_tally`` when it pops an event, so a live
        # event without one has fired.
        if self._cancelled:
            state = "cancelled"
        elif self._tally is None:
            state = "fired"
        else:
            state = "pending"
        return (
            f"Event(t={self.time:.6f}, seq={self.seq}, {state}, "
            f"cb={callback_site(self.callback)})"
        )


class _PeriodicCallback:
    """The self-rescheduling wrapper behind :meth:`Simulator.schedule_every`.

    A class (rather than a closure) so checkpoints can serialize a pending
    periodic event as ``(interval, inner-callback)`` and rebuild it on
    restore -- closures have no stable identity across processes.

    The instance-level ``__qualname__`` keeps :func:`callback_site` (and
    therefore traces and profiles) deterministic; without it the site name
    would fall back to ``repr`` and leak a memory address.
    """

    def __init__(
        self, sim: "Simulator", interval: float, callback: Callable[[], None]
    ) -> None:
        self.sim = sim
        self.interval = interval
        self.callback = callback
        self.__qualname__ = f"periodic({callback_site(callback)})"

    def __call__(self) -> None:
        self.callback()
        self.sim.schedule(self.interval, self)


class Simulator:
    """Event queue with a virtual clock.

    Typical use::

        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.run(until=10.0)

    When a telemetry sink is active at construction time (see
    ``repro.obs``), the simulator counts scheduled/fired/cancelled
    events, attributes per-callback wall-time to the profiler, and --
    when tracing is enabled -- emits a sim-time trace record for every
    event lifecycle transition.  With no sink active (the default) the
    run loop is the original tight loop.
    """

    #: Queues smaller than this are never compacted (heapify overhead is
    #: not worth it; also keeps the behaviour trivial for tiny tests).
    COMPACTION_MIN_SIZE = 64

    def __init__(self) -> None:
        # Heap of ``(time, seq, event)``.  The list object itself is never
        # replaced (compaction and restore rewrite it in place), so the run
        # loops may hold it in a local.
        self._queue: List[Tuple[float, int, Event]] = []
        self._next_seq = 0
        self._now = 0.0
        self._running = False
        self._cancelled_in_queue = [0]
        # Captured once: instrumentation must not appear mid-run, or two
        # otherwise-identical simulations could diverge in queue state.
        self._telemetry = _obs_runtime.active()

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Args:
            delay: non-negative offset from the current time.
            callback: zero-argument callable.

        Returns:
            The :class:`Event`, which may be cancelled.

        Raises:
            ValueError: if ``delay`` is negative (scheduling into the past
                would silently reorder causality) or NaN (NaN compares
                false against everything, which would corrupt the heap
                invariant and make events fire in arbitrary order).
        """
        # `not (delay >= 0)` also catches NaN, which `delay < 0` lets through.
        if not (delay >= 0.0):
            if delay != delay:
                raise ValueError(
                    "cannot schedule at a NaN delay (NaN breaks heap ordering)"
                )
            raise ValueError(f"cannot schedule into the past (delay={delay!r})")
        seq = self._next_seq
        self._next_seq = seq + 1
        time = self._now + delay
        event = Event(time, seq, callback)
        event._tally = self._cancelled_in_queue
        heapq.heappush(self._queue, (time, seq, event))
        self._maybe_compact()
        tel = self._telemetry
        if tel is not None:
            tel.inc("sim.events_scheduled")
            if tel.tracer is not None:
                tel.event(
                    "sim.schedule",
                    cat="sim",
                    t=self._now,
                    args={
                        "seq": event.seq,
                        "fire_at": event.time,
                        "cb": callback_site(callback),
                    },
                )
        return event

    def _maybe_compact(self) -> None:
        """Drop cancelled entries once they outnumber live ones (amortised O(1))."""
        if (
            len(self._queue) >= self.COMPACTION_MIN_SIZE
            and 2 * self._cancelled_in_queue[0] > len(self._queue)
        ):
            survivors = []
            dropped = 0
            for entry in self._queue:
                event = entry[2]
                if event._cancelled:
                    event._tally = None
                    dropped += 1
                else:
                    survivors.append(entry)
            self._queue[:] = survivors
            heapq.heapify(self._queue)
            self._cancelled_in_queue[0] = 0
            tel = self._telemetry
            if tel is not None and dropped:
                tel.inc("sim.events_cancelled", dropped)

    def _pop_event(self) -> Event:
        """Pop the earliest event, maintaining the cancelled-entry count."""
        event = heapq.heappop(self._queue)[2]
        if event._cancelled:
            self._cancelled_in_queue[0] -= 1
        event._tally = None
        return event

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute time ``time`` (>= now)."""
        return self.schedule(time - self._now, callback)

    def schedule_every(
        self,
        interval: float,
        callback: Callable[[], None],
        start_delay: Optional[float] = None,
    ) -> Event:
        """Schedule ``callback`` every ``interval`` seconds, indefinitely.

        Returns the *first* event; cancelling it before it fires stops the
        chain.  To stop later, have the callback raise or track state -- or
        use :meth:`schedule` directly and reschedule manually.

        Raises:
            ValueError: if ``interval`` is not positive.
        """
        if interval <= 0.0:
            raise ValueError(f"interval must be > 0, got {interval!r}")

        first_delay = interval if start_delay is None else start_delay
        return self.schedule(first_delay, _PeriodicCallback(self, interval, callback))

    def run(self, until: float) -> None:
        """Advance the clock, firing events, until time ``until``.

        Events scheduled exactly at ``until`` do fire.  The clock always ends
        at ``until`` even if the queue drains early, so back-to-back ``run``
        calls observe a continuous timeline.

        Raises:
            ValueError: if ``until`` is before the current time.
            RuntimeError: if called re-entrantly from an event callback.
        """
        if until < self._now:
            raise ValueError(f"cannot run backwards: now={self._now}, until={until}")
        if self._running:
            raise RuntimeError("Simulator.run is not re-entrant")
        self._running = True
        try:
            self._drain(until)
            self._now = until
        finally:
            self._running = False

    def run_until_idle(self, max_time: float = float("inf")) -> None:
        """Run until the queue is empty or ``max_time`` is reached.

        With a finite ``max_time`` the clock always ends at ``max_time``
        (exactly like :meth:`run`), even if the queue drains early, so a
        follow-up ``run(until=...)`` observes a continuous timeline.  With
        the default unbounded ``max_time`` the clock stops at the last
        fired event (there is no instant to advance to).
        """
        if self._running:
            raise RuntimeError("Simulator.run is not re-entrant")
        self._running = True
        try:
            self._drain(max_time)
            if max_time != float("inf"):
                self._now = max(self._now, max_time)
        finally:
            self._running = False

    def _drain(self, until: float) -> None:
        """Fire every live event due at or before ``until``, in heap order."""
        queue = self._queue
        if self._telemetry is None:
            # The tight loop: zero telemetry overhead.
            pop = heapq.heappop
            tally = self._cancelled_in_queue
            while queue and queue[0][0] <= until:
                event = pop(queue)[2]
                event._tally = None
                if event._cancelled:
                    tally[0] -= 1
                    continue
                self._now = event.time
                event.callback()
        else:
            while queue and queue[0][0] <= until:
                event = self._pop_event()
                if event._cancelled:
                    self._telemetry.inc("sim.events_cancelled")
                    continue
                self._now = event.time
                self._fire_instrumented(event)

    def _fire_instrumented(self, event: Event) -> None:
        """Fire one event under telemetry: count, profile, trace.

        Wall-time goes to the profiler keyed by the callback's qualified
        name; the trace record (when tracing) carries sim-time as ``t``
        and the wall measurement in the strippable ``wall_*`` fields.
        """
        tel = self._telemetry
        tel.set_time(event.time)
        tel.inc("sim.events_fired")
        site = callback_site(event.callback)
        wall0 = perf_counter_ns()
        event.callback()
        wall1 = perf_counter_ns()
        if tel.profiler is not None:
            tel.profiler.record(site, (wall1 - wall0) / 1e9)
        if tel.tracer is not None:
            tel.tracer.complete(
                site,
                "sim",
                event.time,
                0.0,
                args={"seq": event.seq},
                wall_ns=wall0,
                wall_dur_ns=wall1 - wall0,
            )

    def step(self) -> Optional[Event]:
        """Fire exactly one live event and return it (``None`` if idle).

        The lockstep primitive behind ``repro.cli replay-diff``: two
        restored simulators stepped together can be hash-compared after
        every single event to find the first divergence.
        """
        if self._running:
            raise RuntimeError("Simulator.step is not re-entrant")
        self._running = True
        try:
            while self._queue:
                event = self._pop_event()
                if event.cancelled:
                    if self._telemetry is not None:
                        self._telemetry.inc("sim.events_cancelled")
                    continue
                self._now = event.time
                if self._telemetry is None:
                    event.callback()
                else:
                    self._fire_instrumented(event)
                return event
            return None
        finally:
            self._running = False

    def state_dict(self, encode_callback: Callable[[Callable], Any]) -> Dict[str, Any]:
        """Serializable engine state: clock, sequence counter, live events.

        ``encode_callback`` (normally ``CheckpointRegistry.encode_callback``)
        turns each pending callback into a token; cancelled heap entries
        are dropped, which is safe because cancellation is observable only
        through the :class:`Event` handle -- and handles are re-linked from
        live events only (see ``CheckpointRegistry.restore``).
        """
        events = []
        for time, seq, event in sorted(self._queue):
            if event._cancelled:
                continue
            events.append([time, seq, encode_callback(event.callback)])
        return {"now": self._now, "next_seq": self._next_seq, "events": events}

    def load_state(
        self,
        state: Dict[str, Any],
        decode_callback: Callable[[Any], Callable[[], None]],
    ) -> Dict[int, Event]:
        """Overwrite clock and heap from :meth:`state_dict` output.

        Returns a ``seq -> Event`` lookup so subsystems that stored event
        handles (grace timers, pending starts) can re-bind them.
        """
        self._now = state["now"]
        self._next_seq = state["next_seq"]
        self._cancelled_in_queue[0] = 0
        entries = []
        lookup: Dict[int, Event] = {}
        for time, seq, token in state["events"]:
            event = Event(time, seq, decode_callback(token))
            event._tally = self._cancelled_in_queue
            entries.append((time, seq, event))
            lookup[seq] = event
        heapq.heapify(entries)
        self._queue[:] = entries
        return lookup

    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return len(self._queue) - self._cancelled_in_queue[0]

    def queue_size(self) -> int:
        """Raw heap size including lazily-deleted (cancelled) entries."""
        return len(self._queue)
