"""Event-driven CSMA/CA (DCF) with RTS/CTS, NAV and physical collisions.

The simulator reproduces the MAC behaviours the paper blames for Wi-Fi's
poor showing on long links (Sections 3.2, 6.3.4):

* **Hidden terminals** -- carrier sense is per-node and physical: node B
  defers for node A only if A's signal reaches B above the CS threshold.
  On 1 km cells many contenders cannot hear each other, so their frames
  collide at the receiver (SINR test at frame end).
* **Exposed terminals** -- a node that *can* hear a transmitter defers even
  when its own receiver would be fine, wasting airtime.
* **Acquisition overhead** -- every TXOP pays DIFS + backoff + RTS/CTS/ACK
  at the (bandwidth-proportional) base rate, a fixed tax that looms large
  on a 6 MHz TVWS channel.
* **Same-slot collisions** -- carrier-sense notifications propagate with a
  small detection delay, so two nodes whose backoff expires in the same
  slot both transmit, exactly as in real DCF.

Only access points contend (the evaluation is downlink, as in the paper);
clients participate as receivers and as CTS/ACK transmitters, which is what
makes the RTS/CTS protection physically meaningful.
"""

from __future__ import annotations

import dataclasses
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.sim.engine import Event, Simulator
from repro.utils.dbmath import dbm_to_watt, linear_to_db, thermal_noise_dbm
from repro.wifi.frames import FrameTimings
from repro.wifi.rates import BASE_MCS, WifiMcs, data_rate_bps


@dataclass(frozen=True)
class Station:
    """Any radio endpoint on the Wi-Fi channel (AP or client)."""

    station_id: int
    x: float
    y: float
    tx_power_dbm: float


#: Preamble-detect SNR: a frame is carrier-sensed when received at this many
#: dB above the thermal noise floor.  Anchors the classic -82 dBm threshold
#: (20 MHz) and scales it correctly to 6 MHz TVWS channels.
CS_DETECT_SNR_DB = 19.0


@dataclass
class DcfParams:
    """DCF configuration.

    Attributes:
        timings: channel timing constants.
        cs_threshold_dbm: carrier-sense (preamble-detect) threshold.  When
            ``None`` it is derived from the channel noise floor as
            ``noise + CS_DETECT_SNR_DB`` (-82 dBm on 20 MHz).
        cs_delay_s: signal-detection latency; backoffs expiring within this
            window of a new transmission proceed (the collision window).
        retry_limit: MAC retries before a frame is dropped.
        rts_cts: protect data with RTS/CTS (the paper enables it: "Wi-Fi
            performance is better with RTS/CTS").
    """

    timings: FrameTimings
    cs_threshold_dbm: Optional[float] = None
    cs_delay_s: float = 4e-6
    retry_limit: int = 7
    rts_cts: bool = True


#: SINR window over which A-MPDU delivery degrades from all to nothing.
#: Individual MPDUs fail progressively as the SINR slides below the MCS
#: operating point; 6 dB below it the whole aggregate is lost.
MPDU_LOSS_WINDOW_DB = 6.0


#: Slack on the interference window's lower edge.  It absorbs the rounding
#: of ``start + duration`` so a frame left out of the scan provably ends at
#: or before the evaluated frame starts, at any plausible simulated time.
_WINDOW_SLACK_S = 1e-6


def mpdu_delivery_fraction(sinr_db: float, required_snr_db: float) -> float:
    """Fraction of an A-MPDU's MPDUs decoded at ``sinr_db``.

    1.0 at or above the MCS operating point, 0.0 once the SINR is
    ``MPDU_LOSS_WINDOW_DB`` below it, linear in between.  This is the
    aggregate-level view of per-MPDU error rates under block-ack.
    """
    if sinr_db >= required_snr_db:
        return 1.0
    deficit = required_snr_db - sinr_db
    if deficit >= MPDU_LOSS_WINDOW_DB:
        return 0.0
    return 1.0 - deficit / MPDU_LOSS_WINDOW_DB


@dataclass(eq=False)
class Transmission:
    """One frame on the air.

    Compared by identity: two frames with equal fields are still two
    frames, and ``WifiMedium`` removes a finished one from the air by
    identity.
    """

    src: int
    dst: Optional[int]
    kind: str  # "rts", "cts", "data", "ack"
    start: float
    end: float
    bits: float = 0.0

    def overlap_fraction(self, other: "Transmission") -> float:
        """Fraction of *this* transmission overlapped by ``other``."""
        overlap = min(self.end, other.end) - max(self.start, other.start)
        duration = self.end - self.start
        if duration <= 0.0:
            return 0.0
        return max(0.0, overlap / duration)


class WifiMedium:
    """The shared channel: propagation, carrier sense and interference.

    Args:
        sim: the discrete-event simulator driving the network.
        loss_db: propagation loss callback ``(station_a, station_b) -> dB``.
        bandwidth_hz: channel bandwidth (noise floor + rate scaling).
        params: DCF parameters shared by all nodes.  The medium keeps a
            private copy with the carrier-sense threshold resolved, so the
            caller's object is never written to.
        noise_figure_db: receiver noise figure.
    """

    def __init__(
        self,
        sim: Simulator,
        loss_db,
        bandwidth_hz: float,
        params: DcfParams,
        noise_figure_db: float = 7.0,
    ) -> None:
        self.sim = sim
        self.bandwidth_hz = bandwidth_hz
        self.noise_dbm = thermal_noise_dbm(bandwidth_hz, noise_figure_db)
        if params.cs_threshold_dbm is None:
            params = dataclasses.replace(
                params, cs_threshold_dbm=self.noise_dbm + CS_DETECT_SNR_DB
            )
        self.params = params
        self._loss_db = loss_db
        self._noise_w = dbm_to_watt(self.noise_dbm)
        self._stations: Dict[int, Station] = {}
        self._nodes: List["CsmaNode"] = []
        self._rx_cache: Dict[Tuple[int, int], float] = {}
        self._rx_w_cache: Dict[Tuple[int, int], float] = {}
        # Carrier-sensing nodes per talker, in ``_nodes`` order.
        self._listeners: Dict[int, List["CsmaNode"]] = {}
        self._active: List[Transmission] = []
        # Active frames whose busy notification has not fired yet.  A frame
        # leaves when the notification fires (its listeners' ``sensed``
        # counts then include it) or when it finishes first.
        self._pending: List[Transmission] = []
        # Sorted by ``start``: frames are appended at ``sim.now``.
        # ``_starts`` holds their start times, index for index.
        self._history: List[Transmission] = []
        self._starts: List[float] = []
        self._max_span = 0.0

    # -- Setup ---------------------------------------------------------------

    def add_station(self, station: Station) -> None:
        """Register a radio endpoint.

        Raises:
            ValueError: on duplicate station ids.
        """
        if station.station_id in self._stations:
            raise ValueError(f"duplicate station id {station.station_id}")
        self._stations[station.station_id] = station

    def attach_node(self, node: "CsmaNode") -> None:
        """Register a contending node for busy/idle notifications.

        The node senses only frames that start after it attaches.
        """
        self._nodes.append(node)
        self._listeners.clear()

    def station(self, station_id: int) -> Station:
        """Look up a station."""
        return self._stations[station_id]

    # -- Radio ----------------------------------------------------------------

    def rx_dbm(self, src_id: int, dst_id: int) -> float:
        """Received power at ``dst`` from ``src`` (cached)."""
        key = (src_id, dst_id)
        if key not in self._rx_cache:
            src = self._stations[src_id]
            dst = self._stations[dst_id]
            self._rx_cache[key] = src.tx_power_dbm - self._loss_db(src, dst)
        return self._rx_cache[key]

    def _rx_watt(self, src_id: int, dst_id: int) -> float:
        """:meth:`rx_dbm` in watts (cached)."""
        key = (src_id, dst_id)
        watt = self._rx_w_cache.get(key)
        if watt is None:
            watt = self._rx_w_cache[key] = dbm_to_watt(self.rx_dbm(src_id, dst_id))
        return watt

    def hears(self, listener_station_id: int, talker_station_id: int) -> bool:
        """Whether ``listener`` carrier-senses ``talker``'s transmissions."""
        return (
            self.rx_dbm(talker_station_id, listener_station_id)
            >= self.params.cs_threshold_dbm
        )

    def _listeners_of(self, talker_station_id: int) -> List["CsmaNode"]:
        """Nodes that carrier-sense ``talker``, in ``_nodes`` order (cached)."""
        listeners = self._listeners.get(talker_station_id)
        if listeners is None:
            listeners = self._listeners[talker_station_id] = [
                node
                for node in self._nodes
                if node.station.station_id != talker_station_id
                and self.hears(node.station.station_id, talker_station_id)
            ]
        return listeners

    # -- Transmission lifecycle -------------------------------------------------

    def transmit(
        self,
        src_id: int,
        duration: float,
        kind: str,
        dst_id: Optional[int] = None,
        bits: float = 0.0,
    ) -> Transmission:
        """Put a frame on the air; notifies carrier-sensing nodes.

        Notifications arrive ``cs_delay_s`` after the frame starts, opening
        the same-slot collision window of real DCF.  One event per frame
        notifies every listener in ``_nodes`` order.

        Each listener's ``sensed`` count includes the frame from its busy
        notification until it finishes; until the notification fires the
        frame waits in ``_pending``, where :meth:`busy_for` applies the
        detection rule itself.
        """
        tx = Transmission(
            src=src_id,
            dst=dst_id,
            kind=kind,
            start=self.sim.now,
            end=self.sim.now + duration,
            bits=bits,
        )
        self._active.append(tx)
        self._history.append(tx)
        self._starts.append(tx.start)
        self._max_span = max(self._max_span, tx.end - tx.start)
        pending = self._pending

        listeners = self._listeners_of(src_id)
        if listeners:
            pending.append(tx)

            def notify_busy() -> None:
                # A frame shorter than ``cs_delay_s`` is over before it is
                # detected: its idle hint has already run, so a busy
                # notification now would pause backoffs nothing resumes.
                if tx not in pending:
                    return
                pending.remove(tx)
                for node in listeners:
                    node.sensed += 1
                for node in listeners:
                    node.on_medium_busy()

            self.sim.schedule(self.params.cs_delay_s, notify_busy)

        def finish() -> None:
            self._active.remove(tx)
            if tx in pending:
                pending.remove(tx)
            else:
                for node in listeners:
                    node.sensed -= 1
            for node in listeners:
                node.on_medium_idle_hint()

        self.sim.schedule(duration, finish)
        return tx

    def sinr_db(self, tx: Transmission) -> float:
        """SINR of ``tx`` at its destination, interference overlap-weighted.

        Evaluated at frame end, using the history so interferers that
        already finished still count for the portion they overlapped.

        Only the history's tail is scanned: no frame lasts longer than
        ``_max_span``, so one that starts more than that before ``tx`` ends
        before ``tx`` starts and would contribute nothing.  The history is
        sorted by start, so the tail begins at a bisection of ``_starts``.
        In the tail, frames outside ``tx``'s interval are dropped before any
        arithmetic, the rest get :meth:`Transmission.overlap_fraction`'s
        arithmetic inline, and the terms are summed in history order, so
        the result is bit-identical to a scan of the whole history.
        """
        src, dst = tx.src, tx.dst
        if dst is None:
            raise ValueError("transmission has no destination to evaluate")
        signal_w = self._rx_watt(src, dst)
        start, end = tx.start, tx.end
        duration = end - start
        if duration <= 0.0:
            # overlap_fraction is 0 against every frame: noise only.
            return linear_to_db(signal_w / self._noise_w)
        first = bisect_left(
            self._starts, start - self._max_span - _WINDOW_SLACK_S
        )
        interference_w = 0.0
        rx_w = self._rx_w_cache
        for other in self._history[first:]:
            other_start, other_end = other.start, other.end
            # A frame that starts at or after ``end``, or ends at or before
            # ``start``, overlaps by <= 0, so overlap_fraction gives 0.
            if other_start >= end or other_end <= start:
                continue
            if other.src == src or other.src == dst:
                continue  # Own frames (``tx`` too) and the destination's.
            # Transmission.overlap_fraction, inlined: the comparisons pick
            # the operands ``min``/``max`` would, and past the filter above
            # the overlap is >= 0, so ``max(0.0, ...)`` is the identity.
            fraction = (
                (other_end if other_end < end else end)
                - (other_start if other_start > start else start)
            ) / duration
            if fraction <= 0.0:
                continue
            watt = rx_w.get((other.src, dst))
            if watt is None:
                watt = self._rx_watt(other.src, dst)
            interference_w += fraction * watt
        return linear_to_db(signal_w / (self._noise_w + interference_w))

    def set_nav(self, around_station_id: int, until: float) -> None:
        """Set the NAV of every node that can hear ``around_station_id``."""
        for node in self._listeners_of(around_station_id):
            node.set_nav(until)

    def busy_for(self, node: "CsmaNode") -> bool:
        """Whether ``node`` currently senses the medium busy (incl. NAV).

        A frame is sensed once it started at least ``cs_delay_s`` ago.
        ``node.sensed`` counts the active frames whose busy notification has
        fired; a pending frame can already be detectable, at the detection
        instant itself before its notification runs, so the short pending
        list is checked with the rule directly.
        """
        now = self.sim.now
        if node.nav_until > now or node.sensed:
            return True
        station_id = node.station.station_id
        cs_delay_s = self.params.cs_delay_s
        for tx in self._pending:
            if (
                tx.src != station_id
                and tx.start + cs_delay_s <= now
                and self.hears(station_id, tx.src)
            ):
                return True
        return False

    def prune_history(self, horizon_s: float = 0.1) -> None:
        """Drop finished transmissions older than ``horizon_s``.

        Keeps the interference bookkeeping O(recent frames); called
        periodically by the network driver.
        """
        cutoff = self.sim.now - horizon_s
        self._history = [t for t in self._history if t.end >= cutoff]
        self._starts = [t.start for t in self._history]


@dataclass
class LinkStats:
    """Delivery accounting for one AP -> client link."""

    bits_delivered: float = 0.0
    data_attempts: int = 0
    data_failures: int = 0
    drops: int = 0


class CsmaNode:
    """One contending access point running DCF.

    Args:
        sim: shared simulator.
        medium: the channel.
        station: this node's radio endpoint.
        params: DCF parameters.
        rng: backoff randomness.
    """

    def __init__(
        self,
        sim: Simulator,
        medium: WifiMedium,
        station: Station,
        params: DcfParams,
        rng: np.random.Generator,
    ) -> None:
        self.sim = sim
        self.medium = medium
        self.station = station
        self.params = params
        self.rng = rng
        self.nav_until = 0.0
        # Active frames this node senses whose busy notification has fired;
        # kept by ``medium`` (see WifiMedium.busy_for).
        self.sensed = 0
        self.stats: Dict[int, LinkStats] = {}

        # Per-destination link configuration (MCS fixed by clean SNR).
        self._dest_mcs: Dict[int, WifiMcs] = {}
        self._queue_bits: Dict[int, float] = {}
        self._rr_order: List[int] = []
        self._rr_cursor = 0

        self._cw = params.timings.cw_min
        self._retry = 0
        self._backoff_slots = self._draw_backoff()
        self._attempt_event: Optional[Event] = None
        self._countdown_started: Optional[float] = None
        self._in_txop = False
        self._current_dest: Optional[int] = None

        medium.attach_node(self)

    # -- Traffic interface ----------------------------------------------------

    def add_destination(self, station_id: int, mcs: WifiMcs) -> None:
        """Register a client reachable at ``mcs`` (ideal rate adaptation)."""
        self._dest_mcs[station_id] = mcs
        self._queue_bits.setdefault(station_id, 0.0)
        if station_id not in self._rr_order:
            self._rr_order.append(station_id)
        self.stats.setdefault(station_id, LinkStats())

    def enqueue(self, station_id: int, bits: float) -> None:
        """Queue downlink traffic for a client.

        Raises:
            KeyError: for an unregistered destination.
        """
        if station_id not in self._dest_mcs:
            raise KeyError(f"destination {station_id} not registered")
        self._queue_bits[station_id] += bits
        self.kick()

    def queued_bits(self, station_id: int) -> float:
        """Bits currently queued for a client."""
        return self._queue_bits.get(station_id, 0.0)

    def kick(self) -> None:
        """(Re)start channel access if there is traffic and none pending."""
        if self._in_txop or self._attempt_event is not None:
            return
        if self._peek_destination() is None:
            return
        self._schedule_attempt()

    # -- Medium notifications -----------------------------------------------------

    def on_medium_busy(self) -> None:
        """The medium became busy for this node: pause the countdown."""
        if self._attempt_event is None:
            return
        self._consume_elapsed_slots()
        self._attempt_event.cancel()
        self._attempt_event = None
        self._countdown_started = None

    def on_medium_idle_hint(self) -> None:
        """A transmission ended; resume the countdown if now idle."""
        if self._in_txop or self._attempt_event is not None:
            return
        if self._peek_destination() is None:
            return
        if not self.medium.busy_for(self):
            self._schedule_attempt()

    def set_nav(self, until: float) -> None:
        """Virtual carrier sense: defer until ``until``."""
        if until <= self.nav_until:
            return
        self.nav_until = until
        self.on_medium_busy()
        # Wake up when the NAV expires.
        self.sim.schedule_at(until, self.on_medium_idle_hint)

    # -- Backoff ----------------------------------------------------------------

    def _draw_backoff(self) -> int:
        return int(self.rng.integers(0, self._cw + 1))

    def _consume_elapsed_slots(self) -> None:
        if self._countdown_started is None:
            return
        slot = self.params.timings.slot_s
        difs = self.params.timings.difs_s
        elapsed = self.sim.now - self._countdown_started - difs
        if elapsed > 0.0:
            consumed = min(self._backoff_slots, int(elapsed / slot))
            self._backoff_slots -= consumed

    def _schedule_attempt(self) -> None:
        if self.medium.busy_for(self):
            return  # An idle hint or NAV expiry will retry.
        timings = self.params.timings
        delay = timings.difs_s + self._backoff_slots * timings.slot_s
        # Quantise onto the global slot grid so contenders that resumed at
        # the same idle transition can genuinely collide.
        fire_at = self.sim.now + delay
        fire_at = math.ceil(fire_at / timings.slot_s) * timings.slot_s
        self._countdown_started = self.sim.now
        self._attempt_event = self.sim.schedule_at(fire_at, self._fire_attempt)

    def _fire_attempt(self) -> None:
        self._attempt_event = None
        self._countdown_started = None
        dest = self._take_destination()
        if dest is None:
            return
        self._start_txop(dest)

    def _peek_destination(self) -> Optional[int]:
        """Next backlogged destination, WITHOUT advancing the cursor."""
        if not self._rr_order:
            return None
        for step in range(len(self._rr_order)):
            candidate = self._rr_order[(self._rr_cursor + step) % len(self._rr_order)]
            if self._queue_bits.get(candidate, 0.0) > 0.0:
                return candidate
        return None

    def _take_destination(self) -> Optional[int]:
        """Like :meth:`_peek_destination` but consumes the turn."""
        if not self._rr_order:
            return None
        for step in range(len(self._rr_order)):
            index = (self._rr_cursor + step) % len(self._rr_order)
            candidate = self._rr_order[index]
            if self._queue_bits.get(candidate, 0.0) > 0.0:
                self._rr_cursor = (index + 1) % len(self._rr_order)
                return candidate
        return None

    # -- TXOP state machine ---------------------------------------------------------

    def _start_txop(self, dest: int) -> None:
        self._in_txop = True
        self._current_dest = dest
        timings = self.params.timings
        if self.params.rts_cts:
            rts = self.medium.transmit(
                self.station.station_id, timings.rts_s, "rts", dst_id=dest
            )
            self.sim.schedule(timings.rts_s, lambda: self._rts_done(rts))
        else:
            self._send_data(dest)

    def _rts_done(self, rts: Transmission) -> None:
        timings = self.params.timings
        sinr = self.medium.sinr_db(rts)
        if sinr < BASE_MCS.min_snr_db:
            self._txop_failed()
            return
        # CTS after SIFS; nodes around the *client* defer for the rest of
        # the exchange (this is what protects against hidden terminals).
        dest = rts.dst
        mcs = self._dest_mcs[dest]
        rate = data_rate_bps(mcs, self.medium.bandwidth_hz)
        agg_bits = self._aggregate_bits(dest, rate)
        data_s = timings.data_frame_s(int(agg_bits / 8.0) + 1, rate)
        exchange_end = (
            self.sim.now
            + timings.sifs_s
            + timings.cts_s
            + timings.sifs_s
            + data_s
            + timings.sifs_s
            + timings.ack_s
        )

        def send_cts() -> None:
            self.medium.transmit(dest, timings.cts_s, "cts", dst_id=None)
            self.medium.set_nav(dest, exchange_end)
            self.sim.schedule(
                timings.cts_s + timings.sifs_s, lambda: self._send_data(dest)
            )

        self.sim.schedule(timings.sifs_s, send_cts)

    def _aggregate_bits(self, dest: int, rate_bps: float) -> float:
        agg_bytes = self.params.timings.aggregate_bytes(rate_bps)
        return min(self._queue_bits[dest], agg_bytes * 8.0)

    def _send_data(self, dest: int) -> None:
        timings = self.params.timings
        mcs = self._dest_mcs[dest]
        rate = data_rate_bps(mcs, self.medium.bandwidth_hz)
        bits = self._aggregate_bits(dest, rate)
        if bits <= 0.0:
            self._txop_complete(dest, delivered_bits=0.0)
            return
        duration = timings.data_frame_s(int(bits / 8.0) + 1, rate)
        data = self.medium.transmit(
            self.station.station_id, duration, "data", dst_id=dest, bits=bits
        )
        self.stats[dest].data_attempts += 1

        def data_done() -> None:
            sinr = self.medium.sinr_db(data)
            delivered_fraction = mpdu_delivery_fraction(sinr, mcs.min_snr_db)
            if delivered_fraction > 0.0:
                # Some MPDUs decoded: the client returns a block-ACK after
                # SIFS and the failed MPDUs simply stay queued for retry.
                self.sim.schedule(
                    timings.sifs_s,
                    lambda: self.medium.transmit(dest, timings.ack_s, "ack"),
                )
                self.sim.schedule(
                    timings.sifs_s + timings.ack_s,
                    lambda: self._txop_complete(dest, bits * delivered_fraction),
                )
                if delivered_fraction < 1.0:
                    self.stats[dest].data_failures += 1
            else:
                # Not even the PLCP survived: no block-ACK, full MAC retry.
                self.stats[dest].data_failures += 1
                self._txop_failed()

        self.sim.schedule(duration, data_done)

    #: Optional hook invoked as ``delivery_callback(dest, bits)`` after each
    #: successful data delivery (used for flow-completion tracking).
    delivery_callback = None

    def _txop_complete(self, dest: int, delivered_bits: float) -> None:
        if delivered_bits > 0.0:
            self._queue_bits[dest] -= delivered_bits
            self.stats[dest].bits_delivered += delivered_bits
            if self.delivery_callback is not None:
                self.delivery_callback(dest, delivered_bits)
        self._retry = 0
        self._cw = self.params.timings.cw_min
        self._backoff_slots = self._draw_backoff()
        self._in_txop = False
        self.kick()

    def _txop_failed(self) -> None:
        self._retry += 1
        dest = self._current_dest
        if self._retry > self.params.retry_limit:
            # Drop the head aggregate; with saturated queues this models
            # the MAC giving up on this frame.
            mcs = self._dest_mcs[dest]
            rate = data_rate_bps(mcs, self.medium.bandwidth_hz)
            dropped = self._aggregate_bits(dest, rate)
            self._queue_bits[dest] = max(0.0, self._queue_bits[dest] - dropped)
            self.stats[dest].drops += 1
            self._retry = 0
            self._cw = self.params.timings.cw_min
        else:
            self._cw = min(2 * self._cw + 1, self.params.timings.cw_max)
        self._backoff_slots = self._draw_backoff()
        self._in_txop = False
        self.kick()
