"""Spatial shard engine: city-scale epochs across worker processes.

The incremental epoch (see ``docs/SIMULATION.md``) made per-epoch cost
proportional to activity, but the map was still one global process.  This
module partitions the map into rectangular spatial shards (one
:func:`repro.sim.topology.grid_partition` tile per worker) and runs each
shard's epoch in its own worker, while keeping the merged result **bitwise
identical** to the single-process run.  Sharding is a pure execution
strategy, never a semantics change.

Why bit-identity is even possible
---------------------------------

Each worker holds the *full* replicated topology but owns only the APs of
its tile and the clients attached to them (see ``shard_ap_ids`` on
:class:`repro.lte.network.LteNetworkSimulator`):

* **Downlink interference** at an owned client comes from the client's own
  gain-matrix row, which spans *every* AP on the map -- owned and foreign
  alike.  The "halo" is therefore implicit and exact: any foreign AP
  within the ``cull_loss_db`` horizon contributes its real received power,
  and anything beyond the horizon is the exact-``0.0`` watt no-op the
  culling contract already guarantees (adding ``0.0`` is an IEEE-754
  identity).  No power needs to cross shard boundaries at all.
* **PRACH contention** (``NP_i`` in the share formula ``S_i = N_i * S /
  NP_i``) is the one genuinely global quantity: an AP hears preambles from
  *active* clients of other shards.  Each worker computes partial integer
  counts over its owned clients (foreign rows of its preamble matrix are
  all-``False``), and the epoch barrier sums the disjoint partials --
  integer addition, no rounding -- and broadcasts the exact total.
* **RNG draws**: the unsharded epoch draws from the shared "rlf" and
  "cqi-detector" streams in topology AP order.  Workers fast-forward the
  streams over foreign APs with batched discards (NumPy's batched
  ``random(n)`` advances PCG64 exactly like ``n`` scalar draws), so every
  owned AP draws the same doubles at the same stream offsets as the
  unsharded run.

One op table, two transports, one barrier
-----------------------------------------

Every worker op is dispatched in one place, :data:`_OPS`, by
:class:`_ShardServer`.  Both transports serve it: :class:`_ProcessWorker`
pickles ops over a pipe to :func:`_worker_main`, :class:`_InlineWorker`
calls the server directly.  The phase methods sit once on their common
base.  :class:`ShardedNetwork` runs the only barrier (per epoch):

1. parent pushes the epoch RNG stream states and the decision to every
   worker; each replies with its partial PRACH counts,
2. parent reduces the partials and broadcasts the exact total,
3. workers run their epoch slice; the parent merges the per-shard results
   (disjoint key sets) and adopts the synchronized stream states after
   asserting all workers ended at identical RNG offsets.

Cross-shard handover is a row migration at the epoch barrier: the old
owner exports the client's cross-epoch max-CQI row, every replica applies
the re-attach (disown / adopt on the two owners, topology-only elsewhere),
and the new owner imports the row.

Failures (see ``docs/ROBUSTNESS.md``)
-------------------------------------

Every worker failure is one :class:`_WorkerFailure` with one handler,
``ShardedNetwork._failed``.  An event op that raises is deferred and
surfaces at the next replying op, as one ``worker-op-error`` event per
``(shard, signature)``.  Unsupervised, the failure is raised as
``RuntimeError``.  :class:`ShardSupervisor` recovers it instead: replies
are read against per-phase deadlines, and a failed worker is respawned
from the last merged shard-agnostic snapshot plus a bounded journal of
the event ops and epoch barriers since -- so the recovered run digest
stays bit-identical to a fault-free run.  A per-worker retry budget with
exponential backoff bounds the recovery cost; exhausting it folds the
shard into inline execution (slower, still bit-identical) with a
structured warning instead of aborting the run.  :class:`ChaosPolicy`
schedules deterministic fault injection (SIGKILL, SIGSTOP stalls,
truncated replies, latency spikes) off epoch indices for the chaos test
net (``tests/test_shard_supervision.py``,
``tests/test_shard_telemetry.py``).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
import time
import traceback
import warnings
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.lte.network import (
    ApObservation,
    EpochResult,
    LteNetworkSimulator,
    SubchannelPolicy,
)
from repro.obs import runtime as _obs_runtime
from repro.obs.record import EventLog
from repro.obs.shardmerge import ShardTelemetryMerger
from repro.obs.shipping import TelemetryShipper
from repro.obs.telemetry import Telemetry
from repro.sim.checkpoint import clone_state
from repro.sim.topology import Topology, grid_partition

__all__ = [
    "CHAOS_KINDS",
    "ChaosEvent",
    "ChaosPolicy",
    "EPOCH_STREAMS",
    "ShardDegradedWarning",
    "ShardSupervisor",
    "ShardedNetwork",
    "SupervisionConfig",
    "SupervisionLog",
    "grid_partition",
]

# The only RNG streams the epoch loop draws from; they are pushed to the
# workers at every barrier and synchronized back afterwards.  Driver-side
# streams (demand, churn, policy) never enter the workers.
EPOCH_STREAMS = ("rlf", "cqi-detector")

NetFactory = Callable[[Optional[Sequence[int]]], LteNetworkSimulator]

#: Deadline for pulling a dying/closing worker's buffered telemetry.
#: Short on purpose: a hung worker must not stall recovery, and a
#: missed flush is only a telemetry loss (counted), never a state loss.
_TEL_FLUSH_DEADLINE_S = 2.0


def _worker_telemetry(tel_cfg: Optional[Dict[str, bool]]):
    """Build a worker-local (Telemetry, TelemetryShipper) pair, or Nones.

    ``tel_cfg`` is the parent's capture of *what* to record
    (``{"trace": bool, "profile": bool}``); ``None`` means telemetry is
    off and the worker must stay on the zero-allocation disabled path so
    barrier payloads remain byte-identical to an untraced run.
    """
    if not tel_cfg:
        return None, None
    tel = Telemetry(
        trace=bool(tel_cfg.get("trace")), profile=bool(tel_cfg.get("profile"))
    )
    return tel, TelemetryShipper(tel)


def _epoch_stream_states(rngs) -> Dict[str, Any]:
    return {
        name: rngs.stream(name).bit_generator.state for name in EPOCH_STREAMS
    }


def _apply_stream_states(rngs, states: Dict[str, Any]) -> None:
    for name, state in states.items():
        rngs.stream(name).bit_generator.state = state


# -- Worker side: the op table ------------------------------------------------


def _op_begin(server, epoch_index, allowed, demands_bits, rng_states):
    _apply_stream_states(server.net.rngs, rng_states)
    server.pending = (epoch_index, allowed, demands_bits)
    return server.net.prach_partial_counts(demands_bits)


def _op_commit(server, prach_total):
    epoch_index, allowed, demands_bits = server.pending
    server.pending = None
    net = server.net
    start = time.process_time()
    result = net.run_epoch(
        epoch_index, allowed, demands_bits, prach_counts=prach_total
    )
    compute_s = time.process_time() - start
    outcome = (
        result,
        _epoch_stream_states(net.rngs),
        dict(net.last_epoch_stats),
        compute_s,
    )
    if server.shipper is not None:
        # Telemetry piggybacks on the commit reply; with telemetry off the
        # wire format is byte-identical to the untraced run (digest
        # neutrality).
        outcome += (server.shipper.payload("epoch", epoch_index),)
    return outcome


#: Every worker op, keyed by name; :meth:`_ShardServer.serve` is the only
#: place that dispatches through it.
_OPS: Dict[str, Callable[..., Any]] = {
    "move": lambda s, cid, x, y: s.net.move_client(cid, x, y),
    "reattach": lambda s, cid, ap_id: s.net.reattach_client(cid, ap_id),
    "import": lambda s, cid, row: s.net.import_client_row(cid, row),
    "export": lambda s, cid: s.net.export_client_row(cid),
    "begin": _op_begin,
    "commit": _op_commit,
    "build_stats": lambda s: {
        "gain_prefill_s": getattr(s.net, "gain_prefill_s", None)
    },
    "tel_flush": lambda s: (
        s.shipper.payload("flush") if s.shipper is not None else None
    ),
    "state": lambda s: s.net.state_dict(),
    "load": lambda s, state: s.net.load_state(state),
}

#: Fire-and-forget ops: no reply, failures deferred to the next reply.
_EVENT_OPS = frozenset(("move", "reattach", "import"))

#: Signature used for event ops skipped because the shard was already
#: poisoned by an earlier failure (the state they would act on is suspect).
_SKIPPED_SIG = "skipped: op arrived after an earlier event failure"


class _ShardServer:
    """One shard simulator behind the op table, for either transport.

    ``serve(msg)`` runs one op and returns its ``("ok" | "error",
    payload)`` reply, or ``None`` for an event op.  Event ops are
    fire-and-forget so the parent can pipeline a whole inter-epoch event
    batch without a round-trip each; any exception they raise is
    deduplicated by signature (repeating identical failures only bump a
    count) and the structured report answers the next replying op, which
    every epoch barrier contains.  Once poisoned, further event ops are
    skipped -- and counted -- rather than run against suspect state.

    With ``tel_cfg`` the server keeps its own sim-clock-aware telemetry
    (``run_epoch`` advances its clock) and activates it around every op,
    so a shard records into a shard-local buffer shipped on commit
    replies -- never into the parent registry; the ``tel_flush`` op
    drains whatever is still buffered (recovery/degrade/close pulls it).
    """

    def __init__(
        self,
        net_factory: NetFactory,
        ap_ids: Sequence[int],
        tel_cfg: Optional[Dict[str, bool]] = None,
    ) -> None:
        self.tel, self.shipper = _worker_telemetry(tel_cfg)
        with self._scope():
            self.net = net_factory(list(ap_ids))
        self.pending: Optional[tuple] = None
        # signature -> [count, first full traceback]
        self.deferred: Dict[str, List[Any]] = {}

    def _scope(self):
        """Activate the worker-local telemetry for one op (or no-op)."""
        if self.tel is None:
            return nullcontext()
        return _obs_runtime.activated(self.tel)

    def serve(self, msg: tuple) -> Optional[Tuple[str, Any]]:
        op = msg[0]
        if op in _EVENT_OPS:
            if self.deferred:
                self.deferred.setdefault(_SKIPPED_SIG, [0, "(not run)"])[0] += 1
                return None
            try:
                with self._scope():
                    _OPS[op](self, *msg[1:])
            except Exception as exc:
                sig = f"{op}: {type(exc).__name__}: {exc}"
                entry = self.deferred.setdefault(sig, [0, traceback.format_exc()])
                entry[0] += 1
            return None
        if self.deferred:
            return (
                "error",
                {
                    "deferred_ops": [
                        {"signature": sig, "count": count, "traceback": tb}
                        for sig, (count, tb) in self.deferred.items()
                    ]
                },
            )
        try:
            if op not in _OPS:
                raise ValueError(f"unknown shard worker op {op!r}")
            with self._scope():
                return ("ok", _OPS[op](self, *msg[1:]))
        except Exception:
            return ("error", traceback.format_exc())


def _worker_main(
    conn,
    net_factory: NetFactory,
    ap_ids: Sequence[int],
    tel_cfg: Optional[Dict[str, bool]] = None,
) -> None:
    """Worker-process loop: recv -> serve -> send, until ``stop`` or EOF."""
    # The fork start method clones the parent's activated telemetry into
    # the child; drop it so a worker never records into (a copy of) the
    # parent registry -- the server activates its own instance per op.
    _obs_runtime.disable()
    server = _ShardServer(net_factory, ap_ids, tel_cfg)
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            return
        if msg[0] == "stop":
            conn.close()
            return
        reply = server.serve(msg)
        if reply is not None:
            conn.send(reply)


# -- Parent side: two transports on one base ----------------------------------


def _format_worker_error(payload: Any) -> str:
    """Human-readable text for a worker ``("error", payload)`` reply."""
    if isinstance(payload, dict) and "deferred_ops" in payload:
        rows = payload["deferred_ops"]
        total = sum(row["count"] for row in rows)
        lines = [
            f"{total} deferred shard event failure(s), "
            f"{len(rows)} distinct:"
        ]
        for row in rows:
            lines.append(f"  [x{row['count']}] {row['signature']}")
        lines.append("first traceback:")
        lines.append(str(rows[0]["traceback"]))
        return "\n".join(lines)
    return str(payload)


class _WorkerFailure(Exception):
    """One failed worker request.

    ``kind`` is ``"crash"`` (worker dead, pipe closed), ``"hang"`` (no
    reply before the deadline) or ``"protocol"`` (an undecodable or
    invalid reply, or an error the worker reported, whose raw payload is
    kept in ``payload``).
    """

    def __init__(self, kind: str, detail: str, payload: Any = None) -> None:
        super().__init__(detail)
        self.kind = kind
        self.detail = detail
        self.payload = payload


class _Worker:
    """Parent-side handle on one shard: the protocol, written once.

    A transport supplies ``post(msg)`` (queue one op for the worker's op
    table) and ``_take(timeout_s)`` (the next raw reply); both raise
    :class:`_WorkerFailure`.  ``timeout_s=None`` waits without a
    deadline.
    """

    def reply(self, timeout_s: Optional[float] = None) -> Any:
        tag, payload = self._take(timeout_s)
        if tag != "ok":
            raise _WorkerFailure(
                "protocol", f"worker error:\n{_format_worker_error(payload)}", payload
            )
        return payload

    def call(self, msg: tuple, timeout_s: Optional[float] = None) -> Any:
        self.post(msg)
        return self.reply(timeout_s)

    def begin_epoch(self, epoch_index, allowed, demands_bits, rng_states) -> None:
        self.post(("begin", epoch_index, allowed, demands_bits, rng_states))

    def read_partial(self, timeout_s: Optional[float] = None) -> np.ndarray:
        return self.reply(timeout_s)

    def commit_epoch(self, prach_total: np.ndarray) -> None:
        self.post(("commit", prach_total))

    def read_result(self, timeout_s: Optional[float] = None) -> tuple:
        return self.reply(timeout_s)

    def build_stats(self, timeout_s: Optional[float] = None) -> Dict[str, Any]:
        """Cache-build timings from the shard net (see ``gain_prefill_s``)."""
        return self.call(("build_stats",), timeout_s)

    def state_dict(self, timeout_s: Optional[float] = None) -> Dict[str, Any]:
        return self.call(("state",), timeout_s)

    def begin_load_state(self, state: Dict[str, Any]) -> None:
        self.post(("load", state))

    def finish_load_state(self, timeout_s: Optional[float] = None) -> None:
        self.reply(timeout_s)

    def close(self) -> None:
        pass


class _InlineWorker(_Worker):
    """In-process transport: calls the op table directly (tests, platforms
    without fork, degraded shards) -- no pickling, no copies."""

    def __init__(
        self,
        net_factory: NetFactory,
        ap_ids: Sequence[int],
        tel_cfg: Optional[Dict[str, bool]] = None,
    ) -> None:
        self.server = _ShardServer(net_factory, ap_ids, tel_cfg)
        self.net = self.server.net
        self._reply: Optional[Tuple[str, Any]] = None
        #: Chaos hook: a "killed" inline worker fails every request until
        #: the supervisor rebuilds it, mirroring a SIGKILL'd process worker.
        self.dead = False

    def post(self, msg: tuple) -> None:
        if self.dead:
            raise _WorkerFailure("crash", "inline worker killed")
        reply = self.server.serve(msg)
        if reply is not None:
            self._reply = reply

    def _take(self, timeout_s: Optional[float]) -> Tuple[str, Any]:
        reply, self._reply = self._reply, None
        if self.dead:
            raise _WorkerFailure("crash", "inline worker killed")
        if reply is None:
            raise _WorkerFailure("protocol", "no reply pending")
        return reply

    def send_signal(self, sig: int) -> bool:
        """Chaos: SIGKILL flips the dead flag; nothing else applies."""
        if sig != signal.SIGKILL:
            return False
        self.dead = True
        return True

    def kill(self) -> None:
        self.dead = True


class _ProcessWorker(_Worker):
    """Pipe transport to a forked worker process (``fork`` start method)."""

    def __init__(
        self,
        ctx,
        net_factory: NetFactory,
        ap_ids: Sequence[int],
        tel_cfg: Optional[Dict[str, bool]] = None,
    ) -> None:
        parent_conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, net_factory, ap_ids, tel_cfg),
            daemon=True,
        )
        self.proc.start()
        child_conn.close()
        self.conn = parent_conn

    def _gone(self) -> _WorkerFailure:
        code = self.proc.exitcode
        if code is not None and code < 0:
            return _WorkerFailure("crash", f"worker killed by signal {-code}")
        return _WorkerFailure("crash", f"worker pipe closed, exitcode {code}")

    def post(self, msg: tuple) -> None:
        try:
            self.conn.send(msg)
        except (BrokenPipeError, OSError):
            raise self._gone() from None

    def _take(self, timeout_s: Optional[float]) -> Tuple[str, Any]:
        """Read one reply, polling liveness while a deadline runs."""
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        while True:
            wait = None
            if deadline is not None:
                wait = deadline - time.monotonic()
                if wait <= 0:
                    raise _WorkerFailure("hang", f"no reply within {timeout_s:.3g}s")
                wait = min(wait, 0.05)
            try:
                if self.conn.poll(wait):
                    return self.conn.recv()
                alive = self.proc.is_alive() or self.conn.poll(0)
            except (EOFError, OSError):
                raise self._gone() from None
            except Exception:
                raise _WorkerFailure(
                    "protocol", f"undecodable reply: {traceback.format_exc(limit=2)}"
                ) from None
            if not alive:
                raise self._gone()

    def send_signal(self, sig: int) -> bool:
        """Deliver a raw signal to the worker process (chaos injection)."""
        try:
            os.kill(self.proc.pid, sig)
            return True
        except (ProcessLookupError, TypeError, OSError):
            return False

    def kill(self) -> None:
        """Hard-stop (SIGKILL) and reap the worker, closing the pipe."""
        try:
            self.proc.kill()
        except Exception:
            pass
        self.close()

    def close(self) -> None:
        if self.proc.is_alive():
            try:
                self.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            self.proc.join(timeout=5.0)
            if self.proc.is_alive():
                self.proc.terminate()
        try:
            if not self.conn.closed:
                self.conn.close()
        except OSError:
            pass


class SupervisionLog(EventLog):
    """Structured failure/recovery events from the shard supervisor.

    Mirrors into active telemetry under the ``shard.`` namespace, like the
    PAWS path's ``RobustnessLog`` does under ``robustness.`` (PR 3).
    """

    scope = "shard"


class ShardDegradedWarning(RuntimeWarning):
    """A shard exhausted its retry budget and was folded into inline
    execution (slower, still bit-identical) instead of aborting the run."""


@dataclass
class SupervisionConfig:
    """Tunables for :class:`ShardSupervisor`.

    ``phase_timeout_s`` pins every barrier deadline to a fixed value
    (tests); when ``None`` the deadline adapts to the fleet: at least
    ``min_deadline_s``, otherwise ``deadline_factor`` times the slowest
    recent wall-clock time of the same barrier phase, and a generous
    ``initial_deadline_s`` before any history exists.  ``retry_budget``
    counts failures per worker over the run; exceeding it degrades the
    shard to inline execution.  A merged recovery snapshot is refreshed
    every ``checkpoint_every`` epochs (and whenever the op journal grows
    past ``journal_cap``), which bounds replay depth.
    """

    retry_budget: int = 3
    checkpoint_every: int = 5
    journal_cap: int = 4096
    phase_timeout_s: Optional[float] = None
    initial_deadline_s: float = 300.0
    min_deadline_s: float = 5.0
    deadline_factor: float = 20.0
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0

    def __post_init__(self) -> None:
        if self.retry_budget < 0:
            raise ValueError("retry_budget must be >= 0")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.journal_cap < 1:
            raise ValueError("journal_cap must be >= 1")


#: Fault kinds the chaos harness can inject.
CHAOS_KINDS = ("kill", "stall", "malformed", "slow")

#: Barrier phase each kind hits unless the event overrides it.
_CHAOS_DEFAULT_PHASE = {
    "kill": "commit",
    "stall": "partial",
    "malformed": "commit",
    "slow": "partial",
}

#: Auto-resume delay for a "slow" spike when none is given: long enough
#: to register as a latency spike, short enough to stay under any sane
#: deadline.
_SLOW_DEFAULT_DELAY_S = 0.2


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled fault: ``kind`` hits ``shard`` at ``epoch``.

    ``kill`` SIGKILLs the worker process (inline workers flip their
    ``dead`` flag), ``stall`` SIGSTOPs it -- indefinitely when ``delay_s``
    is ``None``, so the barrier deadline must catch it -- ``slow`` is a
    stall that auto-resumes after ``delay_s`` (a latency spike, no
    recovery expected), and ``malformed`` truncates the worker's next
    barrier reply on the parent side, the way a half-written pipe would.
    ``phase`` ("partial" or "commit") picks the barrier phase; empty
    selects the kind's default.
    """

    kind: str
    epoch: int
    shard: int
    delay_s: Optional[float] = None
    phase: str = ""

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise ValueError(
                f"unknown chaos kind {self.kind!r}; want one of {CHAOS_KINDS}"
            )
        if self.epoch < 0 or self.shard < 0:
            raise ValueError("chaos epoch and shard must be >= 0")
        if self.phase == "":
            object.__setattr__(self, "phase", _CHAOS_DEFAULT_PHASE[self.kind])
        elif self.phase not in ("partial", "commit"):
            raise ValueError(f"chaos phase must be partial|commit, got {self.phase!r}")
        if self.kind == "slow" and self.delay_s is None:
            object.__setattr__(self, "delay_s", _SLOW_DEFAULT_DELAY_S)


class ChaosPolicy:
    """Deterministic fault schedule for the supervised shard barrier.

    Faults are scheduled off epoch indices like PR 3's ``FaultyTransport``
    schedules transport faults off request counts: explicit
    :class:`ChaosEvent` entries fire exactly when named, and optional
    per-kind rates draw from a private ``np.random.default_rng`` keyed by
    ``(seed, epoch)`` -- stateless per epoch and never touching the
    simulation streams, so the schedule is reproducible and the sim
    digest is unaffected by construction.
    """

    def __init__(
        self,
        events: Sequence[ChaosEvent] = (),
        seed: int = 0,
        rates: Optional[Dict[str, float]] = None,
    ) -> None:
        self.events = tuple(
            sorted(events, key=lambda e: (e.epoch, e.shard, e.kind))
        )
        self.seed = int(seed)
        self.rates = {kind: float(rate) for kind, rate in (rates or {}).items()}
        for kind, rate in self.rates.items():
            if kind not in CHAOS_KINDS:
                raise ValueError(f"unknown chaos kind {kind!r} in rates")
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"chaos rate for {kind!r} must be in [0, 1]")

    @classmethod
    def parse(cls, spec: str) -> "ChaosPolicy":
        """Parse a CLI chaos spec.

        Comma-separated tokens: ``kind@epoch:shard[:delay_s]`` schedules
        one explicit event, ``seed=N`` seeds the probabilistic draws, and
        ``kind=rate`` sets a per-epoch-per-shard injection rate.  Example:
        ``"kill@3:1,stall@5:0:0.3,seed=7,malformed=0.05"``.
        """
        events: List[ChaosEvent] = []
        seed = 0
        rates: Dict[str, float] = {}
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            if "@" in token:
                kind, _, rest = token.partition("@")
                parts = rest.split(":")
                if len(parts) not in (2, 3):
                    raise ValueError(
                        f"bad chaos token {token!r}: want kind@epoch:shard[:delay_s]"
                    )
                events.append(
                    ChaosEvent(
                        kind=kind.strip(),
                        epoch=int(parts[0]),
                        shard=int(parts[1]),
                        delay_s=float(parts[2]) if len(parts) == 3 else None,
                    )
                )
            elif "=" in token:
                key, _, value = token.partition("=")
                key = key.strip()
                if key == "seed":
                    seed = int(value)
                elif key in CHAOS_KINDS:
                    rates[key] = float(value)
                else:
                    raise ValueError(
                        f"unknown chaos key {key!r}: want seed or one of {CHAOS_KINDS}"
                    )
            else:
                raise ValueError(
                    f"bad chaos token {token!r}: want kind@epoch:shard[:delay_s] "
                    "or key=value"
                )
        return cls(events=events, seed=seed, rates=rates)

    def events_for(self, epoch: int, n_shards: int) -> List[ChaosEvent]:
        """All faults scheduled for ``epoch`` across ``n_shards`` workers."""
        out = [
            event
            for event in self.events
            if event.epoch == epoch and event.shard < n_shards
        ]
        if self.rates:
            rng = np.random.default_rng((0x5EED, self.seed, epoch))
            for kind in CHAOS_KINDS:
                rate = self.rates.get(kind, 0.0)
                if rate <= 0.0:
                    continue
                draws = rng.random(n_shards)
                for shard in range(n_shards):
                    if draws[shard] < rate:
                        out.append(
                            ChaosEvent(kind=kind, epoch=epoch, shard=shard)
                        )
        return out


class _RecoveryError(RuntimeError):
    """A respawn-and-replay attempt itself failed (retried under budget)."""


#: Floor for per-op deadlines during replay/state ops: recovery paths are
#: off the hot path, so erring generous beats spurious re-classification
#: on a loaded CI host even when tests pin phase_timeout_s low.
_RECOVERY_MIN_DEADLINE_S = 30.0


def _validate_partial(payload: Any, n_aps: int) -> Optional[str]:
    """Reply validation for phase 1: per-AP integer PRACH partials."""
    if not isinstance(payload, np.ndarray):
        return f"expected ndarray, got {type(payload).__name__}"
    if payload.shape != (n_aps,):
        return f"bad shape {payload.shape}, want ({n_aps},)"
    if not np.issubdtype(payload.dtype, np.integer):
        return f"non-integer dtype {payload.dtype}"
    if bool((payload < 0).any()):
        return "negative PRACH count"
    return None


def _validate_outcome(payload: Any, expect_payload: bool = False) -> Optional[str]:
    """Reply validation for phase 2: (result, rng states, stats, cpu_s).

    When the worker runs with telemetry (``expect_payload``) the outcome
    carries a fifth element -- the shipped telemetry payload dict -- and
    the arity check is strict in both directions: a 4-tuple from a traced
    worker (or a 5-tuple from an untraced one) is a protocol error.
    """
    want = 5 if expect_payload else 4
    if not isinstance(payload, tuple) or len(payload) != want:
        return (
            f"expected a {want}-tuple outcome, got {type(payload).__name__}"
            + (f" of length {len(payload)}" if isinstance(payload, tuple) else "")
        )
    result, states, stats, compute_s = payload[:4]
    if not isinstance(result, EpochResult):
        return f"result is {type(result).__name__}, want EpochResult"
    if not isinstance(states, dict) or set(states) != set(EPOCH_STREAMS):
        return "RNG stream states missing or wrong stream set"
    if not isinstance(stats, dict):
        return f"stats is {type(stats).__name__}, want dict"
    if not isinstance(compute_s, float):
        return f"compute_s is {type(compute_s).__name__}, want float"
    if expect_payload and not isinstance(payload[4], dict):
        return f"telemetry payload is {type(payload[4]).__name__}, want dict"
    return None


def _validate_row(payload: Any) -> Optional[str]:
    """Reply validation for a cross-shard max-CQI row export."""
    if not isinstance(payload, list):
        return f"expected list row, got {type(payload).__name__}"
    if not all(isinstance(value, int) for value in payload):
        return "non-integer row entry"
    return None


def _corrupt_payload(payload: Any) -> Any:
    """Damage a reply the way a truncated/garbled pipe write would.

    Tuples are cut to length 2 rather than just dropping the last element:
    a traced outcome is a 5-tuple whose last element is the telemetry
    payload, and truncating only that would yield a perfectly valid
    4-tuple -- chaos must always produce a detectable protocol error.
    """
    if isinstance(payload, np.ndarray):
        return payload[: max(0, payload.shape[0] - 1)].astype(np.float64)
    if isinstance(payload, tuple):
        return payload[:2]
    return "\x00garbage"


def _validate_state(payload: Any) -> Optional[str]:
    """Reply validation for a state gather."""
    if isinstance(payload, dict) and "schedulers" in payload:
        return None
    return "invalid state payload"


class ShardSupervisor:
    """Recovery for a :class:`ShardedNetwork`: deadlines, journal, snapshot,
    respawn/replay, chaos and degrade.

    The network runs the barrier; with a supervisor attached it reads
    replies against per-phase deadlines, journals event ops and epoch
    barriers here, and hands every worker failure to :meth:`_recover`:
    respawn the worker from the last merged shard-agnostic snapshot,
    replay the op journal (event ops and epoch barriers recorded since
    the snapshot, with their exact RNG stream states and PRACH totals),
    and rejoin the barrier bit-identically.  Failures beyond
    ``retry_budget`` degrade the shard to inline execution with a
    :class:`ShardDegradedWarning` instead of aborting.
    """

    def __init__(
        self,
        net: "ShardedNetwork",
        config: Optional[SupervisionConfig] = None,
        chaos: Optional[ChaosPolicy] = None,
    ) -> None:
        self.net = net
        self.config = config if config is not None else SupervisionConfig()
        self.chaos = chaos
        self.log = net.events
        n = net.n_shards
        self._failures = [0] * n
        self.degraded = [False] * n
        self._malform_next = [False] * n
        self._journal: List[tuple] = []
        self._epochs_since_snapshot = 0
        self._recent_phase_s: Dict[str, Any] = {
            "partial": deque(maxlen=8),
            "commit": deque(maxlen=8),
        }
        self._timers: List[threading.Timer] = []
        self.stats: Dict[str, int] = {
            "restarts": 0,
            "crashes": 0,
            "hangs": 0,
            "protocol_errors": 0,
            "degraded": 0,
            "snapshots": 0,
            "replayed_ops": 0,
            "max_replay_depth": 0,
            "chaos_injected": 0,
            "telemetry_salvaged": 0,
            "telemetry_dropped": 0,
        }
        # Baseline snapshot: a worker lost before the first periodic
        # refresh must still be recoverable.  The net has no supervisor
        # yet, so this gather is a plain (unguarded) one.
        self._snapshot = clone_state(net.state_dict())
        self.stats["snapshots"] += 1

    # -- Plumbing -----------------------------------------------------------

    def _now(self) -> float:
        return self.net._now

    def deadline(self, where: str) -> float:
        """Reply deadline for a barrier phase, or for any other request."""
        if where not in self._recent_phase_s:
            # Recovery and state ops are off the hot path, so erring
            # generous beats spurious re-classification.
            return max(self.deadline("commit"), _RECOVERY_MIN_DEADLINE_S)
        cfg = self.config
        if cfg.phase_timeout_s is not None:
            return cfg.phase_timeout_s
        recent = self._recent_phase_s[where]
        if not recent:
            return cfg.initial_deadline_s
        return max(cfg.min_deadline_s, cfg.deadline_factor * max(recent))

    def note_phase(self, phase: str, seconds: float) -> None:
        self._recent_phase_s[phase].append(max(seconds, 1e-9))

    # -- Recovery -----------------------------------------------------------

    def _recover(
        self,
        k: int,
        kind: str,
        detail: str,
        expect_epoch: Optional[int] = None,
    ) -> Optional[tuple]:
        """Respawn worker ``k`` from snapshot + journal replay (with retries).

        Returns the replayed outcome of epoch ``expect_epoch`` when the
        journal already holds that barrier -- a commit-phase failure needs
        no re-commit, the replay *is* the epoch -- and ``None`` otherwise.
        """
        cfg = self.config
        counter = {"crash": "crashes", "hang": "hangs", "protocol": "protocol_errors"}
        self.stats[counter[kind]] += 1
        self.log.record(self._now(), f"shard{k}", f"worker-{kind}", detail)
        self._malform_next[k] = False
        respawn_wall0 = time.perf_counter_ns()
        # Salvage the dying worker's buffered telemetry before the kill:
        # a still-responsive worker (protocol error, degrade) can flush its
        # trace buffer; a SIGKILLed or hung one cannot, and the loss is
        # counted instead of silent.
        self._salvage_telemetry(k)
        while True:
            self._failures[k] += 1
            self.net.workers[k].kill()
            degrade = self.degraded[k] or self._failures[k] > cfg.retry_budget
            if degrade and not self.degraded[k]:
                self.degraded[k] = True
                self.stats["degraded"] += 1
                message = (
                    f"shard {k} exhausted its retry budget ({cfg.retry_budget}); "
                    "degrading to inline execution (slower, still bit-identical)"
                )
                self.log.record(
                    self._now(), f"shard{k}", "worker-degraded-inline", message
                )
                warnings.warn(message, ShardDegradedWarning, stacklevel=3)
            if not degrade and self._failures[k] > 1:
                time.sleep(
                    min(
                        cfg.backoff_max_s,
                        cfg.backoff_base_s * (2 ** (self._failures[k] - 2)),
                    )
                )
            try:
                replacement = self.net._build_worker(k, inline=degrade)
                self.net.workers[k] = replacement
                outcome, outcome_epoch = self._replay(replacement, k)
            except _RecoveryError as exc:
                self.log.record(
                    self._now(), f"shard{k}", "worker-respawn-failed", str(exc)
                )
                if degrade:
                    raise RuntimeError(
                        f"shard {k} failed even after degrading to inline "
                        f"execution:\n{exc}"
                    ) from exc
                continue
            break
        self.stats["restarts"] += 1
        depth = len(self._journal)
        self.stats["replayed_ops"] += depth
        self.stats["max_replay_depth"] = max(self.stats["max_replay_depth"], depth)
        self.log.record(
            self._now(),
            f"shard{k}",
            "worker-respawn",
            f"mode={'inline' if degrade else self.net.mode} after {kind}; "
            f"replayed {depth} journal op(s), attempt {self._failures[k]}",
        )
        tel = _obs_runtime.active()
        if tel is not None:
            tel.inc("shard.worker_restart")
            tel.gauge("shard.replay_depth", float(depth))
            if tel.tracer is not None:
                tel.tracer.complete(
                    "shard.respawn",
                    "supervisor",
                    tel.now,
                    0.0,
                    args={
                        "of": k,
                        "kind": kind,
                        "ops": depth,
                        "degraded": bool(self.degraded[k]),
                    },
                    wall_ns=respawn_wall0,
                    wall_dur_ns=time.perf_counter_ns() - respawn_wall0,
                )
        if expect_epoch is not None and outcome_epoch == expect_epoch:
            return outcome
        return None

    def _salvage_telemetry(self, k: int) -> None:
        """Flush a dying worker's buffered telemetry, or count the loss.

        Salvaged payloads merge trace rows only (tagged ``salvaged``):
        their metrics describe a partially executed epoch that journal
        replay regenerates in full, so merging them would double-count.
        """
        if self.net._tel_merger is None:
            return
        if self.net._flush_worker_telemetry(k, salvage=True):
            kind, detail = "telemetry_salvaged", "flushed before respawn"
        else:
            kind, detail = "telemetry_dropped", "lost with the worker"
        self.stats[kind] += 1
        # EventLog mirrors the kind into a ``shard.<kind>`` counter (plus
        # a trace instant) for free.
        self.log.record(
            self._now(), f"shard{k}", kind, f"buffered worker telemetry {detail}"
        )

    def _replay(self, worker: _Worker, k: int) -> Tuple[Optional[tuple], Optional[int]]:
        """Load the pinned snapshot into ``worker``, re-apply the journal.

        Returns ``(outcome, epoch_index)`` of the last replayed epoch
        barrier (``(None, None)`` when the journal holds none).  Any
        anomaly raises :class:`_RecoveryError` so the caller can retry the
        whole respawn under the budget.
        """
        per_op_s = self.deadline("replay")
        replay_wall0 = time.perf_counter_ns()

        def send(msg: tuple, step: str) -> Any:
            try:
                worker.post(msg)
                return None if msg[0] in _EVENT_OPS else worker.reply(per_op_s)
            except _WorkerFailure as failure:
                self.net._note_error_report(k, failure.payload)
                raise _RecoveryError(
                    f"replay {step} failed: {failure.detail}"
                ) from None

        # Hand the worker a detached clone: the pinned snapshot must stay
        # byte-stable across retries, and an inline worker must never end
        # up aliasing arrays inside it (or inside a sibling worker).
        send(("load", clone_state(self._snapshot)), "snapshot load")
        last: Tuple[Optional[tuple], Optional[int]] = (None, None)
        for entry in self._journal:
            op = entry[0]
            if op == "move":
                send(entry, "move")
            elif op == "reattach":
                _, cid, new_ap_id, row, new_shard = entry
                send(("reattach", cid, new_ap_id), "reattach")
                if row is not None and new_shard == k:
                    send(("import", cid, list(row)), "import")
            elif op == "epoch":
                _, epoch_index, allowed, demands_bits, rng_states, total = entry
                # The partial is discarded: the journaled exact total is
                # authoritative (it came from the fault-free reduction).
                send(
                    ("begin", epoch_index, allowed, demands_bits, rng_states),
                    f"begin[{epoch_index}]",
                )
                outcome = send(("commit", total), f"commit[{epoch_index}]")
                error = _validate_outcome(
                    outcome, self.net._tel_merger is not None
                )
                if error is not None:
                    raise _RecoveryError(
                        f"replayed epoch {epoch_index} outcome invalid: {error}"
                    )
                last = (outcome, epoch_index)
            else:  # pragma: no cover - journal is written by this class
                raise _RecoveryError(f"unknown journal entry {op!r}")
        # End on a replying op: an event op that failed after the last
        # journaled epoch surfaces here, so a poisoned replacement is
        # retried (and finally degraded) instead of rejoining the barrier
        # only to fail the same way again.
        send(("build_stats",), "final check")
        tel = _obs_runtime.active()
        if tel is not None and tel.tracer is not None:
            tel.tracer.complete(
                "shard.replay",
                "supervisor",
                tel.now,
                0.0,
                args={"of": k, "ops": len(self._journal)},
                wall_ns=replay_wall0,
                wall_dur_ns=time.perf_counter_ns() - replay_wall0,
            )
        return last

    # -- Journal + snapshots ------------------------------------------------

    def _note_journal_depth(self) -> None:
        """Mirror the journal depth into a gauge (recovery-cost signal)."""
        tel = _obs_runtime.active()
        if tel is not None:
            tel.gauge("shard.journal_depth", float(len(self._journal)))

    def journal(self, entry: tuple) -> None:
        """Record one event op or epoch barrier for replay."""
        self._journal.append(entry)
        self._note_journal_depth()

    def trim_journal(self) -> None:
        if len(self._journal) > self.config.journal_cap:
            self.take_snapshot()

    def epoch_done(self) -> None:
        """Count a merged epoch; refresh the snapshot on cadence."""
        self._epochs_since_snapshot += 1
        if self._epochs_since_snapshot >= self.config.checkpoint_every:
            self.take_snapshot()
        tel = _obs_runtime.active()
        if tel is not None:
            tel.gauge(
                "shard.checkpoint_age_epochs",
                float(self._epochs_since_snapshot),
            )

    def take_snapshot(self) -> None:
        """Refresh the pinned merged snapshot and clear the journal."""
        self.restart_from(self.net.state_dict())
        self.stats["snapshots"] += 1
        self.log.record(
            self._now(),
            "supervisor",
            "recovery-checkpoint",
            "merged snapshot refreshed; journal cleared",
        )
        tel = _obs_runtime.active()
        if tel is not None:
            tel.inc("shard.supervisor_snapshot")
            # Checkpoint-refresh gauges: when the recovery snapshot was
            # last rebuilt and how many refreshes the run has paid for.
            tel.gauge("shard.checkpoint_epoch", self._now())
            tel.gauge(
                "shard.checkpoint_refreshes", float(self.stats["snapshots"])
            )

    def restart_from(self, state: Dict[str, Any]) -> None:
        """A restore rewinds the run: pin ``state``, clear the journal."""
        self._snapshot = clone_state(state)
        self._journal = []
        self._epochs_since_snapshot = 0
        self._note_journal_depth()

    # -- Chaos injection ----------------------------------------------------

    def chaos_events(self, epoch_index: int) -> List[ChaosEvent]:
        if self.chaos is None:
            return []
        return self.chaos.events_for(epoch_index, self.net.n_shards)

    def inject(self, events: Sequence[ChaosEvent], phase: str) -> None:
        for event in events:
            if event.phase != phase:
                continue
            k = event.shard
            worker = self.net.workers[k]
            self.stats["chaos_injected"] += 1
            detail = f"epoch {event.epoch} phase {phase}" + (
                f" delay {event.delay_s}s" if event.delay_s else ""
            )
            self.log.record(self._now(), f"shard{k}", f"chaos-{event.kind}", detail)
            if event.kind == "kill":
                worker.send_signal(signal.SIGKILL)
            elif event.kind in ("stall", "slow"):
                if not worker.send_signal(signal.SIGSTOP):
                    self.log.record(
                        self._now(),
                        f"shard{k}",
                        "chaos-skip",
                        f"{event.kind} needs a live process worker",
                    )
                    continue
                if event.delay_s:
                    timer = threading.Timer(
                        event.delay_s, worker.send_signal, args=(signal.SIGCONT,)
                    )
                    timer.daemon = True
                    timer.start()
                    self._timers.append(timer)
            elif event.kind == "malformed":
                self._malform_next[k] = True

    def corrupt_if_scheduled(self, k: int, payload: Any) -> Any:
        """Truncate ``payload`` when chaos scheduled a malformed reply."""
        if not self._malform_next[k]:
            return payload
        self._malform_next[k] = False
        return _corrupt_payload(payload)

    # -- Lifecycle ----------------------------------------------------------

    def close(self) -> None:
        for timer in self._timers:
            timer.cancel()
        self._timers = []


class ShardedNetwork:
    """Drive N shard workers so their merged epochs match one simulator.

    Drop-in replacement for :class:`LteNetworkSimulator` from a driver's
    point of view (``run_epoch`` / ``move_client`` / ``reattach_client`` /
    ``run`` / ``state_dict`` / ``load_state``), with the same digests.

    Args:
        topology: the parent's own topology, over the same build-time
            sites as every worker's (mutated by the same event stream the
            workers receive).
        shard_plan: AP-id lists, one per shard -- disjoint and covering
            every AP (see :func:`repro.sim.topology.grid_partition`).
        net_factory: builds one shard simulator given its owned AP ids.
            Must build the *same* deterministic scenario, as built, in
            every worker and on every respawn (same build-time topology,
            channel and seed-derived RNG streams); with ``None`` it builds
            the plain unsharded simulator.  The large-scale runs build
            through :meth:`repro.experiments.common.Scenario.lte_net`, the
            one builder for both.
        rngs: the parent's mirror of the simulators' RNG streams (the
            object a checkpoint registry should register as the network
            RNG subsystem).
        grid: the shared resource grid (policy wiring reads it).
        mode: ``"process"`` (fork workers), ``"inline"`` (in-process, for
            tests and platforms without fork) or ``"auto"``.
        supervise: attach a :class:`ShardSupervisor` (fault-tolerant
            barrier with recovery-by-replay; see ``docs/ROBUSTNESS.md``).
        supervision: supervisor tunables; implies ``supervise=True``.
        chaos: a :class:`ChaosPolicy` fault schedule; implies
            ``supervise=True``.
    """

    def __init__(
        self,
        topology: Topology,
        shard_plan: Sequence[Sequence[int]],
        net_factory: NetFactory,
        rngs,
        grid,
        mode: str = "auto",
        supervise: bool = False,
        supervision: Optional[SupervisionConfig] = None,
        chaos: Optional[ChaosPolicy] = None,
    ) -> None:
        self.topology = topology
        self.grid = grid
        self.rngs = rngs
        plan = [sorted(shard) for shard in shard_plan]
        flat = [ap_id for shard in plan for ap_id in shard]
        if len(set(flat)) != len(flat):
            raise ValueError("shard plan has overlapping AP assignments")
        if not all(plan):
            raise ValueError("shard plan contains an empty (workerless) shard")
        if set(flat) != {ap.ap_id for ap in topology.aps}:
            raise ValueError("shard plan must cover every AP exactly once")
        self.shard_plan = plan
        self._shard_of_ap = {
            ap_id: k for k, shard in enumerate(plan) for ap_id in shard
        }
        # Build-time row order: matches every worker's gain-matrix row
        # mapping (handover mutates attachment, never list positions).
        self._client_row = {
            c.client_id: i for i, c in enumerate(topology.clients)
        }
        if mode == "auto":
            # Daemonic processes (sweep-runner workers) may not fork
            # children, so a sharded cell inside a sweep runs inline.
            mode = (
                "process"
                if "fork" in mp.get_all_start_methods()
                and not mp.current_process().daemon
                else "inline"
            )
        if mode == "process":
            self._ctx = mp.get_context("fork")
        elif mode == "inline":
            self._ctx = None
        else:
            raise ValueError(f"unknown shard mode {mode!r}")
        self.mode = mode
        self._net_factory = net_factory
        self.events = SupervisionLog()
        self._reported_sigs: Set[tuple] = set()
        self._now = 0.0
        #: Sim-seconds per epoch; mirrors the workers' simulators so the
        #: parent's telemetry clock tracks the same timeline.
        self.epoch_s = 1.0
        # Telemetry plane: when the *parent* has telemetry active at build
        # time, every worker runs its own matching instance and ships
        # incremental payloads on commit replies; the merger folds them
        # into the parent registry/tracer under shard<k> labels.  With
        # telemetry off this stays None and the wire format is untouched.
        tel = _obs_runtime.active()
        self._worker_tel_cfg: Optional[Dict[str, bool]] = None
        self._tel_merger: Optional[ShardTelemetryMerger] = None
        if tel is not None:
            self._worker_tel_cfg = {
                "trace": tel.tracing,
                "profile": tel.profiler is not None,
            }
            self._tel_merger = ShardTelemetryMerger()
        self.supervisor: Optional[ShardSupervisor] = None
        self.workers: List[_Worker] = [
            self._build_worker(k) for k in range(len(plan))
        ]
        self.last_epoch_stats: Dict[str, int] = {}
        # Per-worker run_epoch CPU seconds for the last barrier (measured
        # with process_time, so sibling workers time-slicing on the same
        # core do not inflate it); max() is the critical-path epoch time
        # a one-worker-per-core host waits on.
        self.last_epoch_compute_s: List[float] = []
        if supervise or supervision is not None or chaos is not None:
            self.supervisor = ShardSupervisor(self, supervision, chaos=chaos)

    def _build_worker(self, shard_index: int, inline: bool = False) -> _Worker:
        """Build (or rebuild, for recovery) the worker for one shard."""
        ap_ids = self.shard_plan[shard_index]
        if inline or self.mode == "inline":
            return _InlineWorker(
                self._net_factory, ap_ids, tel_cfg=self._worker_tel_cfg
            )
        return _ProcessWorker(
            self._ctx, self._net_factory, ap_ids, tel_cfg=self._worker_tel_cfg
        )

    def _note_error_report(self, shard_index: int, payload: Any) -> None:
        """Dedupe structured deferred-op reports into single obs events.

        A poisoned worker re-reports the same signatures at every replying
        op; each ``(shard, signature)`` pair is recorded exactly once,
        carrying the worker-side repetition count.
        """
        if not isinstance(payload, dict) or "deferred_ops" not in payload:
            return
        for row in payload["deferred_ops"]:
            key = (shard_index, row["signature"])
            if key in self._reported_sigs:
                continue
            self._reported_sigs.add(key)
            self.events.record(
                self._now,
                f"shard{shard_index}",
                "worker-op-error",
                f"x{row['count']} {row['signature']}",
            )

    @property
    def n_shards(self) -> int:
        return len(self.workers)

    def shard_of_client(self, client_id: int) -> int:
        return self._shard_of_ap[self.topology.client(client_id).ap_id]

    def worker_build_stats(self) -> List[Dict[str, Any]]:
        """Per-shard cache-build timings, in shard order.

        Each entry currently carries ``gain_prefill_s`` -- the wall-clock
        seconds the worker's :class:`~repro.phy.propagation.GainMatrixCache`
        spent bulk-filling its owned rows at build time (the quantity the
        gain-fill kernels attack; ``perfbench`` reports it as
        ``shard.worker_build_s``).  After a
        supervised respawn the figure reflects the most recent rebuild.
        """
        return self._round(
            "build_stats", range(self.n_shards), None,
            lambda worker, t: worker.build_stats(t),
        )

    # -- The one failure path -----------------------------------------------

    def _failed(
        self,
        k: int,
        failure: _WorkerFailure,
        where: str,
        expect_epoch: Optional[int] = None,
        repeat: bool = False,
    ) -> Optional[tuple]:
        """Record a failed request of worker ``k``, then raise or recover.

        Without a supervisor the failure is raised; with one, the worker
        is respawned and this returns the replayed outcome of
        ``expect_epoch`` if the replay produced it (else ``None``).
        ``repeat`` marks a request that failed before: on a degraded
        (inline) shard, whose replay just succeeded, that failure is
        deterministic and is raised too.
        """
        self._note_error_report(k, failure.payload)
        detail = f"{where}: {failure.detail}"
        if self.supervisor is None:
            raise RuntimeError(f"shard worker failed: {detail}") from None
        if repeat and self.supervisor.degraded[k]:
            raise RuntimeError(
                f"shard {k} failed even after degrading to inline "
                f"execution:\n{detail}"
            ) from None
        return self.supervisor._recover(k, failure.kind, detail, expect_epoch)

    def _deadline(self, where: str) -> Optional[float]:
        if self.supervisor is None:
            return None
        return self.supervisor.deadline(where)

    def _start(self, k: int, start) -> Optional[_WorkerFailure]:
        if start is not None:
            try:
                start(self.workers[k])
            except _WorkerFailure as failure:
                return failure
        return None

    def _round(
        self,
        where: str,
        shards: Sequence[int],
        start: Optional[Callable[[_Worker], None]],
        finish: Callable[[_Worker, Optional[float]], Any],
        check: Optional[Callable[[Any], Optional[str]]] = None,
        expect_epoch: Optional[int] = None,
    ) -> List[Any]:
        """One request to each of ``shards``: post them all, then read.

        ``start(worker)`` posts (``None``: nothing to post up front),
        ``finish(worker, timeout_s)`` returns the reply and
        ``check(reply)`` names what is wrong with it, if anything.  A
        failed request goes to :meth:`_failed`; after a recovery the
        request is posted again, unless the journal replay already
        produced this epoch's outcome.
        """
        deadline_s = self._deadline(where)
        sup = self.supervisor
        failures = {k: self._start(k, start) for k in shards}
        replies = []
        for k in shards:
            failure = failures[k]
            repeat = False
            while True:
                if failure is None:
                    try:
                        reply = finish(self.workers[k], deadline_s)
                    except _WorkerFailure as exc:
                        failure = exc
                    else:
                        if sup is not None:
                            reply = sup.corrupt_if_scheduled(k, reply)
                        error = check(reply) if check is not None else None
                        if error is None:
                            replies.append(reply)
                            break
                        failure = _WorkerFailure("protocol", f"invalid reply: {error}")
                replayed = self._failed(k, failure, where, expect_epoch, repeat)
                repeat = True
                if replayed is not None:
                    replies.append(replayed)
                    break
                failure = self._start(k, start)
        return replies

    # -- Events (applied between epochs, i.e. at the barrier) ---------------

    def _event(self, entry: tuple, sends: Sequence[Tuple[int, tuple]]) -> None:
        """Journal one event (when supervised), then post its worker ops.

        Event ops are fire-and-forget; a worker that cannot take one
        fails here, and under supervision its journal replay re-applies
        the op, so recovery is enough.
        """
        sup = self.supervisor
        if sup is not None:
            sup.journal(entry)
        for k, msg in sends:
            try:
                self.workers[k].post(msg)
            except _WorkerFailure as failure:
                self._failed(k, failure, f"event {msg[0]!r}")
        if sup is not None:
            sup.trim_journal()

    def move_client(self, client_id: int, x: float, y: float) -> None:
        self.topology.move_client(client_id, x, y)
        msg = ("move", client_id, float(x), float(y))
        self._event(msg, [(k, msg) for k in range(self.n_shards)])

    def reattach_client(self, client_id: int, new_ap_id: int) -> None:
        old_ap_id = self.topology.client(client_id).ap_id
        if old_ap_id == new_ap_id:
            return
        old_shard = self._shard_of_ap[old_ap_id]
        new_shard = self._shard_of_ap[new_ap_id]
        row: Optional[List[int]] = None
        if old_shard != new_shard:
            # Export before the old owner disowns (which zeroes the row).
            (row,) = self._round(
                "export", [old_shard], None,
                lambda worker, t: worker.call(("export", client_id), t),
                _validate_row,
            )
        self.topology.reattach_client(client_id, new_ap_id)
        msg = ("reattach", client_id, new_ap_id)
        sends = [(k, msg) for k in range(self.n_shards)]
        if row is not None:
            sends.append((new_shard, ("import", client_id, list(row))))
        self._event(
            msg + ((list(row), new_shard) if row is not None else (None, None)),
            sends,
        )

    # -- Epoch barrier ------------------------------------------------------

    def run_epoch(
        self,
        epoch_index: int,
        allowed: Dict[int, Set[int]],
        demands_bits: Dict[int, float],
    ) -> EpochResult:
        self._now = float(epoch_index)
        tel = _obs_runtime.active()
        if tel is not None:
            # Workers advance their own clocks inside run_epoch; the parent
            # mirrors the timeline so barrier spans and merged metric
            # ticks line up with the shipped worker records.
            tel.set_time(epoch_index * self.epoch_s)
        sup = self.supervisor
        chaos = sup.chaos_events(epoch_index) if sup is not None else []
        barrier_t0 = time.monotonic()
        # Phase 1: push decision + epoch RNG states, gather PRACH partials.
        # The push is normally a no-op (workers advanced in lockstep) but
        # makes a freshly restored parent authoritative for free.
        rng_states = _epoch_stream_states(self.rngs)
        n_aps = len(self.topology.aps)
        partials = self._phase(
            "partial", epoch_index, chaos,
            lambda w: w.begin_epoch(epoch_index, allowed, demands_bits, rng_states),
            lambda w, t: w.read_partial(t),
            lambda partial: _validate_partial(partial, n_aps),
        )
        total = partials[0]
        for partial in partials[1:]:
            total = total + partial
        if sup is not None:
            # Journal the barrier *before* commit: a worker lost during
            # commit replays straight through this epoch and its replayed
            # outcome is the epoch result.
            sup.journal(
                (
                    "epoch",
                    epoch_index,
                    {ap_id: set(subs) for ap_id, subs in allowed.items()},
                    dict(demands_bits),
                    rng_states,
                    np.array(total, copy=True),
                )
            )
        # Phase 2: broadcast the exact global counts, run the epoch slices.
        traced = self._tel_merger is not None
        outcomes = self._phase(
            "commit", epoch_index, chaos,
            lambda w: w.commit_epoch(total),
            lambda w, t: w.read_result(t),
            lambda outcome: _validate_outcome(outcome, traced),
        )
        merged = self._merge_outcomes(epoch_index, outcomes)
        if tel is not None:
            tel.observe("shard.barrier_wait_s", time.monotonic() - barrier_t0)
        if sup is not None:
            sup.epoch_done()
        return merged

    def _phase(self, phase, epoch_index, chaos, start, finish, check) -> List[Any]:
        """One barrier phase over every shard: chaos, span, round, timing."""
        sup = self.supervisor
        if sup is not None:
            sup.inject(chaos, phase)
        tel = _obs_runtime.active()
        phase_t0 = time.monotonic()
        with (
            tel.span(
                f"shard.barrier.{phase}",
                "supervisor",
                args={"epoch": epoch_index, "deadline_s": self._deadline(phase)},
            )
            if tel is not None
            else nullcontext()
        ):
            replies = self._round(
                phase, range(self.n_shards), start, finish, check,
                expect_epoch=epoch_index if phase == "commit" else None,
            )
        if sup is not None:
            sup.note_phase(phase, time.monotonic() - phase_t0)
        return replies

    def _merge_outcomes(
        self, epoch_index: int, outcomes: Sequence[tuple]
    ) -> EpochResult:
        # Telemetry rides as a 5th outcome element when workers trace;
        # fold each shard's payload into the parent (the merger's epoch
        # horizon drops re-shipped duplicates from journal replay) and
        # strip it before the sim-semantic merge below.
        if self._tel_merger is not None:
            tel = _obs_runtime.active()
            for k, outcome in enumerate(outcomes):
                self._tel_merger.merge(k, outcome[4], tel)
            outcomes = [outcome[:4] for outcome in outcomes]
        # Phase 3: merge.  Key sets are disjoint by ownership, and every
        # AP/client is owned by exactly one shard, so the merged dicts have
        # exactly the unsharded key population.
        states0 = outcomes[0][1]
        for _, states, _, _ in outcomes[1:]:
            if states != states0:
                raise RuntimeError(
                    "shard RNG streams diverged at the epoch barrier -- "
                    "the bit-identity contract is broken"
                )
        _apply_stream_states(self.rngs, states0)
        merged = EpochResult(
            epoch_index=epoch_index,
            served_bits={},
            throughput_bps={},
            allocations={},
            observations={},
            connected={},
        )
        stats_sum: Dict[str, int] = {}
        self.last_epoch_compute_s = [outcome[3] for outcome in outcomes]
        for result, _, stats, _ in outcomes:
            merged.served_bits.update(result.served_bits)
            merged.throughput_bps.update(result.throughput_bps)
            merged.allocations.update(result.allocations)
            merged.observations.update(result.observations)
            merged.connected.update(result.connected)
            for key, value in stats.items():
                stats_sum[key] = stats_sum.get(key, 0) + value
        self.last_epoch_stats = stats_sum
        return merged

    def run(
        self,
        n_epochs: int,
        policy: SubchannelPolicy,
        demand_fn: Callable[[int], Dict[int, float]],
    ) -> List[EpochResult]:
        """Mirror of :meth:`LteNetworkSimulator.run` over the shard fleet."""
        results: List[EpochResult] = []
        observations: Optional[Dict[int, ApObservation]] = None
        for epoch in range(n_epochs):
            allowed = policy.decide(epoch, observations)
            result = self.run_epoch(epoch, allowed, demand_fn(epoch))
            observations = result.observations
            results.append(result)
        return results

    # -- Checkpointing ------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Merged snapshot, byte-identical to the unsharded simulator's.

        Schedulers union disjointly by AP ownership, the max-CQI matrix is
        assembled from each client's owning shard, and positions/serving
        come from the parent's replicated topology.  A checkpoint registry
        therefore produces the same subsystem hash -- and the same run
        digest -- as the single-process run.
        """
        return self._merge_states(
            self._round(
                "state", range(self.n_shards), None,
                lambda worker, t: worker.state_dict(t),
                _validate_state,
            )
        )

    def _merge_states(
        self, worker_states: Sequence[Dict[str, Any]]
    ) -> Dict[str, Any]:
        schedulers: Dict[Any, Any] = {}
        for state in worker_states:
            schedulers.update(state["schedulers"])
        vec = np.zeros_like(np.asarray(worker_states[0]["max_cqi_vec"]))
        for client in self.topology.clients:
            row = self._client_row[client.client_id]
            owner = self._shard_of_ap[client.ap_id]
            vec[row] = np.asarray(worker_states[owner]["max_cqi_vec"])[row]
        clients = sorted(self.topology.clients, key=lambda c: c.client_id)
        return {
            "schedulers": schedulers,
            "max_cqi_vec": vec,
            "positions": [[c.client_id, c.x, c.y] for c in clients],
            "serving": [[c.client_id, c.ap_id] for c in clients],
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        # Parent replica first: ownership is derived from serving APs, so
        # the diff-application below keeps the shard map authoritative.
        for cid, x, y in state.get("positions", []):
            cid, x, y = int(cid), float(x), float(y)
            site = self.topology.client(cid)
            if site.x != x or site.y != y:
                self.topology.move_client(cid, x, y)
        for cid, ap_id in state.get("serving", []):
            cid, ap_id = int(cid), int(ap_id)
            if self.topology.client(cid).ap_id != ap_id:
                self.topology.reattach_client(cid, ap_id)
        if self.supervisor is not None:
            self.supervisor.restart_from(state)
        if self._tel_merger is not None:
            # A restore rewinds the run: epochs will be re-run (and their
            # payloads re-shipped), so the dedup horizon must forget them.
            self._tel_merger.reset_horizon()
        # Every worker gets the full merged state: each applies the same
        # topology diffs, loads its owned schedulers (foreign entries are
        # skipped) and the full max-CQI matrix (only owned rows are live).
        # A worker recovered mid-load has loaded the new snapshot already;
        # loading the same state once more is a no-op.
        self._round(
            "load", range(self.n_shards),
            lambda worker: worker.begin_load_state(state),
            lambda worker, t: worker.finish_load_state(t),
        )
        self.last_epoch_stats = {}

    # -- Telemetry plumbing -------------------------------------------------

    def _flush_worker_telemetry(
        self, k: int, salvage: bool = False
    ) -> bool:
        """Pull and merge worker ``k``'s buffered telemetry.

        Returns ``False`` when the worker could not flush (dead, hung, or
        replying with something that is not a flush payload -- e.g. a
        stale barrier reply still queued in the pipe after a timeout).
        ``salvage`` marks a recovery-time flush: the merger keeps only
        the trace rows, since journal replay regenerates the metrics.
        """
        if self._tel_merger is None:
            return True
        tel = _obs_runtime.active()
        if tel is None:
            return True
        try:
            payload = self.workers[k].call(("tel_flush",), _TEL_FLUSH_DEADLINE_S)
        except _WorkerFailure:
            return False
        if not isinstance(payload, dict) or payload.get("kind") != "flush":
            return False
        return self._tel_merger.merge(k, payload, tel, salvage=salvage)

    # -- Lifecycle ----------------------------------------------------------

    def close(self) -> None:
        if self.supervisor is not None:
            self.supervisor.close()
        if self._tel_merger is not None:
            # Final drain: anything recorded since the last commit reply
            # (event ops, a begun-but-uncommitted epoch) merges with full
            # metrics -- no replay follows a close, so nothing can
            # double-count.
            for k in range(len(self.workers)):
                self._flush_worker_telemetry(k)
        for worker in self.workers:
            worker.close()

    def __enter__(self) -> "ShardedNetwork":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
