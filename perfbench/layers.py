"""Per-layer tracing from outside: spans around calls into the program.

Only the traced run (``--trace 1``) installs these wrappers.  Each wrapper
records a span (name, start, end, parent) in memory; a layer's self time
is its span's duration minus the time its child spans cover.  Counters
that need extra work (e.g. the Wi-Fi history scan) are computed after
the wrapped call returns, outside every span; their time is excluded from
the step's unattributed remainder and shows only in the tracing overhead
figure.

Tracing is switched on for alternate timed steps; the untraced steps of
the same run give the ``trace.overhead`` baseline.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: Per-layer metrics: name -> unit.  Every workload reports
#: every metric; a layer a workload does not exercise reads 0.
PER_LAYER: Dict[str, str] = {
    "scenario.build_s": "s",
    "gain.prefill_s": "s",
    "gain.invalidations": "1/step",
    "events.move_s": "s/step",
    "events.moves": "1/step",
    "events.reattach_s": "s/step",
    "events.handovers": "1/step",
    "policy.decide_s": "s/step",
    "policy.grant_changes": "1/step",
    "epoch.run_s": "s/step",
    "epoch.dirty_aps": "1/step",
    "epoch.clean_aps": "1/step",
    "epoch.dirty_rows": "1/step",
    "epoch.block_reuse": "ratio",
    "sched.allocate_s": "s/step",
    "sched.calls": "1/step",
    "sched.served_mbit": "Mbit/step",
    "shard.partial_s": "s/step",
    "shard.commit_s": "s/step",
    "shard.merge_s": "s/step",
    "shard.imbalance": "ratio",
    "shard.worker_build_s": "s",
    "engine.scheduled": "1/step",
    "wifi.transmissions": "1/step",
    "wifi.sinr_evals": "1/step",
    "wifi.sinr_s": "s/step",
    "wifi.history_scanned": "1/eval",
    "wifi.overlap_hit_ratio": "ratio",
    "wifi.data_attempts": "1/step",
    "wifi.data_failures": "1/step",
    "step.unattributed_s": "s/step",
    "trace.overhead": "ratio",
}

#: Span name -> per-step self-time metric.
_STEP_SPANS = {
    "events.move": "events.move_s",
    "events.reattach": "events.reattach_s",
    "policy.decide": "policy.decide_s",
    "epoch.run": "epoch.run_s",
    "sched.allocate": "sched.allocate_s",
    "shard.partial": "shard.partial_s",
    "shard.commit": "shard.commit_s",
    "shard.barrier": "shard.merge_s",
    "wifi.sinr": "wifi.sinr_s",
}

_STEP_COUNTS = (
    "gain.invalidations",
    "events.moves",
    "events.handovers",
    "policy.grant_changes",
    "epoch.dirty_aps",
    "epoch.clean_aps",
    "epoch.dirty_rows",
    "sched.calls",
    "sched.served_mbit",
    "engine.scheduled",
    "wifi.transmissions",
    "wifi.sinr_evals",
    "wifi.history_scanned",
    "wifi.overlap_hits",
    "wifi.data_attempts",
    "wifi.data_failures",
)


class _Span:
    __slots__ = ("name", "start", "end", "child_s", "parent", "step")

    def __init__(self, name: str, start: float, parent, step: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.parent = parent
        self.step = step


class LayerTracer:
    """In-memory span recorder plus per-step layer aggregation."""

    def __init__(self) -> None:
        self.enabled = True
        self.spans: List[_Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.step = -1
        self._stack: List[_Span] = []
        self._patched: List[tuple] = []
        self._origin = time.perf_counter()
        #: One dict per traced step: raw self seconds and counts.
        self.traced_steps: List[Dict[str, float]] = []
        self.traced_raw_s: List[float] = []
        self.untraced_raw_s: List[float] = []
        self._step_spans_from = 0
        #: Seconds in ``after`` counters outside any span, this step.
        self.after_s = 0.0

    # -- Installing wrappers ---------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        span: Optional[str] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``span`` names the span (``None``: count-only wrapper); ``after``
        is called as ``after(result, *args)`` once the call returned,
        outside the span, while tracing is enabled.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            if span is None:
                result = original(*args, **kwargs)
            else:
                stack = tracer._stack
                parent = stack[-1] if stack else None
                record = _Span(span, time.perf_counter(), parent, tracer.step)
                stack.append(record)
                try:
                    result = original(*args, **kwargs)
                finally:
                    record.end = time.perf_counter()
                    stack.pop()
                    if parent is not None:
                        parent.child_s += record.end - record.start
                    tracer.spans.append(record)
            if after is not None:
                begin = time.perf_counter()
                after(result, *args)
                spent = time.perf_counter() - begin
                # The tracer's own work counts towards no layer.
                if tracer._stack:
                    tracer._stack[-1].child_s += spent
                else:
                    tracer.after_s += spent
            return result

        had_own = attr in vars(owner)
        self._patched.append((owner, attr, original, had_own))
        setattr(owner, attr, wrapper)

    def count(self, name: str, value: float = 1.0) -> None:
        if self.enabled:
            self.counts[name] += value

    def restore(self) -> None:
        """Undo every wrapper (module attributes included)."""
        for owner, attr, original, had_own in reversed(self._patched):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()

    # -- Step bookkeeping ------------------------------------------------

    def begin_step(self, index: int, traced: bool) -> None:
        self.step = index
        self.enabled = traced
        self.counts = defaultdict(float)
        self.after_s = 0.0
        self._step_spans_from = len(self.spans)

    def end_step(self, raw_s: float, extra_counts: Dict[str, float]) -> None:
        """Close the current timed step and aggregate its spans."""
        if not self.enabled:
            self.untraced_raw_s.append(raw_s)
            return
        self.enabled = False
        row: Dict[str, float] = defaultdict(float)
        top_level = 0.0
        for record in self.spans[self._step_spans_from:]:
            duration = record.end - record.start
            row[record.name] += duration - record.child_s
            if record.parent is None:
                top_level += duration
        for key, value in self.counts.items():
            row[key] += value
        for key, value in extra_counts.items():
            row[key] += value
        row["unattributed"] = raw_s - top_level - self.after_s
        self.traced_steps.append(dict(row))
        self.traced_raw_s.append(raw_s)

    # -- Reporting -------------------------------------------------------

    def layer_metrics(
        self, scale: float, setup: Dict[str, float]
    ) -> Dict[str, float]:
        """Per-layer metrics; host times scaled to reference seconds."""
        n = max(1, len(self.traced_steps))

        def per_step(key: str) -> float:
            return sum(row.get(key, 0.0) for row in self.traced_steps) / n

        out: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
        out.update(setup)
        for span, metric in _STEP_SPANS.items():
            out[metric] = per_step(span) * scale
        for key in _STEP_COUNTS:
            if key in out:
                out[key] = per_step(key)
        clean, dirty = per_step("epoch.clean_aps"), per_step("epoch.dirty_aps")
        out["epoch.block_reuse"] = clean / (clean + dirty) if clean + dirty else 0.0
        evals = per_step("wifi.sinr_evals")
        scanned = per_step("wifi.history_scanned")
        out["wifi.history_scanned"] = scanned / evals if evals else 0.0
        out["wifi.overlap_hit_ratio"] = (
            per_step("wifi.overlap_hits") / scanned if scanned else 0.0
        )
        imbalance = [row["shard.imbalance"] for row in self.traced_steps
                     if "shard.imbalance" in row]
        out["shard.imbalance"] = statistics.median(imbalance) if imbalance else 0.0
        out["step.unattributed_s"] = per_step("unattributed") * scale
        if self.traced_raw_s and self.untraced_raw_s:
            out["trace.overhead"] = statistics.median(
                self.traced_raw_s
            ) / statistics.median(self.untraced_raw_s)
        return out

    def table(self, metrics: Dict[str, float]) -> str:
        """The per-layer table: self time, counts and ratios."""
        lines = [f"{'metric':<24} {'value':>14}  unit"]
        for name, unit in PER_LAYER.items():
            lines.append(f"{name:<24} {metrics.get(name, 0.0):>14.6g}  {unit}")
        step = statistics.median(self.traced_raw_s) if self.traced_raw_s else 0.0
        lines.append(f"(traced steps: {len(self.traced_steps)}, untraced: "
                     f"{len(self.untraced_raw_s)}, raw traced step median "
                     f"{step:.4f} s)")
        remainders = ", ".join(
            f"{row['unattributed']:.4f}/{raw:.4f}"
            for row, raw in zip(self.traced_steps, self.traced_raw_s)
        )
        lines.append(f"unattributed/step raw seconds, per traced step: {remainders}")
        return "\n".join(lines)

    def chrome_trace(self) -> Dict[str, Any]:
        """All spans as a trace_event document (microseconds)."""
        events: List[Dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "perfbench"}},
        ]
        for record in self.spans:
            events.append({
                "name": record.name,
                "cat": record.name.split(".")[0],
                "ph": "X",
                "ts": (record.start - self._origin) * 1e6,
                "dur": (record.end - record.start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"step": record.step},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export(self, path) -> int:
        """Write and validate the trace; returns the event count."""
        from repro.obs.validate import validate_chrome_trace

        payload = self.chrome_trace()
        count = validate_chrome_trace(payload)
        with open(path, "w") as handle:
            json.dump(payload, handle)
        return count


# -- Where the wrappers go --------------------------------------------------


def instrument_setup(tracer: LayerTracer, bench_workloads) -> None:
    """Wrap the set-up entry points (before the first set-up)."""
    import repro.experiments.large_scale as large_scale

    tracer.wrap(large_scale, "build_scenario", "scenario.build")
    tracer.wrap(bench_workloads, "build_scenario", "scenario.build")
    tracer.wrap(large_scale, "ShardedNetwork", "shard.worker_build")


def setup_metrics(tracer: LayerTracer, repeat: int, cell: Any) -> Dict[str, float]:
    """Raw set-up layer times of set-up ``repeat`` (inclusive seconds)."""
    step = -(repeat + 1)
    out = {"scenario.build_s": 0.0, "shard.worker_build_s": 0.0,
           "gain.prefill_s": 0.0}
    for record in tracer.spans:
        if record.step == step:
            key = {"scenario.build": "scenario.build_s",
                   "shard.worker_build": "shard.worker_build_s"}[record.name]
            out[key] += record.end - record.start
    net = getattr(cell, "net", None)
    if hasattr(net, "worker_build_stats"):
        out["gain.prefill_s"] = sum(
            s["gain_prefill_s"] or 0.0 for s in net.worker_build_stats()
        )
    elif net is not None:
        out["gain.prefill_s"] = net.gain_prefill_s
    return out


def instrument_cell(tracer: LayerTracer, cell: Any) -> Callable[[], Dict[str, float]]:
    """Wrap the step-phase calls of a built cell.

    Returns a callable giving the extra per-step counts read at each step
    boundary (epoch-backend stats, shard imbalance, Wi-Fi MAC counters).
    """
    if hasattr(cell, "step_epoch"):
        return _instrument_lte(tracer, cell)
    return _instrument_wifi(tracer, cell)


def _instrument_lte(tracer: LayerTracer, cell: Any) -> Callable[[], Dict[str, float]]:
    net = cell.net
    tracer.wrap(net, "move_client", "events.move",
                after=lambda _r, *_a: tracer.count("events.moves"))
    tracer.wrap(net, "reattach_client", "events.reattach",
                after=lambda _r, *_a: tracer.count("events.handovers"))
    previous: Dict[str, Any] = {"grants": None}

    def count_grant_changes(allowed, *_args) -> None:
        before = previous["grants"]
        if before is not None:
            tracer.count("policy.grant_changes", sum(
                1 for ap, subs in allowed.items() if before.get(ap) != subs
            ))
        previous["grants"] = {ap: set(subs) for ap, subs in allowed.items()}

    tracer.wrap(cell.policy, "decide", "policy.decide", after=count_grant_changes)
    workers = getattr(net, "workers", None)
    if workers is not None:
        tracer.wrap(net, "run_epoch", "shard.barrier")
        for worker in workers:
            tracer.wrap(worker, "begin_epoch", "shard.partial")
            tracer.wrap(worker, "read_partial", "shard.partial")
            tracer.wrap(worker, "commit_epoch", "shard.commit")
            tracer.wrap(worker, "read_result", "shard.commit")
        inner = [worker.net for worker in workers]
    else:
        inner = [net]

    def count_allocation(allocation, *_args) -> None:
        tracer.count("sched.calls")
        tracer.count("sched.served_mbit", sum(allocation.served_bits.values()) / 1e6)

    for sim in inner:
        tracer.wrap(sim, "run_epoch", "epoch.run")
        tracer.wrap(sim.gain_cache, "invalidate_client",
                    after=lambda _r, *_a: tracer.count("gain.invalidations"))
        for scheduler in sim.schedulers.values():
            tracer.wrap(scheduler, "allocate", "sched.allocate",
                        after=count_allocation)

    def extra() -> Dict[str, float]:
        stats = net.last_epoch_stats
        out = {
            f"epoch.{key}": float(stats.get(key, 0))
            for key in ("dirty_aps", "clean_aps", "dirty_rows")
        }
        compute = getattr(net, "last_epoch_compute_s", None)
        if compute:
            mean = sum(compute) / len(compute)
            out["shard.imbalance"] = max(compute) / mean if mean else 0.0
        return out

    return extra


def _instrument_wifi(tracer: LayerTracer, wifi: Any) -> Callable[[], Dict[str, float]]:
    medium = wifi.medium
    tracer.wrap(wifi.sim, "schedule",
                after=lambda _r, *_a: tracer.count("engine.scheduled"))
    tracer.wrap(medium, "transmit",
                after=lambda _r, *_a: tracer.count("wifi.transmissions"))

    def scan_history(_result, tx, *_args) -> None:
        # Mirrors WifiMedium.sinr_db's loop: which history entries reach
        # Transmission.overlap_fraction, and how many of them overlap.
        scanned = hits = 0
        for other in medium._history:
            if other is tx or other.src == tx.src or other.src == tx.dst:
                continue
            scanned += 1
            if tx.overlap_fraction(other) > 0.0:
                hits += 1
        tracer.count("wifi.sinr_evals")
        tracer.count("wifi.history_scanned", scanned)
        tracer.count("wifi.overlap_hits", hits)

    tracer.wrap(medium, "sinr_db", "wifi.sinr", after=scan_history)
    last = {"attempts": 0, "failures": 0}

    def extra() -> Dict[str, float]:
        attempts = failures = 0
        for node in wifi.nodes.values():
            for stats in node.stats.values():
                attempts += stats.data_attempts
                failures += stats.data_failures
        out = {
            "wifi.data_attempts": float(attempts - last["attempts"]),
            "wifi.data_failures": float(failures - last["failures"]),
        }
        last["attempts"], last["failures"] = attempts, failures
        return out

    return extra
