"""Parallel, fault-tolerant sweep runner for experiment grids.

Every paper figure is a grid of independent scenario cells
(seed x configuration x technology).  This module turns such a grid into
a :class:`SweepSpec` and fans it out across worker processes:

* **Caching / resume** -- each cell is keyed by a stable hash of its
  (scenario, params) config; a re-run against an existing JSONL results
  log skips cells that already completed, recomputing only the missing
  or failed ones.
* **Fault tolerance** -- each cell runs in its own worker process with a
  per-task timeout and bounded retry, so one hung or crashed scenario
  degrades to a recorded ``timeout``/``failed`` record instead of
  killing the sweep (or its sibling tasks).
* **JSONL results log** -- one record per cell (config hash, params,
  outcome, wall time, metrics) appended as cells complete (crash-safe)
  and canonically rewritten in task order when the sweep finishes, so
  :mod:`repro.utils.reportgen` can aggregate paper-vs-measured tables
  from it.

Determinism discipline: a scenario cell must derive *all* randomness
from its own params (see :class:`repro.sim.rng.RngStreams`), never from
process-global state, so the same grid produces identical metrics at any
``jobs`` level and in any completion order.

Example::

    from repro.experiments.large_scale import fig9a_sweep_spec
    from repro.experiments.sweep import run_sweep

    result = run_sweep(fig9a_sweep_spec(densities=(6, 10), seeds=(1, 2)),
                       jobs=4, timeout_s=300.0, retries=1,
                       out_path="sweep.jsonl", resume=True)
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import multiprocessing as mp
import multiprocessing.connection
import os
import pathlib
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

#: Task outcome labels recorded in the JSONL log.
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"

#: Built-in scenario cells, resolved lazily (``module:function``) so the
#: registry never imports the heavy experiment modules until a worker
#: actually needs one, and so spawned workers can resolve them by name.
_BUILTIN_SCENARIOS: Dict[str, str] = {
    "large_scale_saturated": "repro.experiments.large_scale:large_scale_saturated_cell",
    "convergence": "repro.experiments.convergence:convergence_cell",
    "fig7_walk": "repro.experiments.interference_exp:fig7_cell",
    "fig1_drive_test": "repro.experiments.coverage:fig1_cell",
    "fig2_wifi_macs": "repro.experiments.wifi_macs:fig2_cell",
    "db_outage": "repro.experiments.db_outage:db_outage_cell",
}

#: Scenarios registered at runtime (tests, downstream extensions).
_SCENARIOS: Dict[str, Callable[..., Mapping[str, Any]]] = {}


def scenario(name: str) -> Callable:
    """Decorator: register a scenario cell function under ``name``.

    Runtime-registered callables are only visible to worker processes
    under the ``fork`` start method (the default on Linux); with
    ``spawn``, register via a ``module:function`` path instead.
    """

    def _register(fn: Callable[..., Mapping[str, Any]]) -> Callable:
        _SCENARIOS[name] = fn
        return fn

    return _register


def get_scenario(name: str) -> Callable[..., Mapping[str, Any]]:
    """Resolve a scenario name to its cell function."""
    if name in _SCENARIOS:
        return _SCENARIOS[name]
    if name in _BUILTIN_SCENARIOS:
        module_name, _, attr = _BUILTIN_SCENARIOS[name].partition(":")
        return getattr(importlib.import_module(module_name), attr)
    raise KeyError(
        f"unknown sweep scenario {name!r}; known: "
        f"{sorted(set(_SCENARIOS) | set(_BUILTIN_SCENARIOS))}"
    )


def _json_default(value: Any) -> Any:
    """Coerce numpy scalars (and similar) for canonical JSON."""
    for attr in ("item",):
        if hasattr(value, attr):
            return value.item()
    raise TypeError(f"not JSON-serialisable: {value!r} ({type(value).__name__})")


def canonical_json(payload: Any) -> str:
    """Canonical JSON used for both hashing and the results log."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=_json_default
    )


def config_hash(scenario_name: str, params: Mapping[str, Any]) -> str:
    """Stable hash of one cell's full configuration (the cache key)."""
    blob = canonical_json({"scenario": scenario_name, "params": dict(params)})
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class SweepTask:
    """One grid cell: a scenario name plus its JSON-able parameters."""

    scenario: str
    params: Tuple[Tuple[str, Any], ...]

    @staticmethod
    def make(scenario_name: str, params: Mapping[str, Any]) -> "SweepTask":
        """Build a task, normalising params into a hashable sorted tuple."""
        return SweepTask(
            scenario=scenario_name, params=tuple(sorted(params.items()))
        )

    @property
    def params_dict(self) -> Dict[str, Any]:
        """The cell parameters as a plain dict."""
        return dict(self.params)

    @property
    def config_hash(self) -> str:
        """The cell's stable cache key."""
        return config_hash(self.scenario, self.params_dict)


@dataclass
class SweepSpec:
    """A named, ordered list of grid cells to evaluate."""

    name: str
    tasks: List[SweepTask] = field(default_factory=list)

    @classmethod
    def from_grid(
        cls,
        name: str,
        scenario_name: str,
        grid: Mapping[str, Sequence[Any]],
        base: Optional[Mapping[str, Any]] = None,
    ) -> "SweepSpec":
        """Cartesian-product a grid of axes into cells, in axis order.

        ``grid`` maps parameter name to the values it sweeps; ``base``
        holds parameters common to every cell.  Later axes vary fastest,
        matching nested-loop order.
        """
        axes = list(grid.items())
        base = dict(base or {})
        tasks = []
        for combo in itertools.product(*(values for _, values in axes)):
            params = dict(base)
            params.update({key: value for (key, _), value in zip(axes, combo)})
            tasks.append(SweepTask.make(scenario_name, params))
        return cls(name=name, tasks=tasks)

    def __len__(self) -> int:
        return len(self.tasks)


@dataclass
class TaskRecord:
    """Outcome of one cell, as serialised into the JSONL log."""

    task_id: int
    config_hash: str
    scenario: str
    params: Dict[str, Any]
    status: str
    attempts: int
    wall_time_s: float
    metrics: Dict[str, Any]
    error: Optional[str] = None
    worker_pid: Optional[int] = None
    cached: bool = False
    telemetry: Optional[Dict[str, Any]] = None

    def to_json(self) -> str:
        """One canonical JSONL line (``cached`` is runtime-only state).

        The ``telemetry`` key only appears when a snapshot was collected,
        so logs from plain sweeps stay byte-identical to older ones.
        """
        payload = {
            "task_id": self.task_id,
            "config_hash": self.config_hash,
            "scenario": self.scenario,
            "params": self.params,
            "status": self.status,
            "attempts": self.attempts,
            "wall_time_s": round(self.wall_time_s, 6),
            "metrics": self.metrics,
            "error": self.error,
            "worker_pid": self.worker_pid,
        }
        if self.telemetry is not None:
            payload["telemetry"] = self.telemetry
        return canonical_json(payload)

    @staticmethod
    def from_json(line: str) -> "TaskRecord":
        payload = json.loads(line)
        return TaskRecord(
            task_id=int(payload["task_id"]),
            config_hash=payload["config_hash"],
            scenario=payload["scenario"],
            params=payload.get("params", {}),
            status=payload["status"],
            attempts=int(payload.get("attempts", 1)),
            wall_time_s=float(payload.get("wall_time_s", 0.0)),
            metrics=payload.get("metrics", {}),
            error=payload.get("error"),
            worker_pid=payload.get("worker_pid"),
            telemetry=payload.get("telemetry"),
        )


@dataclass
class SweepResult:
    """All cell records of one sweep, ordered by task id."""

    spec_name: str
    records: List[TaskRecord]
    computed: int = 0
    reused: int = 0

    def by_status(self, status: str) -> List[TaskRecord]:
        """Records with the given outcome."""
        return [r for r in self.records if r.status == status]

    @property
    def ok(self) -> List[TaskRecord]:
        """Successfully-computed (or cache-reused) records."""
        return self.by_status(STATUS_OK)

    def metrics_by_hash(self) -> Dict[str, Dict[str, Any]]:
        """Map config hash -> metrics for every successful cell."""
        return {r.config_hash: r.metrics for r in self.ok}

    def raise_on_failures(self) -> None:
        """Raise if any cell did not complete successfully."""
        bad = [r for r in self.records if r.status != STATUS_OK]
        if bad:
            detail = "; ".join(
                f"task {r.task_id} ({r.scenario} {r.config_hash}): "
                f"{r.status}: {r.error}"
                for r in bad[:5]
            )
            raise RuntimeError(
                f"sweep {self.spec_name!r}: {len(bad)} cell(s) did not "
                f"complete: {detail}"
            )


def load_records(path: Union[str, pathlib.Path]) -> List[TaskRecord]:
    """Parse a JSONL results log, skipping blank or half-written lines.

    A crashed run can leave a truncated final line; tolerating it is what
    makes ``--resume`` safe against mid-write interruption.
    """
    records: List[TaskRecord] = []
    path = pathlib.Path(path)
    if not path.exists():
        return records
    with path.open() as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(TaskRecord.from_json(line))
            except (json.JSONDecodeError, KeyError, ValueError):
                continue
    return records


def _task_checkpoint(
    checkpoint_dir: Optional[Union[str, pathlib.Path]],
    checkpoint_every: Optional[float],
    task: SweepTask,
) -> Optional[Dict[str, Any]]:
    """Per-cell checkpoint spec: a subdirectory keyed by the config hash.

    The key is the same stable hash the results cache uses, so a retried
    or resumed cell always finds its own snapshots and never a sibling's.
    """
    if checkpoint_dir is None:
        return None
    spec: Dict[str, Any] = {
        "dir": os.path.join(str(checkpoint_dir), task.config_hash)
    }
    if checkpoint_every is not None:
        spec["every"] = checkpoint_every
    return spec


def _run_cell(
    scenario_name: str,
    params: Dict[str, Any],
    collect_telemetry: bool,
    checkpoint: Optional[Dict[str, Any]] = None,
) -> Tuple[Dict[str, Any], float, Optional[Dict[str, Any]]]:
    """Run one cell; returns (metrics, wall_s, telemetry-or-None).

    With ``collect_telemetry`` the cell runs under its *own* cell-local
    :class:`~repro.obs.Telemetry` (metrics only -- no tracer, no
    profiler), so the snapshot it ships back depends only on the cell's
    params, never on which worker ran it or what ran before.  Metrics
    and snapshot both round-trip through canonical JSON so parent-side
    values are exactly what a resume would read back from the log.

    ``checkpoint`` is only forwarded to cell functions that advertise
    ``supports_checkpoint``; it stays out of the cell's params so the
    config hash (the cache key) is unaffected.
    """
    fn = get_scenario(scenario_name)
    kwargs = dict(params)
    if checkpoint is not None and getattr(fn, "supports_checkpoint", False):
        kwargs["checkpoint"] = checkpoint
    telemetry: Optional[Dict[str, Any]] = None
    start = time.perf_counter()
    if collect_telemetry:
        from repro.obs import Telemetry, activated

        cell_tel = Telemetry()
        with activated(cell_tel):
            metrics = fn(**kwargs)
        telemetry = json.loads(canonical_json(cell_tel.snapshot()))
    else:
        metrics = fn(**kwargs)
    wall = time.perf_counter() - start
    return json.loads(canonical_json(dict(metrics))), wall, telemetry


def _worker_entry(
    conn,
    scenario_name: str,
    params: Dict[str, Any],
    collect_telemetry: bool = False,
    checkpoint: Optional[Dict[str, Any]] = None,
) -> None:
    """Run one cell in a worker process and ship the outcome back."""
    try:
        metrics, wall, telemetry = _run_cell(
            scenario_name, params, collect_telemetry, checkpoint=checkpoint
        )
        conn.send((STATUS_OK, metrics, wall, telemetry))
    except BaseException as error:  # noqa: BLE001 - report, don't crash silently
        conn.send((STATUS_FAILED, f"{type(error).__name__}: {error}", 0.0, None))
    finally:
        conn.close()


def _default_context() -> mp.context.BaseContext:
    """Prefer ``fork`` (fast, sees runtime-registered scenarios)."""
    if "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context("spawn")


@dataclass
class _Active:
    """Book-keeping for one in-flight worker process."""

    task_id: int
    attempt: int
    process: mp.process.BaseProcess
    conn: multiprocessing.connection.Connection
    started: float
    deadline: Optional[float]


def _run_inline(
    spec: SweepSpec,
    skip: Dict[str, TaskRecord],
    collect_telemetry: bool = False,
    checkpoint_dir: Optional[Union[str, pathlib.Path]] = None,
    checkpoint_every: Optional[float] = None,
) -> Iterable[TaskRecord]:
    """In-process execution (``jobs=0``): no isolation, no timeouts.

    Telemetry collection uses the same cell-local instance as the worker
    path, so inline and pooled sweeps produce identical snapshots.
    """
    for task_id, task in enumerate(spec.tasks):
        key = task.config_hash
        if key in skip:
            yield _as_cached(task_id, skip[key])
            continue
        start = time.perf_counter()
        try:
            metrics, wall, telemetry = _run_cell(
                task.scenario,
                task.params_dict,
                collect_telemetry,
                checkpoint=_task_checkpoint(
                    checkpoint_dir, checkpoint_every, task
                ),
            )
            yield TaskRecord(
                task_id=task_id,
                config_hash=key,
                scenario=task.scenario,
                params=task.params_dict,
                status=STATUS_OK,
                attempts=1,
                wall_time_s=wall,
                metrics=metrics,
                worker_pid=os.getpid(),
                telemetry=telemetry,
            )
        except Exception as error:  # noqa: BLE001
            yield TaskRecord(
                task_id=task_id,
                config_hash=key,
                scenario=task.scenario,
                params=task.params_dict,
                status=STATUS_FAILED,
                attempts=1,
                wall_time_s=time.perf_counter() - start,
                metrics={},
                error=f"{type(error).__name__}: {error}",
                worker_pid=os.getpid(),
            )


def _as_cached(task_id: int, prior: TaskRecord) -> TaskRecord:
    """Re-emit a prior successful record under the current task id."""
    return TaskRecord(
        task_id=task_id,
        config_hash=prior.config_hash,
        scenario=prior.scenario,
        params=prior.params,
        status=prior.status,
        attempts=prior.attempts,
        wall_time_s=prior.wall_time_s,
        metrics=prior.metrics,
        error=prior.error,
        worker_pid=prior.worker_pid,
        cached=True,
        telemetry=prior.telemetry,
    )


def _run_pool(
    spec: SweepSpec,
    skip: Dict[str, TaskRecord],
    jobs: int,
    timeout_s: Optional[float],
    retries: int,
    ctx: mp.context.BaseContext,
    join_grace_s: float = 5.0,
    collect_telemetry: bool = False,
    checkpoint_dir: Optional[Union[str, pathlib.Path]] = None,
    checkpoint_every: Optional[float] = None,
) -> Iterable[TaskRecord]:
    """Process-per-task pool: up to ``jobs`` cells in flight at once.

    Yields records in *completion* order; the caller re-orders for the
    canonical log.  A cell that raises is retried up to ``retries``
    times; one that outlives ``timeout_s`` is terminated and retried the
    same way.  Either way the final record carries the outcome instead
    of propagating into the sweep.

    With ``checkpoint_dir`` set, a checkpoint-capable cell snapshots
    mid-run; its retry after a crash or timeout then restores from the
    latest snapshot instead of replaying the cell from the start.
    """
    for task_id, task in enumerate(spec.tasks):
        if task.config_hash in skip:
            yield _as_cached(task_id, skip[task.config_hash])
    pending = deque(
        (task_id, 1)
        for task_id, task in enumerate(spec.tasks)
        if task.config_hash not in skip
    )
    active: List[_Active] = []
    errors: Dict[int, str] = {}

    def _launch(task_id: int, attempt: int) -> None:
        task = spec.tasks[task_id]
        recv, send = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_worker_entry,
            args=(
                send,
                task.scenario,
                task.params_dict,
                collect_telemetry,
                _task_checkpoint(checkpoint_dir, checkpoint_every, task),
            ),
            daemon=True,
        )
        process.start()
        send.close()
        now = time.monotonic()
        active.append(
            _Active(
                task_id=task_id,
                attempt=attempt,
                process=process,
                conn=recv,
                started=now,
                deadline=now + timeout_s if timeout_s else None,
            )
        )

    def _reap(worker: _Active) -> Tuple[str, Any, float, Optional[Dict[str, Any]]]:
        """Collect (status, payload, wall, telemetry) from a worker."""
        outcome: Tuple[str, Any, float, Optional[Dict[str, Any]]]
        if worker.conn.poll():
            try:
                outcome = worker.conn.recv()
            except (EOFError, OSError):
                worker.process.join(join_grace_s)
                outcome = (
                    STATUS_FAILED,
                    "worker died without reporting "
                    f"(exit code {worker.process.exitcode})",
                    time.monotonic() - worker.started,
                    None,
                )
        elif worker.deadline is not None and time.monotonic() >= worker.deadline:
            outcome = (
                STATUS_TIMEOUT,
                f"exceeded timeout of {timeout_s:g} s",
                time.monotonic() - worker.started,
                None,
            )
            worker.process.terminate()
        else:
            code = worker.process.exitcode
            outcome = (
                STATUS_FAILED,
                f"worker exited without reporting (exit code {code})",
                time.monotonic() - worker.started,
                None,
            )
        worker.process.join(join_grace_s)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join(join_grace_s)
        worker.conn.close()
        return outcome

    try:
        while pending or active:
            while pending and len(active) < max(jobs, 1):
                _launch(*pending.popleft())
            if not active:
                continue
            next_deadline = min(
                (w.deadline for w in active if w.deadline is not None),
                default=None,
            )
            wait_s = 0.05
            if next_deadline is not None:
                wait_s = min(wait_s, max(next_deadline - time.monotonic(), 0.0))
            multiprocessing.connection.wait(
                [w.conn for w in active], timeout=wait_s
            )
            still_active: List[_Active] = []
            for worker in active:
                done = (
                    worker.conn.poll()
                    or not worker.process.is_alive()
                    or (
                        worker.deadline is not None
                        and time.monotonic() >= worker.deadline
                    )
                )
                if not done:
                    still_active.append(worker)
                    continue
                status, payload, wall, telemetry = _reap(worker)
                task = spec.tasks[worker.task_id]
                if status == STATUS_OK:
                    yield TaskRecord(
                        task_id=worker.task_id,
                        config_hash=task.config_hash,
                        scenario=task.scenario,
                        params=task.params_dict,
                        status=STATUS_OK,
                        attempts=worker.attempt,
                        wall_time_s=wall,
                        metrics=payload,
                        worker_pid=worker.process.pid,
                        telemetry=telemetry,
                    )
                elif worker.attempt <= retries:
                    errors[worker.task_id] = payload
                    pending.append((worker.task_id, worker.attempt + 1))
                else:
                    yield TaskRecord(
                        task_id=worker.task_id,
                        config_hash=task.config_hash,
                        scenario=task.scenario,
                        params=task.params_dict,
                        status=status,
                        attempts=worker.attempt,
                        wall_time_s=wall,
                        metrics={},
                        error=str(payload),
                        worker_pid=worker.process.pid,
                    )
            active = still_active
    finally:
        for worker in active:
            worker.process.terminate()
            worker.process.join(join_grace_s)
            if worker.process.is_alive():
                worker.process.kill()
            worker.conn.close()


def run_sweep(
    spec: SweepSpec,
    jobs: int = 1,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    out_path: Optional[Union[str, pathlib.Path]] = None,
    resume: bool = False,
    start_method: Optional[str] = None,
    collect_telemetry: bool = False,
    checkpoint_dir: Optional[Union[str, pathlib.Path]] = None,
    checkpoint_every: Optional[float] = None,
) -> SweepResult:
    """Evaluate every cell of ``spec`` and return the ordered records.

    Args:
        jobs: worker processes to keep in flight.  ``0`` runs the cells
            inline in this process (no isolation; ``timeout_s`` and
            ``retries`` are ignored) -- the mode the figure drivers use.
        timeout_s: per-cell wall-clock limit; a cell past it is
            terminated and recorded as ``timeout`` (after retries).
        retries: extra attempts granted to a failed/timed-out cell.
        out_path: JSONL results log.  Records append as cells complete
            (crash-safe) and the file is rewritten in canonical task
            order when the sweep finishes.
        resume: reuse successful records found in ``out_path`` whose
            config hash matches a cell of this sweep; only missing or
            unsuccessful cells are recomputed.
        start_method: multiprocessing start method override
            (default: ``fork`` where available, else ``spawn``).
        collect_telemetry: run each cell under a cell-local metrics-only
            :class:`~repro.obs.Telemetry` and embed its snapshot in the
            record (and the JSONL log, under a ``telemetry`` key).
            Snapshots are deterministic: identical at any ``jobs`` level.
        checkpoint_dir: root directory for mid-cell snapshots.  Each
            checkpoint-capable cell writes to ``<dir>/<config_hash>/``
            and, when re-executed (a retry after a crash/timeout, or a
            fresh sweep over the same directory), resumes from the latest
            snapshot found there.  Cells without checkpoint support run
            unchanged.
        checkpoint_every: snapshot cadence, in each driver's own unit
            (sim seconds, epochs or replications); drivers default it
            when omitted.
    """
    skip: Dict[str, TaskRecord] = {}
    wanted = {task.config_hash for task in spec.tasks}
    if resume and out_path is not None:
        for record in load_records(out_path):
            if record.status == STATUS_OK and record.config_hash in wanted:
                skip[record.config_hash] = record

    if jobs <= 0:
        produced = _run_inline(
            spec,
            skip,
            collect_telemetry=collect_telemetry,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
        )
    else:
        ctx = (
            mp.get_context(start_method) if start_method else _default_context()
        )
        produced = _run_pool(
            spec, skip, jobs, timeout_s, retries, ctx,
            collect_telemetry=collect_telemetry,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
        )

    records: List[TaskRecord] = []
    log_handle = None
    if out_path is not None:
        path = pathlib.Path(out_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        log_handle = path.open("a" if resume else "w")
    try:
        for record in produced:
            records.append(record)
            if log_handle is not None and not record.cached:
                log_handle.write(record.to_json() + "\n")
                log_handle.flush()
    finally:
        if log_handle is not None:
            log_handle.close()

    records.sort(key=lambda r: r.task_id)
    if out_path is not None:
        _rewrite_canonical(pathlib.Path(out_path), records)
    return SweepResult(
        spec_name=spec.name,
        records=records,
        computed=sum(1 for r in records if not r.cached),
        reused=sum(1 for r in records if r.cached),
    )


def _rewrite_canonical(path: pathlib.Path, records: List[TaskRecord]) -> None:
    """Atomically replace the log with records in canonical task order."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    with tmp.open("w") as handle:
        for record in records:
            handle.write(record.to_json() + "\n")
    os.replace(tmp, path)
