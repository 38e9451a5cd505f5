"""End-to-end benchmark of the CellFi simulator: one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload metro-lte-static --seed 3 \\
        --seconds 14 --trace 0

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics
(host times in reference-host seconds, see ``refclock.py``); ``--trace 1``
reports the per-layer metrics instead, prints the per-layer table and
writes a validated trace_event file under ``perfbench/out/``.

Every run's result digest must equal the one recorded in
``perfbench/digests.json`` for its workload, input variant and step count;
a mismatch marks every timed step failed and the run exits 1.
``--record`` stores the digest instead of checking it.

The digests are regression goldens: the simulator is not validated
against real-world measurements here, so no error figure is claimed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
OUT_DIR = HERE / "out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "step_p50_s": "s",
    "sim_s_per_wall_s": "s/s",
    "peak_rss_mb": "MB",
}


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _load_digests() -> Dict[str, Dict[str, str]]:
    if DIGESTS.exists():
        return json.loads(DIGESTS.read_text())
    return {}


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's digest instead of checking it")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def run(args: argparse.Namespace) -> int:
    import numpy as np

    import layers
    import refclock
    import workloads
    from repro.phy import vecmath

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    variant = args.seed % workloads.SEED_POOL
    n_timed = workload.timed_steps(args.seconds)
    warmup = workload.warmup_steps
    n_total = warmup + n_timed
    tracer: Optional[layers.LayerTracer] = (
        layers.LayerTracer() if args.trace else None
    )

    # -- Set-up (timed, repeated) -----------------------------------------
    if tracer is not None:
        layers.instrument_setup(tracer, workloads)
    setup_clock = refclock.RefClock()
    setup_layers: List[Dict[str, float]] = []
    cell: Any = None
    setup_clock.mark()
    for repeat in range(workload.setup_repeats):
        cell = None
        gc.collect()
        if tracer is not None:
            tracer.step = -(repeat + 1)
        start = time.perf_counter()
        cell = workload.setup(variant, n_total)
        setup_clock.record(time.perf_counter() - start)
        setup_clock.mark()
        if tracer is not None:
            setup_layers.append(layers.setup_metrics(tracer, repeat, cell))

    # -- Inputs (untimed) -------------------------------------------------
    inputs = workload.prepare(cell, variant, n_total)
    step_extra = layers.instrument_cell(tracer, cell) if tracer else None

    # -- Steps --------------------------------------------------------------
    clock = refclock.RefClock()
    laps: List[int] = []  # clock intervals of the step in progress
    step_laps: List[List[int]] = []  # per timed step

    def start_step(index: int) -> None:
        if tracer is None:
            return
        if warmup <= index < n_total:
            tracer.begin_step(index, traced=(index - warmup) % 2 == 0)
        else:
            tracer.enabled = False

    def lap(raw_s: float) -> None:
        clock.record(raw_s)
        laps.append(len(clock.raw_s) - 1)
        clock.mark()

    def on_step(index: int, _outcome: Any) -> None:
        # Read the per-step counters at every boundary, so that warm-up
        # never leaks into the first timed step's deltas.
        extra = step_extra() if step_extra is not None else {}
        if index < 0:
            clock.mark()
        elif index >= warmup:
            step_laps.append(list(laps))
            if tracer is not None:
                tracer.end_step(sum(clock.raw_s[j] for j in laps), extra)
        laps.clear()
        start_step(index + 1)

    if tracer is not None:
        tracer.enabled = False
    payload = workload.run(cell, inputs, n_total, lap, on_step)
    digest = hashlib.sha256(payload).hexdigest()
    if tracer is not None:
        tracer.restore()

    # -- Correctness gate ---------------------------------------------------
    key = f"v{variant}/steps{n_total}"
    recorded = _load_digests()
    if args.record:
        recorded.setdefault(workload.name, {})[key] = digest
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        expected = digest
    else:
        expected = recorded.get(workload.name, {}).get(key)
    correct = digest == expected
    failed = 0 if correct else n_timed

    # -- Metrics -------------------------------------------------------------
    steps_raw = [sum(clock.raw_s[j] for j in js) for js in step_laps]
    steps_ref = [sum(clock.ref_s[j] for j in js) for js in step_laps]
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_clock.ref_s),
            "step_p50_s": statistics.median(steps_ref),
            "sim_s_per_wall_s": n_timed / sum(steps_ref),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        setup_scale = statistics.median(
            ref / raw for ref, raw in zip(setup_clock.ref_s, setup_clock.raw_s)
        )
        setup_part = {
            name: statistics.median(row[name] for row in setup_layers) * setup_scale
            for name in setup_layers[0]
        }
        scale = statistics.median(
            ref / raw for ref, raw in zip(steps_ref, steps_raw)
        )
        metrics = tracer.layer_metrics(scale, setup_part)
        units = layers.PER_LAYER
        print(f"per-layer table: {workload.name} (variant {variant})")
        print(tracer.table(metrics))

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "variant": variant,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "vecmath_vectorized": vecmath.vectorized_report(),
        "warmup_excluded_sim_s": workload.warmup_sim_s,
        "samples": {
            "setup_s": len(setup_clock.raw_s),
            "step_p50_s": len(step_laps),
            "sim_s_per_wall_s": len(step_laps),
            "peak_rss_mb": 1,
        },
        "k_ref_s": refclock.K_REF_S,
        "setup_raw_s": setup_clock.raw_s,
        "setup_k_now_s": setup_clock.k_samples,
        "step_raw_s": steps_raw,
        "step_ref_s": steps_ref,
        "lap_raw_s": clock.raw_s,
        "lap_k_now_s": clock.k_samples,
        "digest": digest,
        "expected_digest": expected,
        "validation": (
            "model unvalidated against real-world measurements; digests "
            "are regression goldens, no error figure is claimed"
        ),
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        count = tracer.export(OUT_DIR / f"{stem}.trace.json")
        print(f"trace: {OUT_DIR / (stem + '.trace.json')} ({count} events)")
    if expected is None:
        print(f"no digest recorded for {workload.name} {key}; digests are "
              "recorded for BENCHMARK.json's run_seconds (see --record)",
              file=sys.stderr)
    elif not correct:
        print(f"digest mismatch for {workload.name} {key}: got {digest}, "
              f"recorded {expected}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": n_timed,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


def main(argv: List[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: simulator sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    return run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
