#!/usr/bin/env python
"""Benchmark telemetry overhead on the LTE epoch hot path.

The observability layer (``repro.obs``) promises near-zero cost when
disabled: every instrumentation site is a module-global lookup plus a
``None`` check.  This benchmark quantifies that promise against the
reference epoch timings in ``BENCH_epoch.json`` (recorded by
``bench_epoch.py`` and refreshed alongside ``BENCH_obs.json``; both time
the fastest of ``REPEATS`` fresh networks through
``bench_epoch.best_of``), and measures what enabling metrics / tracing actually
costs.  Results go to the untracked ``bench-obs-current.json`` at the
repository root; only an explicit ``--output BENCH_obs.json`` re-records
the committed reference that ``make bench-obs`` diffs the fresh run
against.

Three configurations are timed on the production incremental epoch:

* ``disabled``  -- no active Telemetry (the default for every run).
* ``metrics``   -- counters/gauges/histograms collected, no tracer.
* ``traced``    -- full tracing + profiling (the ``--trace --profile`` CLI).

The disabled configuration must stay within ``--tolerance`` (default
3%) of the ``BENCH_epoch.json`` reference per-epoch time; the run exits
non-zero if it regresses or if a gated size has no reference entry.
``--smoke`` skips the assertion (shared CI runners are too noisy for a
3% gate) but still records the ratios.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py           # full
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --smoke   # CI
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --output BENCH_obs.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List, Optional

from bench_epoch import REPEATS, best_of

from repro.obs import Telemetry

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "bench-obs-current.json"
REFERENCE_PATH = REPO_ROOT / "BENCH_epoch.json"

DEFAULT_SIZES = (10, 50)
DEFAULT_TOLERANCE = 1.03

#: The timed configurations: name -> Telemetry factory (None = disabled).
CONFIGS = (
    ("disabled", None),
    ("metrics", lambda: Telemetry()),
    ("traced", lambda: Telemetry(trace=True, profile=True)),
)


def load_reference(path: pathlib.Path) -> Dict[int, float]:
    """Incremental per-epoch reference seconds by cell count."""
    if not path.exists():
        return {}
    payload = json.loads(path.read_text())
    reference: Dict[int, float] = {}
    for entry in payload.get("results", []):
        timing = entry.get("incremental")
        if timing:
            reference[int(entry["cells"])] = float(timing["per_epoch_s"])
    return reference


def run_benchmark(
    sizes: List[int], n_epochs: int, repeats: int, tolerance: float,
    check: bool,
) -> Dict:
    reference = load_reference(REFERENCE_PATH)
    results = []
    failures: List[str] = []
    for n_cells in sizes:
        entry: Dict = {"cells": n_cells}
        for name, factory in CONFIGS:
            timing = best_of(n_cells, n_epochs, repeats, telemetry=factory)
            entry[name] = {"per_epoch_s": timing["per_epoch_s"]}
        disabled_s = entry["disabled"]["per_epoch_s"]
        for name, _ in CONFIGS[1:]:
            entry[name]["vs_disabled"] = entry[name]["per_epoch_s"] / disabled_s
        ref_s: Optional[float] = reference.get(n_cells)
        if check and not ref_s:
            # A gate with nothing to compare against must fail loudly, not
            # pass by skipping the size.
            failures.append(
                f"{n_cells} cells: no incremental reference entry in "
                f"{REFERENCE_PATH.name}"
            )
        if ref_s:
            entry["reference_per_epoch_s"] = ref_s
            entry["disabled"]["vs_reference"] = disabled_s / ref_s
            if check and disabled_s / ref_s > tolerance:
                failures.append(
                    f"{n_cells} cells: disabled-telemetry epoch took "
                    f"{disabled_s * 1e3:.1f} ms vs reference "
                    f"{ref_s * 1e3:.1f} ms "
                    f"(ratio {disabled_s / ref_s:.3f} > {tolerance:g})"
                )
        print(
            f"{n_cells:4d} cells  disabled {disabled_s * 1e3:8.1f} ms/epoch"
            + (f"  ({disabled_s / ref_s:.3f}x of reference)" if ref_s else "")
        )
        for name, _ in CONFIGS[1:]:
            print(
                f"{n_cells:4d} cells  {name:8s} "
                f"{entry[name]['per_epoch_s'] * 1e3:8.1f} ms/epoch  "
                f"({entry[name]['vs_disabled']:.3f}x of disabled)"
            )
        results.append(entry)
    return {
        "benchmark": "obs-overhead",
        "tolerance": tolerance,
        "epochs_timed": n_epochs,
        "repeats": repeats,
        "results": results,
        "failures": failures,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick mode: small sizes, few epochs, no regression assertion",
    )
    parser.add_argument("--sizes", type=int, nargs="+", default=None)
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="max allowed disabled/reference per-epoch ratio",
    )
    parser.add_argument("--output", type=pathlib.Path, default=OUTPUT_PATH)
    args = parser.parse_args()
    if args.smoke:
        sizes = args.sizes or [10]
        n_epochs = args.epochs or 2
        repeats = args.repeats or 1
    else:
        sizes = args.sizes or list(DEFAULT_SIZES)
        n_epochs = args.epochs or 5
        repeats = args.repeats or REPEATS
    payload = run_benchmark(
        sizes, n_epochs, repeats, args.tolerance, check=not args.smoke
    )
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    if payload["failures"]:
        for failure in payload["failures"]:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
