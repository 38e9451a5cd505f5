"""Command-line interface: run any paper experiment from the shell.

Examples::

    python -m repro.cli fig1
    python -m repro.cli fig9a --densities 6 10 14 --seeds 1 2
    python -m repro.cli shootout --aps 10
    python -m repro.cli fig6
    python -m repro.cli sweep fig9a --jobs 4 --resume --out fig9a.jsonl

Each subcommand prints the same paper-vs-measured rows the benchmark
harness records, at a scale controlled by its flags.  ``sweep`` fans a
figure grid out across worker processes with caching, per-cell timeout
and retry (see ``docs/SWEEPS.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

import numpy as np

from repro.utils.render import ascii_plot, format_table


# -- Telemetry plumbing (see docs/OBSERVABILITY.md) ---------------------------

#: Subcommands that run simulations and therefore accept telemetry flags.
TELEMETRY_FLAGS = ("--trace", "--trace-jsonl", "--metrics-out", "--profile")


def _add_telemetry_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_argument_group("telemetry")
    group.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a Chrome trace_event JSON (open in Perfetto)",
    )
    group.add_argument(
        "--trace-jsonl",
        default=None,
        metavar="PATH",
        help="write the raw sim-time trace as JSONL",
    )
    group.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the metrics snapshot (counters/gauges/histograms/series) as JSON",
    )
    group.add_argument(
        "--profile",
        action="store_true",
        help="print the top wall-time callback sites after the run",
    )


def _telemetry_from_args(args: argparse.Namespace):
    """Build a Telemetry for the run, or None when no flag asks for one."""
    want_trace = bool(
        getattr(args, "trace", None) or getattr(args, "trace_jsonl", None)
    )
    want_profile = bool(getattr(args, "profile", False))
    want_metrics = bool(getattr(args, "metrics_out", None))
    if not (want_trace or want_profile or want_metrics):
        return None
    from repro.obs import Telemetry

    return Telemetry(trace=want_trace, profile=want_profile)


def _write_telemetry_outputs(args: argparse.Namespace, tel) -> None:
    if getattr(args, "metrics_out", None):
        payload = tel.snapshot(include_profile=False)
        merged = getattr(args, "_sweep_cell_telemetry", None)
        if merged is not None:
            payload["sweep_cells"] = merged
        with open(args.metrics_out, "w") as handle:
            json.dump(payload, handle, sort_keys=True)
            handle.write("\n")
        print(f"metrics snapshot: {args.metrics_out}")
    if getattr(args, "trace", None):
        tel.tracer.write_chrome(args.trace)
        print(f"chrome trace: {args.trace} ({len(tel.tracer)} records; "
              "open in https://ui.perfetto.dev)")
    if getattr(args, "trace_jsonl", None):
        tel.tracer.write_jsonl(args.trace_jsonl)
        print(f"trace jsonl: {args.trace_jsonl}")
    if getattr(args, "profile", False) and tel.profiler is not None:
        print()
        print(tel.profiler.table(10))


def _cmd_fig1(args: argparse.Namespace) -> int:
    from repro.experiments.coverage import run_drive_test

    result = run_drive_test(seed=args.seed, samples_per_point=args.samples)
    rows = [
        ["coverage >= 1 Mb/s", f"{result.coverage_fraction(1.0) * 100:.1f}%"],
        ["range at 1 Mb/s", f"{result.max_range_m(1.0) / 1000:.2f} km"],
        ["median DL code rate", f"{np.median(result.all_code_rates('downlink')):.2f}"],
        ["HARQ beyond 500 m", f"{result.harq_usage_beyond(500.0) * 100:.1f}%"],
    ]
    print(format_table(["metric", "measured"], rows, title="Figure 1 drive test"))
    print()
    print(ascii_plot(result.throughput_curve(), x_label="distance [m]",
                     y_label="TCP [Mb/s]"))
    return 0


def _cmd_fig2(args: argparse.Namespace) -> int:
    from repro.experiments.wifi_macs import run_fig2

    result = run_fig2(seed=args.seed, duration_s=args.duration)
    rows = []
    for standard, samples in result.throughput_bps.items():
        arr = np.array(samples)
        rows.append([
            standard,
            f"{np.median(arr) / 1e6:.2f} Mb/s",
            f"{100 * (arr < 50e3).mean():.0f}%",
            f"{result.mean_snr_db[standard]:.1f} dB",
        ])
    print(format_table(["standard", "median", "starved", "mean SNR"], rows,
                       title="Figure 2: af vs ac"))
    return 0


def _cmd_fig6(args: argparse.Namespace) -> int:
    from repro.experiments.db_timeline import run_db_timeline

    result = run_db_timeline()
    print(f"vacate latency: {result.vacate_latency_s:.0f} s (ETSI limit: 60 s)")
    print(f"resume latency: {result.resume_latency_s:.0f} s "
          f"(paper: 96 s reboot + 56 s search)")
    print(f"ETSI compliant: {result.compliant}")
    for t, event in result.timeline:
        print(f"  t={t:8.1f}s  {event}")
    return 0


def _parse_outages(specs: List[str]) -> List[tuple]:
    """Parse ``start:duration`` outage windows (seconds after boot)."""
    windows = []
    for spec in specs:
        try:
            start_s, _, duration_s = spec.partition(":")
            windows.append((float(start_s), float(duration_s)))
        except ValueError:
            raise SystemExit(
                f"bad outage spec {spec!r}; expected start:duration, e.g. 60:30"
            )
    return windows


def _cmd_db_outage(args: argparse.Namespace) -> int:
    from repro.experiments.db_outage import run_db_outage
    from repro.utils.reportgen import robustness_summary

    result = run_db_outage(
        seed=args.seed,
        outages=_parse_outages(args.outages),
        timeout_prob=args.timeout_prob,
        drop_prob=args.drop_prob,
        error_prob=args.error_prob,
        malformed_prob=args.malformed_prob,
        latency_spike_prob=args.spike_prob,
        poll_interval_s=args.poll_interval,
        withdraw_in_outage=args.withdraw_in_outage,
        secondary=args.secondary,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        restore_from=args.restore_from,
        halt_at=args.halt_at,
    )
    if result is None:
        # Halted before the measurement window closed; the final snapshot
        # (written just before the halt) is the handoff to --restore-from.
        where = args.checkpoint_dir or "(no --checkpoint-dir: state discarded)"
        print(f"halted at t={args.halt_at:.1f}s; snapshots in {where}")
        return 0
    rows = [[f"{t:8.1f}", event] for t, event in result.timeline]
    shown = rows if args.full_timeline else rows[:40]
    print(format_table(["t [s]", "event"], shown,
                       title="Database-outage timeline (Figure 6 under faults)"))
    if len(rows) > len(shown):
        print(f"  ... {len(rows) - len(shown)} more events (--full-timeline)")
    print()
    if result.robustness_rows:
        print(robustness_summary(result.robustness_rows))
        print()
    print(f"radio downtime     : {result.downtime_s:.1f} s of "
          f"{result.window_s:.0f} s window")
    print(f"throughput loss    : {result.loss_fraction * 100:.1f}%")
    print(f"forced vacates     : {result.counts.get('forced-vacate', 0)}")
    print(f"ETSI compliant     : {result.compliant} "
          f"({len(result.violations)} violation(s))")
    print(f"run digest         : {result.digest}")
    return 0 if result.compliant else 1


def _cmd_replay_diff(args: argparse.Namespace) -> int:
    from repro.sim.replay import replay_diff

    report = replay_diff(
        args.snapshot,
        mutations=args.mutate,
        stride=args.stride,
        max_events=args.max_events,
    )
    print(report.describe())
    # Divergence is the *expected* outcome when mutations were injected,
    # and a defect when they were not -- exit status says which happened.
    if args.mutate:
        return 0 if report.diverged else 1
    return 1 if report.diverged else 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs.report import (
        DEFAULT_TOLERANCE,
        barrier_report,
        bench_diff,
        render_bench_diff,
        render_report,
    )
    from repro.obs.trace import load_jsonl

    tolerance = (
        args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
    )
    if tolerance <= 0:
        raise SystemExit(f"error: --tolerance must be positive (got {tolerance})")
    if not args.obs_trace_jsonl and not args.bench:
        raise SystemExit(
            "error: nothing to report; pass --trace-jsonl and/or --bench"
        )
    blocks: List[str] = []
    regressed = 0
    for path in args.obs_trace_jsonl:
        try:
            rows = load_jsonl(path)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"{path}: cannot read trace ({exc})", file=sys.stderr)
            return 2
        blocks.append(f"== {path} ==\n" + render_report(barrier_report(rows)))
    for baseline_path, current_path in args.bench:
        try:
            with open(baseline_path) as handle:
                baseline = json.load(handle)
            with open(current_path) as handle:
                current = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read benchmark artifact: {exc}", file=sys.stderr)
            return 2
        diff = bench_diff(baseline, current, tolerance)
        blocks.append(
            render_bench_diff(
                diff,
                tolerance,
                title=(
                    f"{baseline_path} vs {current_path} "
                    f"(tolerance {tolerance:.3g})"
                ),
            )
        )
        regressed += sum(1 for row in diff if row["regression"])
    print("\n\n".join(blocks))
    if regressed:
        print(
            f"obs-report: {regressed} timing regression(s) beyond "
            f"{tolerance:.3g}x tolerance",
            file=sys.stderr,
        )
        return 1
    return 0


def _add_shard_flags(p: argparse.ArgumentParser) -> None:
    """Shard-supervisor flags shared by the shard-capable commands.

    Every default is ``None`` so the sweep command's kwargs filter can
    distinguish "not given" from an explicit value.
    """
    p.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="chaos-injection schedule for the shard supervisor, e.g. "
             "'kill@3:1,stall@5:0:0.3,seed=7,malformed=0.05' "
             "(see docs/ROBUSTNESS.md)",
    )
    p.add_argument(
        "--shard-retry-budget", type=int, default=None, metavar="N",
        help="respawn attempts per worker before degrading that shard "
             "to inline execution (default 3)",
    )


def _validate_shard_args(args: argparse.Namespace) -> None:
    """Fail fast on bad --shards/--chaos combinations.

    Worker startup happens deep inside the experiment (possibly in a
    forked process), so argument mistakes are rejected here with a clear
    message instead.
    """
    shards = getattr(args, "shards", None)
    if shards is not None and shards < 1:
        raise SystemExit(f"error: --shards must be >= 1 (got {shards})")
    supervisor_flags = bool(
        getattr(args, "chaos", None)
        or getattr(args, "shard_retry_budget", None) is not None
    )
    if supervisor_flags and (shards is None or shards <= 1):
        raise SystemExit(
            "error: --chaos/--shard-retry-budget act on the shard "
            "supervisor; pass --shards N with N > 1"
        )
    budget = getattr(args, "shard_retry_budget", None)
    if budget is not None and budget < 0:
        raise SystemExit(
            f"error: --shard-retry-budget must be >= 0 (got {budget})"
        )
    chaos = getattr(args, "chaos", None)
    if chaos:
        from repro.sim.shard import ChaosPolicy

        try:
            ChaosPolicy.parse(chaos)
        except ValueError as exc:
            raise SystemExit(f"error: bad --chaos spec: {exc}")
    if shards is not None and shards > 1:
        techs = getattr(args, "techs", None)
        if techs and "Oracle" in techs:
            raise SystemExit(
                "error: the Oracle baseline queries live radio state and "
                "cannot shard; drop it from --techs or run with --shards 1"
            )
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            print(
                "warning: the 'fork' start method is unavailable on this "
                "platform; shard workers will run inline (slower, results "
                "unchanged)",
                file=sys.stderr,
            )


def _cmd_fig9a(args: argparse.Namespace) -> int:
    from repro.experiments.large_scale import run_coverage_vs_density

    _validate_shard_args(args)
    result = run_coverage_vs_density(
        args.densities, args.seeds, epochs=args.epochs,
        wifi_duration_s=args.wifi_duration, shards=args.shards,
        shard_retry_budget=args.shard_retry_budget,
        chaos=args.chaos,
    )
    rows = []
    for i, density in enumerate(result.densities):
        rows.append([
            density,
            f"{result.coverage['802.11af'][i] * 100:.0f}%",
            f"{result.coverage['LTE'][i] * 100:.0f}%",
            f"{result.coverage['CellFi'][i] * 100:.0f}%",
        ])
    print(format_table(["APs", "802.11af", "LTE", "CellFi"], rows,
                       title="Figure 9(a) coverage vs density"))
    return 0


def _cmd_fig9b(args: argparse.Namespace) -> int:
    from repro.experiments.large_scale import run_throughput_cdfs

    _validate_shard_args(args)
    result = run_throughput_cdfs(
        args.seeds, n_aps=args.aps, epochs=args.epochs,
        wifi_duration_s=args.wifi_duration, shards=args.shards,
        shard_retry_budget=args.shard_retry_budget,
        chaos=args.chaos,
    )
    rows = []
    for tech in result.samples_bps:
        rows.append([
            tech,
            f"{result.median_bps(tech) / 1e3:.0f} kb/s",
            f"{result.starved_fraction(tech) * 100:.1f}%",
        ])
    print(format_table(["tech", "median", "starved"], rows,
                       title=f"Figure 9(b), {args.aps} APs"))
    return 0


def _cmd_prach(args: argparse.Namespace) -> int:
    from repro.experiments.prach_eval import run_prach_eval

    result = run_prach_eval(trials=args.trials)
    for snr, p in sorted(result.detection_by_snr.items()):
        print(f"  detect @ {snr:+.0f} dB : {p * 100:.0f}%")
    print(f"  false alarms       : {result.false_alarm * 100:.2f}%")
    print(f"  complexity ratio   : {result.complexity_ratio:.1f}x vs naive")
    print(f"  vs line rate       : {result.speed_factor_vs_line_rate:.2f}x")
    print(f"  vs occasion rate   : {result.speed_factor_vs_occasion_rate:.0f}x")
    return 0


def _cmd_convergence(args: argparse.Namespace) -> int:
    from repro.experiments.convergence import run_convergence_sweep

    points = run_convergence_sweep(
        n_nodes_list=args.sizes, replications=args.replications
    )
    rows = [
        [p.n_nodes, p.fading_p, f"{p.mean_rounds:.1f}", f"{p.bound_rounds:.0f}"]
        for p in points
    ]
    print(format_table(["n", "p", "rounds", "bound"], rows,
                       title="Theorem 1 convergence"))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import pathlib

    from repro.utils.reportgen import write_report

    results = pathlib.Path(args.results_dir)
    try:
        output = write_report(
            results,
            sweep_logs=[pathlib.Path(p) for p in args.sweep_log],
            telemetry_files=[pathlib.Path(p) for p in args.telemetry],
        )
    except FileNotFoundError as error:
        print(error, file=sys.stderr)
        return 1
    print(f"wrote {output}")
    return 0


# -- Sweep subcommand ---------------------------------------------------------

#: Sweep spec builders by name; each maps CLI flags onto builder kwargs
#: (flag value ``None`` keeps the builder's default).
SWEEP_SPECS = ("fig9a", "fig9b", "fig1", "fig2", "convergence", "fig7", "db_outage")


def _sweep_kwargs(args: argparse.Namespace, **mapping) -> dict:
    """Collect builder kwargs from CLI flags, dropping unset ones."""
    return {
        key: value for key, value in mapping.items() if value is not None
    }


def build_sweep_spec(args: argparse.Namespace):
    """Construct the requested figure grid as a SweepSpec."""
    if args.spec == "fig9a":
        from repro.experiments.large_scale import fig9a_sweep_spec

        return fig9a_sweep_spec(
            **_sweep_kwargs(
                args,
                densities=args.densities,
                seeds=args.seeds,
                techs=args.techs,
                clients_per_ap=args.clients_per_ap,
                epochs=args.epochs,
                wifi_duration_s=args.wifi_duration,
                shards=args.shards,
                shard_retry_budget=args.shard_retry_budget,
                chaos=args.chaos,
            )
        )
    if args.spec == "fig9b":
        from repro.experiments.large_scale import fig9b_sweep_spec

        return fig9b_sweep_spec(
            **_sweep_kwargs(
                args,
                seeds=args.seeds,
                n_aps=args.aps,
                techs=args.techs,
                clients_per_ap=args.clients_per_ap,
                epochs=args.epochs,
                wifi_duration_s=args.wifi_duration,
                shards=args.shards,
                shard_retry_budget=args.shard_retry_budget,
                chaos=args.chaos,
            )
        )
    if args.spec == "fig1":
        from repro.experiments.coverage import fig1_sweep_spec

        return fig1_sweep_spec(
            **_sweep_kwargs(
                args, seeds=args.seeds, samples_per_point=args.samples
            )
        )
    if args.spec == "fig2":
        from repro.experiments.wifi_macs import fig2_sweep_spec

        return fig2_sweep_spec(
            **_sweep_kwargs(
                args,
                seeds=args.seeds,
                n_aps=args.aps,
                clients_per_ap=args.clients_per_ap,
                duration_s=args.duration,
            )
        )
    if args.spec == "convergence":
        from repro.experiments.convergence import convergence_sweep_spec

        return convergence_sweep_spec(
            **_sweep_kwargs(
                args,
                n_nodes_list=args.sizes,
                fading_list=args.fadings,
                replications=args.replications,
            )
        )
    if args.spec == "fig7":
        from repro.experiments.interference_exp import fig7_sweep_spec

        return fig7_sweep_spec(**_sweep_kwargs(args, seeds=args.seeds))
    if args.spec == "db_outage":
        from repro.experiments.db_outage import db_outage_sweep_spec

        return db_outage_sweep_spec(
            **_sweep_kwargs(
                args,
                durations=args.outage_durations,
                seeds=args.seeds,
                withdraw=args.withdraw or None,
                secondary=args.secondary or None,
            )
        )
    raise ValueError(f"unknown sweep spec {args.spec!r}")


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.sweep import run_sweep
    from repro.utils.reportgen import sweep_metric_table, sweep_outcome_summary

    from repro.obs import runtime as _obs_runtime

    _validate_shard_args(args)
    spec = build_sweep_spec(args)
    tel = _obs_runtime.active()
    result = run_sweep(
        spec,
        jobs=args.jobs,
        timeout_s=args.timeout,
        retries=args.retries,
        out_path=args.out,
        resume=args.resume,
        collect_telemetry=tel is not None,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
    )
    if tel is not None:
        # Fold worker-side snapshots into the run-level outputs: merged
        # counters/histograms land in --metrics-out, and each cell becomes
        # a trace span / profile site on the parent timeline.
        from repro.obs import merge_snapshots

        snapshots = []
        for record in result.records:
            if record.telemetry is not None:
                snapshots.append(record.telemetry)
            if tel.profiler is not None:
                tel.profiler.record(
                    f"sweep.cell.{record.scenario}", record.wall_time_s
                )
            if tel.tracer is not None:
                tel.tracer.instant(
                    f"sweep.{record.status}",
                    cat="sweep",
                    t=float(record.task_id),
                    args={"scenario": record.scenario, "attempts": record.attempts},
                )
        if snapshots:
            args._sweep_cell_telemetry = merge_snapshots(snapshots)
    print(
        f"sweep {spec.name!r}: {len(result.records)} cells "
        f"({result.computed} computed, {result.reused} reused from cache)"
    )
    payload = [
        {
            "scenario": r.scenario,
            "params": r.params,
            "status": r.status,
            "wall_time_s": r.wall_time_s,
            "metrics": r.metrics,
        }
        for r in result.records
    ]
    print(sweep_outcome_summary(payload))
    print()
    print(sweep_metric_table(payload, title=f"{spec.name} metrics (mean over seeds)"))
    if args.out:
        print(f"\nresults log: {args.out}")
    failures = [r for r in result.records if r.status != "ok"]
    for record in failures:
        print(
            f"  task {record.task_id} {record.status} after "
            f"{record.attempts} attempt(s): {record.error}",
            file=sys.stderr,
        )
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="CellFi (CoNEXT'17) reproduction experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig1", help="single-cell drive test")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--samples", type=int, default=60)
    _add_telemetry_flags(p)
    p.set_defaults(fn=_cmd_fig1)

    p = sub.add_parser("fig2", help="802.11af vs 802.11ac")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--duration", type=float, default=3.0)
    _add_telemetry_flags(p)
    p.set_defaults(fn=_cmd_fig2)

    p = sub.add_parser("fig6", help="database vacate/reacquire timeline")
    _add_telemetry_flags(p)
    p.set_defaults(fn=_cmd_fig6)

    p = sub.add_parser(
        "db-outage",
        help="Figure 6 timeline under database outages and wire faults",
    )
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--outages",
        nargs="*",
        default=["60:30", "240:90"],
        help="outage windows as start:duration seconds after boot",
    )
    p.add_argument("--timeout-prob", type=float, default=0.0)
    p.add_argument("--drop-prob", type=float, default=0.0)
    p.add_argument("--error-prob", type=float, default=0.0)
    p.add_argument("--malformed-prob", type=float, default=0.0)
    p.add_argument("--spike-prob", type=float, default=0.0)
    p.add_argument("--poll-interval", type=float, default=2.0)
    p.add_argument(
        "--withdraw-in-outage",
        type=int,
        default=None,
        help="really withdraw the held channel during outage N",
    )
    p.add_argument(
        "--secondary",
        action="store_true",
        help="add a reliable secondary database endpoint (failover)",
    )
    p.add_argument("--full-timeline", action="store_true")
    p.add_argument(
        "--checkpoint-dir",
        default=None,
        help="write periodic ckpt_*.json snapshots into this directory",
    )
    p.add_argument(
        "--checkpoint-every",
        type=float,
        default=None,
        help="snapshot period in simulation seconds (needs --checkpoint-dir)",
    )
    p.add_argument(
        "--restore-from",
        default=None,
        help="resume from a snapshot file (scenario flags are then ignored)",
    )
    p.add_argument(
        "--halt-at",
        type=float,
        default=None,
        help="stop at this simulation time (with a final snapshot) and exit",
    )
    _add_telemetry_flags(p)
    p.set_defaults(fn=_cmd_db_outage)

    p = sub.add_parser("fig9a", help="coverage vs density")
    p.add_argument("--densities", type=int, nargs="+", default=[6, 10, 14])
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--wifi-duration", type=float, default=3.0)
    p.add_argument(
        "--shards", type=int, default=1,
        help="spatial shards per LTE-family cell (bit-identical results)",
    )
    _add_shard_flags(p)
    _add_telemetry_flags(p)
    p.set_defaults(fn=_cmd_fig9a)

    p = sub.add_parser("fig9b", help="throughput CDFs with oracle")
    p.add_argument("--seeds", type=int, nargs="+", default=[1])
    p.add_argument("--aps", type=int, default=10)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--wifi-duration", type=float, default=3.0)
    p.add_argument(
        "--shards", type=int, default=1,
        help="spatial shards per LTE-family cell (drops the Oracle when > 1)",
    )
    _add_shard_flags(p)
    _add_telemetry_flags(p)
    p.set_defaults(fn=_cmd_fig9b)

    p = sub.add_parser("prach", help="PRACH detector evaluation")
    p.add_argument("--trials", type=int, default=40)
    _add_telemetry_flags(p)
    p.set_defaults(fn=_cmd_prach)

    p = sub.add_parser("convergence", help="Theorem 1 validation")
    p.add_argument("--sizes", type=int, nargs="+", default=[8, 16, 32])
    p.add_argument("--replications", type=int, default=8)
    _add_telemetry_flags(p)
    p.set_defaults(fn=_cmd_convergence)

    p = sub.add_parser("report", help="compile benchmarks/results into REPORT.md")
    p.add_argument("--results-dir", default="benchmarks/results")
    p.add_argument(
        "--sweep-log",
        nargs="*",
        default=[],
        help="sweep JSONL logs to aggregate into the report",
    )
    p.add_argument(
        "--telemetry",
        nargs="*",
        default=[],
        help="--metrics-out snapshots to summarise into a telemetry section",
    )
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser(
        "sweep",
        help="run a figure grid through the parallel fault-tolerant sweep runner",
    )
    p.add_argument("spec", choices=SWEEP_SPECS, help="which figure grid to run")
    p.add_argument(
        "--jobs",
        type=int,
        default=max(os.cpu_count() or 1, 1),
        help="worker processes (0 = inline in this process)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-cell wall-clock limit in seconds",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=1,
        help="extra attempts for a failed or timed-out cell",
    )
    p.add_argument("--out", default=None, help="JSONL results log path")
    p.add_argument(
        "--resume",
        action="store_true",
        help="reuse successful cells already present in --out",
    )
    # Grid axes (None keeps each spec builder's default).
    p.add_argument("--seeds", type=int, nargs="+", default=None)
    p.add_argument("--densities", type=int, nargs="+", default=None)
    p.add_argument("--techs", nargs="+", default=None)
    p.add_argument("--aps", type=int, default=None)
    p.add_argument("--clients-per-ap", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--wifi-duration", type=float, default=None)
    p.add_argument("--shards", type=int, default=None)
    _add_shard_flags(p)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--duration", type=float, default=None)
    p.add_argument("--sizes", type=int, nargs="+", default=None)
    p.add_argument("--fadings", type=float, nargs="+", default=None)
    p.add_argument("--replications", type=int, default=None)
    p.add_argument("--outage-durations", type=float, nargs="+", default=None)
    p.add_argument("--withdraw", action="store_true")
    p.add_argument("--secondary", action="store_true")
    p.add_argument(
        "--checkpoint-dir",
        default=None,
        help="per-cell snapshot root; retried cells resume mid-run",
    )
    p.add_argument(
        "--checkpoint-every",
        type=float,
        default=None,
        help="snapshot period (driver units: sim seconds / epochs / reps)",
    )
    _add_telemetry_flags(p)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser(
        "replay-diff",
        help="restore two runs from one snapshot and bisect their divergence",
    )
    p.add_argument("snapshot", help="a ckpt_*.json written by --checkpoint-dir")
    p.add_argument(
        "--mutate",
        action="append",
        default=[],
        metavar="NAME.KEY=JSON",
        help="edit run B's serialized state before restoring "
        "(e.g. driver.held=41); repeatable",
    )
    p.add_argument(
        "--stride",
        type=int,
        default=32,
        help="events between full state-hash comparisons",
    )
    p.add_argument(
        "--max-events",
        type=int,
        default=200_000,
        help="give up declaring 'no divergence' after this many events",
    )
    p.set_defaults(fn=_cmd_replay_diff)

    p = sub.add_parser(
        "obs-report",
        help="barrier/straggler analytics over a merged shard trace, plus "
             "BENCH_*.json regression diffs (nonzero exit on regression)",
    )
    p.add_argument(
        "--trace-jsonl",
        dest="obs_trace_jsonl",
        action="append",
        default=[],
        metavar="PATH",
        help="merged trace JSONL (from a --trace-jsonl run) to analyze; "
             "repeatable",
    )
    p.add_argument(
        "--bench",
        nargs=2,
        action="append",
        default=[],
        metavar=("BASELINE", "CURRENT"),
        help="diff two benchmark JSON artifacts, flagging *_s timing "
             "leaves that grew beyond tolerance; repeatable",
    )
    p.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="regression tolerance ratio (default 1.05: +5%% wall time)",
    )
    p.set_defaults(fn=_cmd_obs_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tel = _telemetry_from_args(args)
        if tel is None:
            return args.fn(args)
        from repro.obs import activated

        with activated(tel):
            rc = args.fn(args)
        _write_telemetry_outputs(args, tel)
        return rc
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an experiment failure.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
