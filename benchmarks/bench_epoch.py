#!/usr/bin/env python
"""Benchmark the LTE epoch hot path: scalar oracle vs incremental.

Times ``LteNetworkSimulator.run_epoch`` under saturated demand on seeded
random deployments at several cell counts, and writes the measurements to
``BENCH_epoch.json`` at the repository root.

The production incremental epoch is timed at every size.  The scalar
oracle (:class:`repro.lte.scalar_oracle.ScalarOracleSimulator`) is
quadratic in cells per subchannel and becomes very slow past ~50 cells, so
it is only timed up to ``MAX_SCALAR_CELLS`` (50).  Both are bit-identical
for the same seeds (``tests/test_lte_network_vectorized.py``), so the speedup
is free.
``--smoke`` runs small sizes into the untracked ``BENCH_epoch_smoke.json``
so it never replaces the reference the telemetry-overhead gate reads.

``--activity-sweep`` instead times the incremental epoch while sweeping
per-epoch activity (the fraction of cells whose clients move and carry
traffic each epoch), writing ``BENCH_incremental.json``.  With ``--smoke``
the sweep also runs the scalar oracle with the same culling horizon and
asserts per-epoch digest equality plus dirty-counter sanity (the CI job).

``--city`` benchmarks the spatial shard engine
(:class:`repro.sim.shard.ShardedNetwork`) on a city-scale deployment
(1000 APs x 10000 UEs) across shard counts, asserting cross-arm digest
equality and writing ``BENCH_city.json``.  ``--shard-nets`` is the CI
gate: one 20-cell churn scenario (mobility *and* cross-shard handovers)
driven through bare, supervised, killed, traced and degraded 2-shard
process-mode runs whose per-epoch digests must all equal the unsharded
incremental epoch's, writing the untracked ``bench-shard-nets-current.json``
(``--output BENCH_shard_nets.json`` re-records the committed reference).

Usage::

    PYTHONPATH=src python benchmarks/bench_epoch.py                    # full run
    PYTHONPATH=src python benchmarks/bench_epoch.py --smoke            # quick CI run
    PYTHONPATH=src python benchmarks/bench_epoch.py --activity-sweep   # incremental
    PYTHONPATH=src python benchmarks/bench_epoch.py --city             # shard sweep
    PYTHONPATH=src python benchmarks/bench_epoch.py --shard-nets       # shard CI gate
    PYTHONPATH=src python benchmarks/bench_epoch.py --gain-fill        # fill kernels
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import pathlib
import statistics
import time
import warnings
from typing import Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.lte.network import (
    AllSubchannelsPolicy,
    EpochResult,
    LteNetworkSimulator,
)
from repro.lte.scalar_oracle import ScalarOracleSimulator
from repro.phy import vecmath
from repro.phy.propagation import (
    FILL_BATCHED,
    FILL_SCALAR,
    CompositeChannel,
    GainMatrixCache,
    LogNormalShadowing,
    UrbanHataPathLoss,
)
from repro.phy.resource_grid import ResourceGrid
from repro.sim.rng import RngStreams
from repro.sim.shard import (
    ChaosEvent,
    ChaosPolicy,
    ShardDegradedWarning,
    ShardedNetwork,
    SupervisionConfig,
)
from repro.sim.topology import (
    Topology,
    grid_partition,
    random_topology,
    reassociate_strongest,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_epoch.json"
SMOKE_OUTPUT_PATH = REPO_ROOT / "BENCH_epoch_smoke.json"
INCREMENTAL_OUTPUT_PATH = REPO_ROOT / "BENCH_incremental.json"
CITY_OUTPUT_PATH = REPO_ROOT / "BENCH_city.json"
SHARD_NETS_OUTPUT_PATH = REPO_ROOT / "bench-shard-nets-current.json"
SHARD_NETS_TRACE_PATH = REPO_ROOT / "shard-nets-trace.json"
SHARD_NETS_JSONL_PATH = REPO_ROOT / "shard-nets.jsonl"
GAINFILL_OUTPUT_PATH = REPO_ROOT / "BENCH_gainfill.json"
GAINFILL_SMOKE_OUTPUT_PATH = REPO_ROOT / "BENCH_gainfill_smoke.json"

DEFAULT_SIZES = (10, 50, 200)
#: Largest size at which the scalar oracle is also timed.
MAX_SCALAR_CELLS = 50
DEFAULT_ACTIVITIES = (0.05, 0.10, 0.25, 1.00)
SWEEP_CELLS = 200
SMOKE_SWEEP_CELLS = 20
CLIENTS_PER_AP = 6
SEED = 2017
AREA_M = 2000.0
#: Path-loss horizon for the sweep's incremental arm: at 600 MHz urban
#: Hata ~135 dB is ~1.7 km, so distant cells across the 2 km area are
#: culled while every plausible interferer stays live.
SWEEP_CULL_LOSS_DB = 135.0
#: Offered load per active client in the sweep (bits per 1 s epoch).  The
#: activity sweep models a lightly loaded network -- bounded demand, not
#: saturation -- so the scheduler serves the backlog and goes quiet
#: instead of burning every mini-slot (in both arms alike).
SWEEP_DEMAND_BITS = 1e5

#: City shard sweep: 1000 APs x 10 clients = 10000 UEs at the same AP
#: density as the 200-cell activity sweep (50 APs per km^2), so per-cell
#: physics (audible-interferer counts under the cull horizon) match.
CITY_CELLS = 1000
CITY_CLIENTS_PER_AP = 10
CITY_DENSITY_PER_KM2 = 50.0
CITY_SHARDS = (1, 2, 4)


def _city_area_m(n_cells: int) -> float:
    return math.sqrt(n_cells / CITY_DENSITY_PER_KM2) * 1000.0


def _bench_channel() -> CompositeChannel:
    return CompositeChannel(
        UrbanHataPathLoss(), LogNormalShadowing(sigma_db=7.0, seed=SEED)
    )


def _bench_topology(n_cells: int) -> Topology:
    rng = np.random.default_rng(SEED)
    topology = random_topology(
        rng,
        n_aps=n_cells,
        clients_per_ap=CLIENTS_PER_AP,
        area_m=AREA_M,
        client_range_m=600.0,
    )
    topology, _ = reassociate_strongest(topology, _bench_channel())
    return topology


def build_network(
    n_cells: int,
    simulator: Type[LteNetworkSimulator] = LteNetworkSimulator,
    cull_loss_db: Optional[float] = None,
    shard_ap_ids: Optional[Sequence[int]] = None,
    gain_fill: str = FILL_BATCHED,
) -> LteNetworkSimulator:
    """A seeded deployment identical across simulator classes (and shard
    views): the production one or the scalar oracle."""
    return simulator(
        topology=_bench_topology(n_cells),
        grid=ResourceGrid(5e6),
        channel=_bench_channel(),
        rngs=RngStreams(SEED),
        cull_loss_db=cull_loss_db,
        gain_fill=gain_fill,
        shard_ap_ids=shard_ap_ids,
    )


def time_epochs(net: LteNetworkSimulator, n_epochs: int) -> Dict[str, float]:
    """Wall-clock seconds for the epoch loop (setup excluded)."""
    grid = net.grid
    policy = AllSubchannelsPolicy(
        [ap.ap_id for ap in net.topology.aps], grid.n_subchannels
    )
    demands = {c.client_id: float("inf") for c in net.topology.clients}
    # One untimed warm-up epoch (fills gain cache and rate tables).
    allowed = policy.decide(0, None)
    observations = net.run_epoch(0, allowed, demands).observations
    start = time.perf_counter()
    for epoch in range(1, n_epochs + 1):
        allowed = policy.decide(epoch, observations)
        observations = net.run_epoch(epoch, allowed, demands).observations
    elapsed = time.perf_counter() - start
    return {
        "total_s": elapsed,
        "per_epoch_s": elapsed / n_epochs,
        "epochs": n_epochs,
    }


def run_benchmark(sizes: List[int], n_epochs: int) -> Dict:
    results = []
    for n_cells in sizes:
        entry: Dict = {"cells": n_cells, "clients": n_cells * CLIENTS_PER_AP}
        net = build_network(n_cells)
        entry["incremental"] = time_epochs(net, n_epochs)
        print(
            f"{n_cells:4d} cells  incremental "
            f"{entry['incremental']['per_epoch_s'] * 1e3:9.1f} ms/epoch"
        )
        if n_cells <= MAX_SCALAR_CELLS:
            net = build_network(n_cells, ScalarOracleSimulator)
            entry["scalar"] = time_epochs(net, n_epochs)
            entry["speedup"] = (
                entry["scalar"]["per_epoch_s"]
                / entry["incremental"]["per_epoch_s"]
            )
            print(
                f"{n_cells:4d} cells  scalar      "
                f"{entry['scalar']['per_epoch_s'] * 1e3:9.1f} ms/epoch  "
                f"(speedup {entry['speedup']:.1f}x)"
            )
        else:
            entry["scalar"] = None
            entry["note"] = (
                f"scalar oracle skipped above {MAX_SCALAR_CELLS} cells "
                "(reference implementation is too slow; it is bit-identical "
                "to the incremental epoch)"
            )
        results.append(entry)
    return {
        "benchmark": "lte-epoch-backends",
        "seed": SEED,
        "clients_per_ap": CLIENTS_PER_AP,
        "epochs_timed": n_epochs,
        "results": results,
    }


def epoch_digest(result: EpochResult) -> str:
    """Order-independent digest of every client-visible epoch output.

    ``repr`` of a float round-trips the exact IEEE-754 value, so two
    simulators hash equal iff they are bit-identical.
    """
    payload = repr(
        (
            sorted(result.served_bits.items()),
            sorted(result.connected.items()),
            [
                (
                    ap_id,
                    obs.n_active_clients,
                    obs.estimated_contenders,
                    [
                        (
                            cid,
                            c.subband_cqi,
                            c.max_subband_cqi,
                            c.interference_detected,
                            sorted(c.scheduled_fraction.items()),
                        )
                        for cid, c in sorted(obs.clients.items())
                    ],
                )
                for ap_id, obs in sorted(result.observations.items())
            ],
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _sweep_scenario(
    n_cells: int, activity: float
) -> Tuple[List[int], Dict[int, float], List[int]]:
    """Deterministic (active AP ids, demands, mover client ids).

    ``activity`` is the fraction of cells that are active: their clients
    carry saturated traffic and one client per active cell moves every
    epoch.  Everything else is idle, which is the regime the incremental
    epoch targets (most cells unchanged epoch over epoch).
    """
    n_active = max(1, int(round(activity * n_cells)))
    rng = np.random.default_rng(SEED + 1)
    active_aps = sorted(rng.choice(n_cells, size=n_active, replace=False).tolist())
    topology = _bench_topology(n_cells)
    demands: Dict[int, float] = {}
    movers: List[int] = []
    for ap_id in active_aps:
        clients = topology.clients_of(ap_id)
        for client in clients:
            demands[client.client_id] = SWEEP_DEMAND_BITS
        if clients:
            movers.append(clients[0].client_id)
    return active_aps, demands, movers


def _movement_schedule(
    topology: Topology,
    movers: List[int],
    n_epochs: int,
    area_m: float = AREA_M,
) -> List[List[Tuple[int, float, float]]]:
    """Per-epoch absolute positions for the movers, identical across arms."""
    rng = np.random.default_rng(SEED + 2)
    base = {cid: (topology.client(cid).x, topology.client(cid).y) for cid in movers}
    schedule: List[List[Tuple[int, float, float]]] = []
    for _ in range(n_epochs):
        step = []
        for cid in movers:
            bx, by = base[cid]
            x = min(max(bx + rng.uniform(-50.0, 50.0), 0.0), area_m)
            y = min(max(by + rng.uniform(-50.0, 50.0), 0.0), area_m)
            step.append((cid, x, y))
        schedule.append(step)
    return schedule


def _run_sweep_arm(
    n_cells: int,
    simulator: Type[LteNetworkSimulator],
    cull_loss_db: Optional[float],
    demands: Dict[int, float],
    schedule: List[List[Tuple[int, float, float]]],
    collect_digests: bool,
) -> Dict:
    """Time the epoch loop of one simulator class under the activity scenario.

    Each timed epoch first applies that epoch's client movements (part of
    the workload: the incremental epoch pays its row refresh here), then
    runs the epoch.  Epoch 0 is an untimed warm-up so caches are hot in
    every arm.
    """
    net = build_network(n_cells, simulator, cull_loss_db=cull_loss_db)
    policy = AllSubchannelsPolicy(
        [ap.ap_id for ap in net.topology.aps], net.grid.n_subchannels
    )
    allowed = policy.decide(0, None)
    net.run_epoch(0, allowed, demands)  # warm-up, not timed
    digests: List[str] = []
    dirty_aps: List[int] = []
    epoch_times: List[float] = []
    event_apply = 0.0
    # Collect once up front, then keep the collector out of the timed
    # region: generational GC pauses scale with the cached-block heap and
    # would otherwise dominate run-to-run variance.
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    for epoch, moves in enumerate(schedule, start=1):
        # Event application (mobility + link refresh) is identical physics
        # in every arm; it is timed separately so ``per_epoch_s`` compares
        # the epoch engines themselves.
        start = time.perf_counter()
        for cid, x, y in moves:
            net.move_client(cid, x, y)
        mid = time.perf_counter()
        result = net.run_epoch(epoch, allowed, demands)
        event_apply += mid - start
        epoch_times.append(time.perf_counter() - mid)
        if collect_digests:
            digests.append(epoch_digest(result))
        if simulator is LteNetworkSimulator:
            dirty_aps.append(net.last_epoch_stats["dirty_aps"])
    if gc_was_enabled:
        gc.enable()
    arm: Dict = {
        "total_s": sum(epoch_times),
        # Median epoch time: one preempted epoch should not skew the
        # engine comparison on a shared machine.
        "per_epoch_s": statistics.median(epoch_times),
        "event_apply_s": event_apply,
        "event_apply_per_epoch_s": event_apply / len(schedule),
        "epochs": len(schedule),
    }
    if collect_digests:
        arm["digests"] = digests
    if simulator is LteNetworkSimulator:
        arm["dirty_aps_per_epoch"] = dirty_aps
        arm["last_epoch_stats"] = dict(net.last_epoch_stats)
    return arm


def run_activity_sweep(
    n_cells: int,
    activities: List[float],
    n_epochs: int,
    check: bool,
    cull_loss_db: float = SWEEP_CULL_LOSS_DB,
) -> Dict:
    """Time the incremental epoch across activity levels.

    With ``check=True`` a scalar arm with the *same* culling horizon runs
    as the bit-identity oracle: its per-epoch digests must equal the
    incremental arm's, and the incremental dirty counters must match the
    number of cells whose clients moved.
    """
    results = []
    for activity in activities:
        active_aps, demands, movers = _sweep_scenario(n_cells, activity)
        schedule = _movement_schedule(_bench_topology(n_cells), movers, n_epochs)
        entry: Dict = {
            "activity": activity,
            "active_cells": len(active_aps),
            "moving_clients": len(movers),
        }
        entry["incremental"] = _run_sweep_arm(
            n_cells, LteNetworkSimulator, cull_loss_db, demands, schedule, check
        )
        if check:
            scalar = _run_sweep_arm(
                n_cells, ScalarOracleSimulator, cull_loss_db, demands, schedule,
                True,
            )
            entry["digest_match"] = (
                scalar["digests"] == entry["incremental"]["digests"]
            )
            if not entry["digest_match"]:
                raise SystemExit(
                    f"digest mismatch at activity {activity}: incremental "
                    "epoch diverged from the culled scalar oracle"
                )
            dirty = entry["incremental"]["dirty_aps_per_epoch"]
            # After warm-up only moved clients dirty their serving cell,
            # so the dirty count is bounded by the mover count.
            if any(d > len(movers) for d in dirty):
                raise SystemExit(
                    f"dirty-counter sanity failed at activity {activity}: "
                    f"{dirty} dirty APs for {len(movers)} movers"
                )
            if dirty and max(dirty) == 0:
                raise SystemExit(
                    f"dirty-counter sanity failed at activity {activity}: "
                    "movers never dirtied any AP"
                )
            entry["dirty_counter_ok"] = True
            # Digest payloads served their purpose; keep the JSON small.
            entry["incremental"].pop("digests", None)
        results.append(entry)
        check_note = "  digests ok" if check else ""
        print(
            f"activity {activity:5.2f}  ({len(active_aps):3d} cells)  "
            f"incremental {entry['incremental']['per_epoch_s'] * 1e3:8.1f} ms"
            f"{check_note}"
        )
    return {
        "benchmark": "lte-epoch-incremental",
        "seed": SEED,
        "cells": n_cells,
        "clients": n_cells * CLIENTS_PER_AP,
        "clients_per_ap": CLIENTS_PER_AP,
        "cull_loss_db": cull_loss_db,
        "epochs_timed": n_epochs,
        "digest_checked": check,
        "results": results,
    }


# ---------------------------------------------------------------------------
# City-scale shard sweep (--city) and the CI shard gate (--shard-nets)
# ---------------------------------------------------------------------------


def _city_topology(n_cells: int, clients_per_ap: int, area_m: float) -> Topology:
    # No reassociate_strongest at city scale: re-attachment evaluates every
    # (client, AP) channel gain up front -- n_clients * n_aps shadowing
    # draws in one process before any shard worker exists -- which dwarfs
    # the epochs being measured.  Clients stay with their spawning AP.
    rng = np.random.default_rng(SEED)
    return random_topology(
        rng,
        n_aps=n_cells,
        clients_per_ap=clients_per_ap,
        area_m=area_m,
        client_range_m=600.0,
    )


def build_city_network(
    n_shards: int,
    n_cells: int,
    clients_per_ap: int,
    area_m: float,
    cull_loss_db: float,
) -> ShardedNetwork:
    def factory(ap_ids):
        return LteNetworkSimulator(
            topology=_city_topology(n_cells, clients_per_ap, area_m),
            grid=ResourceGrid(5e6),
            channel=_bench_channel(),
            rngs=RngStreams(SEED),
            cull_loss_db=cull_loss_db,
            shard_ap_ids=ap_ids,
        )

    topology = _city_topology(n_cells, clients_per_ap, area_m)
    return ShardedNetwork(
        topology,
        grid_partition(topology, n_shards),
        factory,
        RngStreams(SEED),
        ResourceGrid(5e6),
    )


def _run_city_arm(
    n_shards: int,
    n_cells: int,
    clients_per_ap: int,
    area_m: float,
    cull_loss_db: float,
    schedule: List[List[Tuple[int, float, float]]],
) -> Dict:
    """Time the city epoch loop for one shard count.

    ``wall_s`` is what the parent waits on ``run_epoch`` (barrier IPC and
    in-worker event application included); ``critical_s`` is the slowest
    worker's in-worker ``run_epoch`` CPU seconds for that barrier, i.e.
    the epoch latency a host with one core per shard would observe
    (process_time, so workers time-slicing one core don't inflate it).
    """
    build_start = time.perf_counter()
    net = build_city_network(
        n_shards, n_cells, clients_per_ap, area_m, cull_loss_db
    )
    try:
        policy = AllSubchannelsPolicy(
            [ap.ap_id for ap in net.topology.aps], net.grid.n_subchannels
        )
        demands = {c.client_id: float("inf") for c in net.topology.clients}
        allowed = policy.decide(0, None)
        net.run_epoch(0, allowed, demands)  # warm-up fills every worker cache
        build_s = time.perf_counter() - build_start
        worker_mode = net.mode
        digests: List[str] = []
        walls: List[float] = []
        criticals: List[float] = []
        event_send = 0.0
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for epoch, moves in enumerate(schedule, start=1):
                start = time.perf_counter()
                for cid, x, y in moves:
                    net.move_client(cid, x, y)
                mid = time.perf_counter()
                result = net.run_epoch(epoch, allowed, demands)
                walls.append(time.perf_counter() - mid)
                event_send += mid - start
                criticals.append(max(net.last_epoch_compute_s))
                digests.append(epoch_digest(result))
        finally:
            if gc_was_enabled:
                gc.enable()
    finally:
        net.close()
    return {
        "shards": n_shards,
        "worker_mode": worker_mode,
        "build_and_warmup_s": build_s,
        "per_epoch_wall_s": statistics.median(walls),
        "per_epoch_critical_s": statistics.median(criticals),
        "wall_s": walls,
        "critical_s": criticals,
        "event_send_s": event_send,
        "epochs": len(schedule),
        "digests": digests,
    }


def run_city_bench(
    n_epochs: int,
    n_cells: int = CITY_CELLS,
    clients_per_ap: int = CITY_CLIENTS_PER_AP,
    cull_loss_db: float = SWEEP_CULL_LOSS_DB,
) -> Dict:
    """Benchmark the shard engine across shard counts on one city map.

    Every arm runs the identical scenario -- saturated demand plus a small
    mobile cohort -- and every arm's per-epoch digests must be bitwise
    equal, so the sweep doubles as a large-scale identity check.
    """
    area_m = _city_area_m(n_cells)
    topology = _city_topology(n_cells, clients_per_ap, area_m)
    stride = max(1, n_cells // 20)
    movers = [
        topology.clients_of(ap_id)[0].client_id
        for ap_id in range(0, n_cells, stride)
        if topology.clients_of(ap_id)
    ]
    schedule = _movement_schedule(topology, movers, n_epochs, area_m=area_m)
    arms: List[Dict] = []
    for n_shards in CITY_SHARDS:
        arm = _run_city_arm(
            n_shards, n_cells, clients_per_ap, area_m, cull_loss_db, schedule
        )
        arms.append(arm)
        print(
            f"{n_shards} shard(s) ({arm['worker_mode']:7s})  "
            f"wall {arm['per_epoch_wall_s'] * 1e3:8.1f} ms/epoch  "
            f"critical-path {arm['per_epoch_critical_s'] * 1e3:8.1f} ms/epoch  "
            f"(build+warmup {arm['build_and_warmup_s']:.1f} s)"
        )
    reference = arms[0]
    for arm in arms[1:]:
        if arm["digests"] != reference["digests"]:
            raise SystemExit(
                f"city digest mismatch: the {arm['shards']}-shard arm "
                f"diverged from the {reference['shards']}-shard arm"
            )
    base = next((a for a in arms if a["shards"] == 1), arms[0])
    for arm in arms:
        arm["speedup_wall_vs_1shard"] = (
            base["per_epoch_wall_s"] / arm["per_epoch_wall_s"]
        )
        arm["speedup_critical_vs_1shard"] = (
            base["per_epoch_critical_s"] / arm["per_epoch_critical_s"]
        )
        arm.pop("digests", None)
        print(
            f"{arm['shards']} shard(s)  speedup vs 1-shard: "
            f"wall {arm['speedup_wall_vs_1shard']:.2f}x  "
            f"critical-path {arm['speedup_critical_vs_1shard']:.2f}x"
        )
    return {
        "benchmark": "lte-epoch-shards",
        "seed": SEED,
        "cells": n_cells,
        "clients": n_cells * clients_per_ap,
        "clients_per_ap": clients_per_ap,
        "area_m": area_m,
        "cull_loss_db": cull_loss_db,
        "epochs_timed": n_epochs,
        "moving_clients": len(movers),
        "host_cpu_count": os.cpu_count(),
        "digest_match": True,
        "timing_note": (
            "per_epoch_critical_s is the slowest worker's in-worker "
            "run_epoch CPU seconds per barrier (process_time, immune to "
            "workers time-slicing a shared core) -- the epoch latency on "
            "a host with one core per shard; per_epoch_wall_s "
            "additionally includes barrier IPC, result pickling and, on "
            "hosts with fewer cores than shards, time-slicing between "
            "workers"
        ),
        "results": arms,
    }


def _churn_smoke_scenario(
    n_cells: int, n_shards: int, n_epochs: int
) -> Tuple[Dict, List, List, List[Tuple[int, int]], int]:
    """Mobility + forced-handover churn driven by the shard-nets gate."""
    _, demands, movers = _sweep_scenario(n_cells, 0.5)
    topology = _bench_topology(n_cells)
    schedule = _movement_schedule(topology, movers, n_epochs)
    plan = grid_partition(topology, n_shards)
    shard_of_ap = {ap_id: k for k, shard in enumerate(plan) for ap_id in shard}
    # One forced handover per epoch; never a no-op re-attach to the current
    # cell, so both engines take the same code path.
    rng = np.random.default_rng(SEED + 3)
    serving = {c.client_id: c.ap_id for c in topology.clients}
    reattaches: List[Tuple[int, int]] = []
    cross_shard = 0
    for epoch in range(n_epochs):
        cid = movers[epoch % len(movers)]
        new_ap = int(rng.integers(n_cells))
        if new_ap == serving[cid]:
            new_ap = (new_ap + 1) % n_cells
        if shard_of_ap[new_ap] != shard_of_ap[serving[cid]]:
            cross_shard += 1
        serving[cid] = new_ap
        reattaches.append((cid, new_ap))
    if not cross_shard:
        raise SystemExit(
            "shard smoke scenario never crosses a shard boundary; "
            "row migration would go unexercised"
        )
    return demands, schedule, plan, reattaches, cross_shard


def _drive_churn(net, demands, schedule, reattaches) -> List[str]:
    """Run the churn scenario on any engine, one digest per measured epoch."""
    policy = AllSubchannelsPolicy(
        [ap.ap_id for ap in net.topology.aps], net.grid.n_subchannels
    )
    allowed = policy.decide(0, None)
    net.run_epoch(0, allowed, demands)  # warm-up
    digests = []
    for epoch, moves in enumerate(schedule, start=1):
        for cid, x, y in moves:
            net.move_client(cid, x, y)
        cid, new_ap = reattaches[epoch - 1]
        net.reattach_client(cid, new_ap)
        digests.append(epoch_digest(net.run_epoch(epoch, allowed, demands)))
    return digests


#: Gain-fill bench populations: ``(cells, clients_per_ap)``.  The city
#: point (1000 x 10 = 10000 UEs) is the acceptance target for the >=10x
#: batched-vs-scalar build speedup.
GAINFILL_POPULATIONS = ((200, 6), (1000, 10))
GAINFILL_SMOKE_POPULATIONS = ((50, 6),)


def _gainfill_cache(
    topology: Topology, channel: CompositeChannel, fill_mode: str
) -> GainMatrixCache:
    """A cache over the bench deployment, matching the production build.

    No per-AP antennas: the network/shard worker caches radiate
    isotropically, so this times exactly the build they perform.  The
    sector-antenna batch path is identity-pinned by the property suite
    instead; its ``r ** 2`` attenuation stays a scalar loop by the pow
    bit-identity contract, so a sector arm would measure that contract,
    not the kernels.
    """
    return GainMatrixCache(
        channel,
        topology.aps,
        topology.clients,
        cull_loss_db=SWEEP_CULL_LOSS_DB,
        fill_mode=fill_mode,
    )


def run_gainfill_bench(smoke: bool = False) -> Dict:
    """Benchmark full gain-cache builds: batched kernels vs scalar oracle.

    Two channel arms per population: ``pathloss`` (urban Hata only -- the
    kernel ceiling) and ``shadowed`` (Hata + log-normal shadowing, the
    production channel, whose frozen sha256-per-link draw keying bounds
    the reachable speedup; see docs/SIMULATION.md).  Every arm's batched
    and scalar matrices must hash identical over their raw float64 bytes
    -- the bench doubles as a large-scale bit-identity gate, so a kernel
    regression fails the run rather than shifting golden digests.
    """
    populations = GAINFILL_SMOKE_POPULATIONS if smoke else GAINFILL_POPULATIONS
    arms = (
        ("pathloss", lambda: CompositeChannel(UrbanHataPathLoss())),
        ("shadowed", _bench_channel),
    )
    # Force the once-per-process exactness probes now so their cost does
    # not land inside the first timed build (it dwarfs a smoke-sized one).
    vecmath.vectorized_report()
    results: List[Dict] = []
    for n_cells, clients_per_ap in populations:
        area_m = _city_area_m(n_cells)
        topology = _city_topology(n_cells, clients_per_ap, area_m)
        links = len(topology.aps) * len(topology.clients)
        entry: Dict = {
            "cells": n_cells,
            "clients": len(topology.clients),
            "links": links,
            "arms": {},
        }
        for arm_name, channel_factory in arms:
            timings: Dict[str, float] = {}
            digests: Dict[str, str] = {}
            for fill_mode in (FILL_BATCHED, FILL_SCALAR):
                cache = _gainfill_cache(
                    topology, channel_factory(), fill_mode
                )
                gc.collect()
                start = time.perf_counter()
                matrix = cache.matrix()
                timings[fill_mode] = time.perf_counter() - start
                digests[fill_mode] = hashlib.sha256(
                    np.ascontiguousarray(matrix).tobytes()
                ).hexdigest()
            if digests[FILL_BATCHED] != digests[FILL_SCALAR]:
                raise SystemExit(
                    f"gain-fill digest mismatch ({arm_name}, {n_cells} "
                    "cells): the batched kernels diverged from the scalar "
                    "oracle"
                )
            arm = {
                "batched_s": round(timings[FILL_BATCHED], 4),
                "scalar_s": round(timings[FILL_SCALAR], 4),
                "ns_per_link_batched": round(
                    timings[FILL_BATCHED] / links * 1e9, 1
                ),
                "ns_per_link_scalar": round(
                    timings[FILL_SCALAR] / links * 1e9, 1
                ),
                "speedup": round(
                    timings[FILL_SCALAR] / timings[FILL_BATCHED], 2
                ),
                "digest_match": True,
                "matrix_sha256": digests[FILL_BATCHED],
            }
            entry["arms"][arm_name] = arm
            print(
                f"{n_cells:5d} cells x {clients_per_ap:2d} UEs  "
                f"{arm_name:8s}  batched "
                f"{arm['ns_per_link_batched']:7.1f} ns/link  scalar "
                f"{arm['ns_per_link_scalar']:7.1f} ns/link  "
                f"(speedup {arm['speedup']:.1f}x, digests ok)"
            )
        results.append(entry)
    largest = results[-1]
    return {
        "benchmark": "lte-gainfill-kernels",
        "seed": SEED,
        "smoke": smoke,
        "cull_loss_db": SWEEP_CULL_LOSS_DB,
        "vectorized_kernels": vecmath.vectorized_report(),
        "npy_disable_cpu_features": os.environ.get(
            "NPY_DISABLE_CPU_FEATURES", ""
        ),
        "digest_match": True,
        "speedup": largest["arms"]["pathloss"]["speedup"],
        "speedup_shadowed": largest["arms"]["shadowed"]["speedup"],
        "speedup_note": (
            "headline speedup is the pathloss arm at the largest "
            "population (the kernel ceiling); the shadowed arm is bounded "
            "by the frozen sha256-per-link shadowing draw keying, which "
            "stays scalar by contract (golden digests depend on it)"
        ),
        "results": results,
    }


def _first_divergence(digests: List[str], reference: List[str]) -> int:
    """1-based index of the first epoch whose digests differ."""
    return next(
        i for i, (a, b) in enumerate(zip(digests, reference), 1) if a != b
    )


def run_shard_nets(
    n_cells: int = SMOKE_SWEEP_CELLS,
    n_shards: int = 2,
    n_epochs: int = 6,
    cull_loss_db: float = SWEEP_CULL_LOSS_DB,
) -> Dict:
    """CI gate: sharded, supervised and traced runs stay bit-identical.

    Builds one churn scenario -- mobility every epoch plus one forced
    re-attachment per epoch, some crossing shard boundaries so the
    max-CQI row migration travels through real worker pipes -- and
    drives it through seven engines, each of which must reproduce the
    unsharded per-epoch digests bitwise:

    1. unsharded, batched gain fill (the reference);
    2. unsharded, scalar fill oracle (pins the kernels end to end);
    3. bare process-mode shards;
    4. supervised, fault-free (what supervision costs);
    5. supervised with one scheduled worker kill (SIGKILL), which must
       respawn from checkpoint and replay its journal;
    6. run 5 again under tracing, which must merge every worker's
       telemetry plus the supervisor's barrier and recovery spans into
       one shard-tagged timeline, counting each epoch exactly once;
    7. the kill under a zero retry budget, which must degrade the shard
       to inline execution with a ``ShardDegradedWarning``.

    Writes the merged timeline (Chrome trace + JSONL) for
    ``repro.obs.validate`` and ``repro.cli obs-report`` to consume
    (``make shard-nets``).
    """
    from repro.obs import Telemetry, activated

    demands, schedule, plan, reattaches, cross_shard = _churn_smoke_scenario(
        n_cells, n_shards, n_epochs
    )
    kill_epoch = max(1, n_epochs // 2)
    kill = ChaosPolicy(events=(ChaosEvent("kill", kill_epoch, n_shards - 1),))

    def drive(net) -> List[str]:
        return _drive_churn(net, demands, schedule, reattaches)

    def drive_sharded(
        retry_budget: Optional[int] = None, chaos: Optional[ChaosPolicy] = None
    ) -> Dict:
        """One process-mode sharded run, supervised iff given a budget."""
        net = ShardedNetwork(
            _bench_topology(n_cells),
            plan,
            lambda ap_ids: build_network(
                n_cells, cull_loss_db=cull_loss_db, shard_ap_ids=ap_ids
            ),
            RngStreams(SEED),
            ResourceGrid(5e6),
            mode="process",
            supervision=None
            if retry_budget is None
            else SupervisionConfig(retry_budget=retry_budget, checkpoint_every=2),
            chaos=chaos,
        )
        try:
            t0 = time.perf_counter()
            digests = drive(net)
            return {
                "digests": digests,
                "wall_s": time.perf_counter() - t0,
                "mode": net.mode,
                "stats": dict(net.supervisor.stats) if net.supervisor else {},
                "build": net.worker_build_stats(),
            }
        finally:
            net.close()

    # Unsharded reference twice: through the batched gain-fill kernels
    # (the default every sharded run also uses) and through the scalar
    # fill oracle.  Their prefill seconds record what the kernels buy on
    # this population.  The once-per-process exactness probes run first
    # so their cost does not land in the batched arm's prefill.
    vecmath.vectorized_report()
    batched_net = build_network(n_cells, cull_loss_db=cull_loss_db)
    unsharded = drive(batched_net)
    scalar_net = build_network(
        n_cells, cull_loss_db=cull_loss_db, gain_fill=FILL_SCALAR
    )
    if drive(scalar_net) != unsharded:
        raise SystemExit(
            "shard smoke digest mismatch: the batched gain-fill run "
            "diverged from the scalar fill oracle"
        )

    bare = drive_sharded()
    if bare["digests"] != unsharded:
        raise SystemExit(
            f"shard smoke digest mismatch: the {n_shards}-shard run "
            f"diverged from the unsharded incremental epoch at epoch "
            f"{_first_divergence(bare['digests'], unsharded)}"
        )
    # Same run under the fault-tolerant supervisor (no chaos): heartbeat
    # tracking, journaling and periodic recovery checkpoints on top of the
    # bare shard engine.
    supervised = drive_sharded(retry_budget=3)
    if supervised["digests"] != unsharded:
        raise SystemExit(
            "shard smoke digest mismatch: the supervised run diverged "
            "from the unsharded incremental epoch"
        )

    killed = drive_sharded(retry_budget=3, chaos=kill)
    stats = killed["stats"]
    if killed["digests"] != unsharded:
        raise SystemExit(
            f"chaos smoke: recovery after the epoch-{kill_epoch} worker "
            f"kill diverged from the fault-free run at epoch "
            f"{_first_divergence(killed['digests'], unsharded)}"
        )
    if stats["restarts"] < 1 or stats["crashes"] < 1:
        raise SystemExit(
            f"chaos smoke: the scheduled kill was not recovered as a "
            f"crash (stats: {stats})"
        )

    tel = Telemetry(trace=True)
    with activated(tel):
        traced = drive_sharded(retry_budget=3, chaos=kill)
    if traced["digests"] != killed["digests"]:
        raise SystemExit(
            f"obs shard smoke: tracing changed the run -- digests diverged "
            f"at epoch {_first_divergence(traced['digests'], killed['digests'])}"
        )
    if traced["stats"]["restarts"] < 1:
        raise SystemExit(
            f"obs shard smoke: the scheduled kill was not recovered "
            f"(stats: {traced['stats']})"
        )
    names = {r.name for r in tel.tracer.records}
    for required in (
        "shard.barrier.partial",
        "shard.barrier.commit",
        "shard.respawn",
        "shard.replay",
    ):
        if required not in names:
            raise SystemExit(
                f"obs shard smoke: merged timeline is missing the "
                f"{required!r} span"
            )
    shards_seen = sorted(
        {
            r.args["shard"]
            for r in tel.tracer.records
            if isinstance(r.args.get("shard"), int)
        }
    )
    if shards_seen != list(range(n_shards)):
        raise SystemExit(
            f"obs shard smoke: expected spans from shards "
            f"{list(range(n_shards))}, got {shards_seen}"
        )
    # Exactly-once accounting: each shard contributed each measured epoch
    # (plus warm-up) once, no matter how the replay re-executed it.
    counters = tel.registry.snapshot()["counters"]
    for k in range(n_shards):
        epochs_counted = counters.get(f"shard{k}.lte.epochs", 0.0)
        if epochs_counted != float(n_epochs + 1):
            raise SystemExit(
                f"obs shard smoke: shard {k} merged {epochs_counted} epoch "
                f"ticks, expected {n_epochs + 1} (duplicated or dropped "
                f"payloads)"
            )
    tel.tracer.write_chrome(str(SHARD_NETS_TRACE_PATH))
    tel.tracer.write_jsonl(str(SHARD_NETS_JSONL_PATH))

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        degraded = drive_sharded(retry_budget=0, chaos=kill)
    degraded_stats = degraded["stats"]
    degrade_warned = any(
        issubclass(w.category, ShardDegradedWarning) for w in caught
    )
    if degraded["digests"] != unsharded:
        raise SystemExit(
            "chaos smoke: the degraded-to-inline run diverged from the "
            "fault-free run"
        )
    if degraded_stats["degraded"] < 1 or not degrade_warned:
        raise SystemExit(
            f"chaos smoke: exhausting a zero retry budget must degrade "
            f"the shard inline with a ShardDegradedWarning "
            f"(stats: {degraded_stats}, warned: {degrade_warned})"
        )

    # Supervision cost over the bare engine; tracing cost over the
    # untraced kill run.
    supervision_frac = supervised["wall_s"] / bare["wall_s"] - 1.0
    tracing_frac = traced["wall_s"] / killed["wall_s"] - 1.0
    worker_mode = bare["mode"]
    print(
        f"shard nets: {n_shards} shards ({worker_mode} workers), {n_cells} "
        f"cells, {n_epochs} epochs, {cross_shard} cross-shard handovers, "
        f"kill@{kill_epoch} recovered (restarts={stats['restarts']}, "
        f"replayed_ops={stats['replayed_ops']}), budget-0 degraded inline "
        f"with warning, {len(tel.tracer)} merged trace records from shards "
        f"{shards_seen} -- digests ok on all 7 runs; overhead: supervision "
        f"{supervision_frac * 100:+.1f}%, tracing {tracing_frac * 100:+.1f}%"
    )
    print(f"merged trace: {SHARD_NETS_TRACE_PATH}, {SHARD_NETS_JSONL_PATH}")
    batched_prefill_s = batched_net.gain_prefill_s
    scalar_prefill_s = scalar_net.gain_prefill_s
    return {
        "benchmark": "lte-epoch-shard-nets",
        "seed": SEED,
        "cells": n_cells,
        "clients": n_cells * CLIENTS_PER_AP,
        "shards": n_shards,
        "worker_mode": worker_mode,
        "cull_loss_db": cull_loss_db,
        "epochs": n_epochs,
        "cross_shard_handovers": cross_shard,
        "kill_epoch": kill_epoch,
        "digest_match": True,
        "wall_s": round(bare["wall_s"], 4),
        "supervised": {
            "digest_match": True,
            "wall_s": round(supervised["wall_s"], 4),
            "overhead_frac": round(supervision_frac, 4),
        },
        "gain_fill": {
            "scalar_oracle_digest_match": True,
            "unsharded_batched_prefill_s": round(batched_prefill_s, 4),
            "unsharded_scalar_prefill_s": round(scalar_prefill_s, 4),
            "prefill_speedup": round(scalar_prefill_s / batched_prefill_s, 2)
            if batched_prefill_s > 0
            else None,
            "worker_prefill_s": [
                round(s["gain_prefill_s"], 4)
                if s.get("gain_prefill_s") is not None
                else None
                for s in bare["build"]
            ],
        },
        "recovery": {key: int(value) for key, value in sorted(stats.items())},
        "degraded": {
            key: int(value) for key, value in sorted(degraded_stats.items())
        },
        "degrade_warning": True,
        "traced": {
            "digest_match": True,
            "trace_records": len(tel.tracer),
            "wall_s": round(traced["wall_s"], 4),
            "overhead_frac": round(tracing_frac, 4),
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "quick mode for the default run, --activity-sweep and "
            "--gain-fill: small sizes and few epochs (CI / make bench)"
        ),
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=None,
        help=f"cell counts to benchmark (default {list(DEFAULT_SIZES)})",
    )
    parser.add_argument(
        "--epochs", type=int, default=None, help="epochs to time per run"
    )
    parser.add_argument(
        "--activity-sweep",
        action="store_true",
        help=(
            "time the incremental epoch across activity levels "
            f"{list(DEFAULT_ACTIVITIES)}; writes {INCREMENTAL_OUTPUT_PATH.name} "
            "(with --smoke: 20 cells, digest-checked against the scalar "
            "oracle)"
        ),
    )
    parser.add_argument(
        "--city",
        action="store_true",
        help=(
            "benchmark the spatial shard engine on a city-scale deployment "
            f"({CITY_CELLS} APs x {CITY_CELLS * CITY_CLIENTS_PER_AP} UEs) "
            f"across {list(CITY_SHARDS)} shards; writes {CITY_OUTPUT_PATH.name}"
        ),
    )
    parser.add_argument(
        "--shard-nets",
        action="store_true",
        help=(
            "CI gate: bare, supervised, killed, traced and degraded 2-shard "
            "runs under mobility and cross-shard handover churn must "
            "digest-equal the unsharded incremental epoch; writes "
            f"{SHARD_NETS_OUTPUT_PATH.name} (--output BENCH_shard_nets.json "
            "re-records the committed reference) plus "
            f"{SHARD_NETS_TRACE_PATH.name} / {SHARD_NETS_JSONL_PATH.name}"
        ),
    )
    parser.add_argument(
        "--gain-fill",
        action="store_true",
        help=(
            "benchmark batched gain-fill kernels against the scalar "
            "oracle on full cache builds (matrices must hash identical); "
            f"writes {GAINFILL_OUTPUT_PATH.name} "
            f"({GAINFILL_SMOKE_OUTPUT_PATH.name} with --smoke)"
        ),
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=None,
        help=f"result file (default {OUTPUT_PATH} / {INCREMENTAL_OUTPUT_PATH})",
    )
    args = parser.parse_args()
    # Smoke runs are correctness gates, not performance records: none of
    # them may clobber a full-scale BENCH_*.json.
    if args.gain_fill:
        payload = run_gainfill_bench(smoke=args.smoke)
        output = args.output or (
            GAINFILL_SMOKE_OUTPUT_PATH if args.smoke else GAINFILL_OUTPUT_PATH
        )
    elif args.shard_nets:
        payload = run_shard_nets(n_epochs=args.epochs or 6)
        output = args.output or SHARD_NETS_OUTPUT_PATH
    elif args.city:
        payload = run_city_bench(
            args.epochs or 5,
            n_cells=args.sizes[0] if args.sizes else CITY_CELLS,
        )
        output = args.output or CITY_OUTPUT_PATH
    elif args.activity_sweep:
        if args.smoke:
            n_cells = SMOKE_SWEEP_CELLS
            n_epochs = args.epochs or 3
            activities = [0.10, 0.50]
        else:
            n_cells = args.sizes[0] if args.sizes else SWEEP_CELLS
            n_epochs = args.epochs or 5
            activities = list(DEFAULT_ACTIVITIES)
        payload = run_activity_sweep(
            n_cells, activities, n_epochs, check=args.smoke
        )
        output = args.output or (
            (REPO_ROOT / "BENCH_incremental_smoke.json")
            if args.smoke
            else INCREMENTAL_OUTPUT_PATH
        )
    else:
        if args.smoke:
            sizes = args.sizes or [10, 20]
            n_epochs = args.epochs or 2
        else:
            sizes = args.sizes or list(DEFAULT_SIZES)
            n_epochs = args.epochs or 5
        payload = run_benchmark(sizes, n_epochs)
        output = args.output or (SMOKE_OUTPUT_PATH if args.smoke else OUTPUT_PATH)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")

if __name__ == "__main__":
    main()
