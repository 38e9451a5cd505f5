#!/usr/bin/env python
"""Benchmark the LTE epoch hot path: scalar oracle vs incremental.

Times ``LteNetworkSimulator.run_epoch`` under saturated demand on seeded
random deployments at several cell counts, and writes the measurements to
``BENCH_epoch.json`` at the repository root.  Each size records the
fastest of ``REPEATS`` runs on fresh networks (:func:`best_of`), the same
statistic ``bench_obs_overhead.py`` gates its telemetry-disabled arm on.

The production incremental epoch is timed at every size.  The scalar
oracle (:class:`repro.lte.scalar_oracle.ScalarOracleSimulator`) is
quadratic in cells per subchannel and becomes very slow past ~50 cells, so
it is only timed up to ``MAX_SCALAR_CELLS`` (50).  Both are bit-identical
for the same seeds (``tests/test_lte_network_vectorized.py``), so the speedup
is free.
``--smoke`` runs small sizes into the untracked ``BENCH_epoch_smoke.json``
so it never replaces the reference the telemetry-overhead gate reads.

``--shard-nets`` is the CI shard gate: one 20-cell churn scenario
(mobility *and* cross-shard handovers) driven through bare, supervised,
killed, traced and degraded 2-shard process-mode runs whose per-epoch
digests must all equal the unsharded incremental epoch's, writing the
untracked ``bench-shard-nets-current.json`` (``--output
BENCH_shard_nets.json`` re-records the committed reference).
``--gain-fill`` times full gain-cache builds, batched kernels vs the
scalar fill oracle, whose matrices must hash identical.

End-to-end timing of the paper's CellFi loop lives in ``perfbench/run.py``.

Usage::

    PYTHONPATH=src python benchmarks/bench_epoch.py                # full run
    PYTHONPATH=src python benchmarks/bench_epoch.py --smoke        # quick CI run
    PYTHONPATH=src python benchmarks/bench_epoch.py --shard-nets   # shard CI gate
    PYTHONPATH=src python benchmarks/bench_epoch.py --gain-fill    # fill kernels
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import pathlib
import time
import warnings
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.lte.network import (
    AllSubchannelsPolicy,
    EpochResult,
    LteNetworkSimulator,
)
from repro.lte.scalar_oracle import ScalarOracleSimulator
from repro.obs import Telemetry, activated
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
SHARD_NETS_OUTPUT_PATH = REPO_ROOT / "bench-shard-nets-current.json"
SHARD_NETS_TRACE_PATH = REPO_ROOT / "shard-nets-trace.json"
SHARD_NETS_JSONL_PATH = REPO_ROOT / "shard-nets.jsonl"
GAINFILL_OUTPUT_PATH = REPO_ROOT / "BENCH_gainfill.json"
GAINFILL_SMOKE_OUTPUT_PATH = REPO_ROOT / "BENCH_gainfill_smoke.json"

DEFAULT_SIZES = (10, 50, 200)
#: Largest size at which the scalar oracle is also timed.
MAX_SCALAR_CELLS = 50
#: Fresh-network timings per configuration of a full run; the fastest one
#: is recorded (see :func:`best_of`).
REPEATS = 3
SHARD_NETS_CELLS = 20
CLIENTS_PER_AP = 6
SEED = 2017
AREA_M = 2000.0
#: Path-loss horizon of the shard gate and the gain-fill builds: at
#: 600 MHz urban Hata ~135 dB is ~1.7 km, so distant cells across the
#: 2 km area are culled while every plausible interferer stays live.
CULL_LOSS_DB = 135.0
#: Offered load per active client in the shard gate (bits per 1 s epoch):
#: a lightly loaded network -- bounded demand, not saturation -- so the
#: scheduler serves the backlog and goes quiet instead of burning every
#: mini-slot.
LIGHT_DEMAND_BITS = 1e5


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


def best_of(
    n_cells: int,
    n_epochs: int,
    repeats: int,
    simulator: Type[LteNetworkSimulator] = LteNetworkSimulator,
    telemetry: Optional[Callable[[], Telemetry]] = None,
) -> Dict[str, float]:
    """The fastest of ``repeats`` :func:`time_epochs` runs.

    A fresh network per repeat keeps cache state comparable; min-of-N
    filters scheduler noise the same way ``timeit`` does.  ``telemetry``
    builds the sink active while a repeat runs (``None``: disabled).  The
    ``BENCH_epoch.json`` reference and every arm of the telemetry-overhead
    gate are timed through here, so that gate compares like with like.
    """
    best: Optional[Dict[str, float]] = None
    for _ in range(repeats):
        net = build_network(n_cells, simulator)
        with activated(telemetry() if telemetry else None):
            timing = time_epochs(net, n_epochs)
        if best is None or timing["per_epoch_s"] < best["per_epoch_s"]:
            best = timing
    return best


def run_benchmark(sizes: List[int], n_epochs: int, repeats: int) -> Dict:
    results = []
    for n_cells in sizes:
        entry: Dict = {"cells": n_cells, "clients": n_cells * CLIENTS_PER_AP}
        entry["incremental"] = best_of(n_cells, n_epochs, repeats)
        print(
            f"{n_cells:4d} cells  incremental "
            f"{entry['incremental']['per_epoch_s'] * 1e3:9.1f} ms/epoch"
        )
        if n_cells <= MAX_SCALAR_CELLS:
            entry["scalar"] = best_of(
                n_cells, n_epochs, repeats, ScalarOracleSimulator
            )
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
        "repeats": repeats,
        "results": results,
    }


# ---------------------------------------------------------------------------
# The CI shard gate (--shard-nets)
# ---------------------------------------------------------------------------


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


def _light_load_scenario(n_cells: int) -> Tuple[Dict[int, float], List[int]]:
    """Deterministic (demands, mover client ids).

    Half the cells are active: their clients carry ``LIGHT_DEMAND_BITS``
    each and one client per active cell moves every epoch.  The other
    half idle, the regime the incremental epoch targets (most cells
    unchanged epoch over epoch).
    """
    n_active = max(1, int(round(0.5 * n_cells)))
    rng = np.random.default_rng(SEED + 1)
    active_aps = sorted(rng.choice(n_cells, size=n_active, replace=False).tolist())
    topology = _bench_topology(n_cells)
    demands: Dict[int, float] = {}
    movers: List[int] = []
    for ap_id in active_aps:
        clients = topology.clients_of(ap_id)
        for client in clients:
            demands[client.client_id] = LIGHT_DEMAND_BITS
        if clients:
            movers.append(clients[0].client_id)
    return demands, movers


def _movement_schedule(
    topology: Topology, movers: List[int], n_epochs: int
) -> List[List[Tuple[int, float, float]]]:
    """Per-epoch absolute positions for the movers, identical across arms."""
    rng = np.random.default_rng(SEED + 2)
    base = {cid: (topology.client(cid).x, topology.client(cid).y) for cid in movers}
    schedule: List[List[Tuple[int, float, float]]] = []
    for _ in range(n_epochs):
        step = []
        for cid in movers:
            bx, by = base[cid]
            x = min(max(bx + rng.uniform(-50.0, 50.0), 0.0), AREA_M)
            y = min(max(by + rng.uniform(-50.0, 50.0), 0.0), AREA_M)
            step.append((cid, x, y))
        schedule.append(step)
    return schedule


def _churn_smoke_scenario(
    n_cells: int, n_shards: int, n_epochs: int
) -> Tuple[Dict, List, List, List[Tuple[int, int]], int]:
    """Mobility + forced-handover churn driven by the shard-nets gate."""
    demands, movers = _light_load_scenario(n_cells)
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


def _first_divergence(digests: List[str], reference: List[str]) -> int:
    """1-based index of the first epoch whose digests differ."""
    return next(
        i for i, (a, b) in enumerate(zip(digests, reference), 1) if a != b
    )


def run_shard_nets(
    n_cells: int = SHARD_NETS_CELLS,
    n_shards: int = 2,
    n_epochs: int = 6,
    cull_loss_db: float = CULL_LOSS_DB,
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


# ---------------------------------------------------------------------------
# Gain-fill kernels (--gain-fill)
# ---------------------------------------------------------------------------


#: Gain-fill populations share one AP density (50 APs per km^2), so the
#: audible-interferer counts under the cull horizon match across sizes.
CITY_DENSITY_PER_KM2 = 50.0


def _city_area_m(n_cells: int) -> float:
    return math.sqrt(n_cells / CITY_DENSITY_PER_KM2) * 1000.0


def _city_topology(n_cells: int, clients_per_ap: int, area_m: float) -> Topology:
    # No reassociate_strongest: re-attachment would evaluate every
    # (client, AP) channel gain up front, which is the very build being
    # timed.  Clients stay with their spawning AP.
    rng = np.random.default_rng(SEED)
    return random_topology(
        rng,
        n_aps=n_cells,
        clients_per_ap=clients_per_ap,
        area_m=area_m,
        client_range_m=600.0,
    )


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
        cull_loss_db=CULL_LOSS_DB,
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
        "cull_loss_db": CULL_LOSS_DB,
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "quick mode for the default run and --gain-fill: small sizes "
            "and few epochs (CI / make bench)"
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
        help=(
            f"result file (default {OUTPUT_PATH.name} for the default run; "
            "each mode's help names its own)"
        ),
    )
    return parser


def main() -> None:
    args = build_parser().parse_args()
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
    else:
        if args.smoke:
            sizes = args.sizes or [10, 20]
            n_epochs = args.epochs or 2
            repeats = 1
        else:
            sizes = args.sizes or list(DEFAULT_SIZES)
            n_epochs = args.epochs or 5
            repeats = REPEATS
        payload = run_benchmark(sizes, n_epochs, repeats)
        output = args.output or (SMOKE_OUTPUT_PATH if args.smoke else OUTPUT_PATH)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")


if __name__ == "__main__":
    main()
