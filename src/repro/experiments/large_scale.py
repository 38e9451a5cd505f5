"""Figure 9: the large-scale comparison of CellFi, plain LTE, Wi-Fi, Oracle.

Three experiments on shared random deployments in a 2 km x 2 km area:

* 9(a) coverage (fraction of connected users) versus AP density;
* 9(b) per-client throughput CDFs at the densest setting, including the
  centralized oracle upper bound;
* 9(c) page-load-time CDFs under the dynamic web workload.

"Connected" follows the simulator's starvation threshold (a client whose
unmet demand leaves it below ~50 kb/s is starved).  Every scenario is
repeated over multiple seeds, as in the paper ("every scenario is repeated
20 times on a new topology") -- the repetition count scales down for CI via
``REPRO_FULL``.
"""

from __future__ import annotations

import inspect
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.baselines.oracle import OracleAllocator
from repro.baselines.plain_lte import PlainLtePolicy
from repro.core.interference.manager import CellFiInterferenceManager
from repro.experiments.common import Scenario, build_scenario
from repro.experiments.sweep import SweepSpec, run_sweep
from repro.obs import runtime as _obs_runtime
from repro.lte.network import LteNetworkSimulator
from repro.sim.shard import ChaosPolicy, ShardedNetwork, SupervisionConfig
from repro.sim.topology import grid_partition
from repro.sim.checkpoint import (
    CheckpointRegistry,
    Snapshot,
    from_jsonable,
    latest_checkpoint,
    to_jsonable,
)
from repro.traffic.backlogged import saturated_demand_fn
from repro.traffic.flows import Flow, FlowTracker
from repro.traffic.web import WebPage, WebWorkloadConfig, generate_web_sessions
from repro.wifi.network import (
    STANDARD_80211AF,
    WifiNetworkSimulator,
)

#: Epochs to settle before measuring (CellFi converges in a few epochs).
WARMUP_EPOCHS = 5

TECH_CELLFI = "CellFi"
TECH_LTE = "LTE"
TECH_WIFI = "802.11af"
TECH_ORACLE = "Oracle"


def _make_lte_net(
    scenario: Scenario,
    stream_label: str,
    shards: int = 1,
    shard_mode: str = "auto",
    shard_retry_budget: Optional[int] = None,
    chaos: Optional[str] = None,
):
    if shards <= 1:
        return scenario.lte_net(stream_label)
    # Sharded city-scale path: every worker owns one rectangular tile of
    # APs and builds through the same scenario builder, so a respawn
    # starts from build-time state before it replays its journal;
    # process workers inherit the loss block through fork.
    topology = scenario.topology
    return ShardedNetwork(
        topology,
        grid_partition(topology, shards),
        lambda ap_ids: scenario.lte_net(stream_label, shard_ap_ids=ap_ids),
        scenario.rngs.fork(stream_label),
        scenario.grid(),
        mode=shard_mode,
        supervision=(
            None
            if shard_retry_budget is None
            else SupervisionConfig(retry_budget=int(shard_retry_budget))
        ),
        chaos=ChaosPolicy.parse(chaos) if chaos else None,
    )


def _make_policy(tech: str, scenario: Scenario, net: LteNetworkSimulator):
    grid = net.grid
    if tech == TECH_CELLFI:
        return CellFiInterferenceManager(
            scenario.ap_ids, grid.n_subchannels, scenario.rngs.fork("manager")
        )
    if tech == TECH_LTE:
        return PlainLtePolicy(scenario.ap_ids, grid.n_subchannels)
    if tech == TECH_ORACLE:
        return OracleAllocator(net, grid.n_subchannels)
    raise ValueError(f"unknown LTE-family technology {tech!r}")


# -- Saturated experiments (Figures 9(a) and 9(b)) ---------------------------


@dataclass
class SaturatedRun:
    """Per-client saturated-throughput outcome for one technology/topology.

    Attributes:
        throughput_bps: mean per-client throughput over measured epochs.
        connected_fraction: mean fraction of connected clients.
    """

    tech: str
    throughput_bps: List[float]
    connected_fraction: float


class SaturatedLteRun:
    """Resumable epoch-boundary runner for one LTE-family saturated cell.

    Checkpoint granularity is the epoch: a snapshot after epoch ``k``
    captures everything the loop carries across the boundary -- the
    network's cross-epoch state, every RNG stream, the policy (for CellFi:
    stats and per-AP hoppers), the inter-epoch observations and the metric
    accumulators.  Restore follows the build-then-load protocol of
    :mod:`repro.sim.checkpoint`: the constructor rebuilds the object graph
    from ``config`` exactly as a fresh run would, then
    :meth:`CheckpointRegistry.restore` overwrites the mutable state.

    A custom prebuilt ``scenario`` may be injected for tests, but snapshot
    reconstruction always rebuilds via :func:`build_scenario` with default
    geometry, so only default-geometry scenarios restore faithfully.
    """

    def __init__(
        self,
        tech: str,
        seed: int,
        n_aps: int,
        clients_per_ap: int = 6,
        epochs: int = 15,
        scenario: Optional[Scenario] = None,
        shards: int = 1,
        shard_mode: str = "auto",
        shard_retry_budget: Optional[int] = None,
        chaos: Optional[str] = None,
    ) -> None:
        if tech == TECH_WIFI:
            raise ValueError(
                "the Wi-Fi comparison is event-driven; only LTE-family "
                "technologies support epoch checkpointing"
            )
        if shards > 1 and tech == TECH_ORACLE:
            raise ValueError(
                "the Oracle allocator queries live radio state at "
                "construction; run it unsharded"
            )
        if (shard_retry_budget is not None or chaos) and shards <= 1:
            raise ValueError(
                "a shard retry budget / chaos injection needs the shard "
                "engine; pass shards > 1"
            )
        self.tech = tech
        self.epochs = epochs
        self.config: Dict[str, Any] = {
            "tech": tech,
            "seed": seed,
            "n_aps": n_aps,
            "clients_per_ap": clients_per_ap,
            "epochs": epochs,
            "shards": shards,
            "shard_mode": shard_mode,
        }
        # Only non-default supervision knobs enter the config: sweep cache
        # keys and old snapshots hash the config dict, so defaults must
        # round-trip to the exact historical dict.
        if shard_retry_budget is not None:
            self.config["shard_retry_budget"] = int(shard_retry_budget)
        if chaos:
            self.config["chaos"] = chaos
        self.scenario = (
            scenario
            if scenario is not None
            else build_scenario(seed, n_aps, clients_per_ap)
        )
        self.net = _make_lte_net(
            self.scenario,
            f"net-{tech}",
            shards=shards,
            shard_mode=shard_mode,
            shard_retry_budget=shard_retry_budget,
            chaos=chaos,
        )
        self.policy = _make_policy(tech, self.scenario, self.net)
        self._demand_fn = saturated_demand_fn(self.net.topology)
        self._epoch = 0
        self._observations = None
        self._throughput_epochs: List[Dict[int, float]] = []
        self._connected_epochs: List[Dict[int, bool]] = []

        self.registry = CheckpointRegistry()
        self.registry.register("rng", self.scenario.rngs)
        self.registry.register("net-rng", self.net.rngs)
        self.registry.register("net", self.net)
        if hasattr(self.policy, "state_dict"):
            # CellFi: hopper/stats state plus the manager's stream fork.
            # The baselines compute their allocation at construction time
            # and carry nothing across epochs.
            self.registry.register("policy", self.policy)
            self.registry.register("policy-rng", self.policy.rngs)
        self.registry.register("driver", self)

    # -- Epoch loop -------------------------------------------------------------

    def step_epoch(self):
        """Run exactly one epoch; returns its :class:`EpochResult`."""
        if self._epoch >= self.epochs:
            raise RuntimeError(f"run already finished its {self.epochs} epochs")
        allowed = self.policy.decide(self._epoch, self._observations)
        tel = _obs_runtime.active()
        if tel is not None:
            # One driver-loop span per epoch on the parent (supervisor)
            # track, so the merged cross-shard timeline shows policy
            # decide/epoch boundaries next to the shard worker tracks.
            # Pin the clock to the epoch boundary first: a preceding
            # event-driven phase (Wi-Fi CSMA) may have left it ahead of
            # where run_epoch resets it, and spans must not run backward.
            tel.set_time(self._epoch * self.net.epoch_s)
        with (
            tel.span(
                "exp.epoch", "experiment",
                args={"tech": self.tech, "epoch": self._epoch},
            )
            if tel is not None
            else nullcontext()
        ):
            result = self.net.run_epoch(
                self._epoch, allowed, self._demand_fn(self._epoch)
            )
        self._observations = result.observations
        self._throughput_epochs.append(dict(result.throughput_bps))
        self._connected_epochs.append(dict(result.connected))
        self._epoch += 1
        return result

    def run(
        self,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: Optional[int] = None,
        halt_at: Optional[int] = None,
    ) -> Optional[SaturatedRun]:
        """Run to completion (or to epoch ``halt_at``), checkpointing.

        Returns the :class:`SaturatedRun`, or ``None`` when halted early.
        """
        stop = self.epochs if halt_at is None else min(int(halt_at), self.epochs)
        while self._epoch < stop:
            self.step_epoch()
            if (
                checkpoint_dir is not None
                and checkpoint_every
                and self._epoch % int(checkpoint_every) == 0
            ):
                self.save_checkpoint(checkpoint_dir)
        if stop < self.epochs:
            if checkpoint_dir is not None:
                self.save_checkpoint(checkpoint_dir)
            return None
        return self.result()

    def result(self) -> SaturatedRun:
        """Aggregate the per-epoch accumulators (post-warmup epochs only)."""
        measured_from = min(WARMUP_EPOCHS, self.epochs - 1)
        clients = [c.client_id for c in self.net.topology.clients]
        measured_t = self._throughput_epochs[measured_from:]
        measured_c = self._connected_epochs[measured_from:]
        throughput = [
            float(np.mean([t[cid] for t in measured_t])) for cid in clients
        ]
        connected = float(
            np.mean([np.mean([c[cid] for cid in clients]) for c in measured_c])
        )
        return SaturatedRun(
            tech=self.tech,
            throughput_bps=throughput,
            connected_fraction=connected,
        )

    # -- Checkpointing ----------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """The loop-carried state: position, observations, accumulators."""
        return {
            "epoch": self._epoch,
            "observations": self._observations,
            "throughput_epochs": self._throughput_epochs,
            "connected_epochs": self._connected_epochs,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        self._epoch = state["epoch"]
        self._observations = state["observations"]
        self._throughput_epochs = list(state["throughput_epochs"])
        self._connected_epochs = list(state["connected_epochs"])

    def save_checkpoint(self, directory: str) -> str:
        """Write a snapshot named by the epoch just finished."""
        os.makedirs(directory, exist_ok=True)
        snapshot = self.registry.snapshot(
            meta={
                "driver": SCENARIO_SATURATED,
                "config": to_jsonable(self.config),
            }
        )
        path = os.path.join(directory, f"ckpt_epoch_{self._epoch:06d}.json")
        snapshot.save(path)
        return path

    def run_digest(self) -> str:
        """Canonical digest over all registered state (for replay checks)."""
        return self.registry.run_digest()

    def supervision_stats(self) -> Optional[Dict[str, int]]:
        """Failure/recovery counters, or None for an unsharded run."""
        supervisor = getattr(self.net, "supervisor", None)
        if supervisor is None:
            return None
        return dict(supervisor.stats)

    def close(self) -> None:
        """Release shard worker processes, if the network holds any."""
        close = getattr(self.net, "close", None)
        if close is not None:
            close()

    @classmethod
    def from_snapshot(cls, snapshot: Snapshot) -> "SaturatedLteRun":
        """Build-then-load: reconstruct from the embedded config, restore."""
        config = from_jsonable(snapshot.meta["config"])
        # Older snapshots name the epoch backend they ran on.  One that ran
        # the incremental epoch (or "vectorized", its bit-identical
        # predecessor) resumes exactly: no epoch cache is serialized.  One
        # that ran the scalar oracle kept its max-CQI history under
        # ``max_cqi_state``, which the production epoch does not read, so
        # it cannot.
        backend = config.pop("backend", "incremental")
        if backend not in ("incremental", "vectorized"):
            raise ValueError(
                f"snapshot ran the {backend!r} epoch backend; only "
                "incremental snapshots resume exactly"
            )
        # A setting a later release retired (such as the switch that made
        # shard supervision optional: every sharded run is supervised now)
        # changes no result bit, so the restore drops it.
        accepted = inspect.signature(cls).parameters
        run = cls(**{key: value for key, value in config.items() if key in accepted})
        run.registry.restore(snapshot)
        return run

    @classmethod
    def restore(cls, path: str) -> "SaturatedLteRun":
        """Load a snapshot file and restore a run from it."""
        return cls.from_snapshot(Snapshot.load(path))


def run_wifi_saturated(
    scenario: Scenario, duration_s: float = 6.0, standard=STANDARD_80211AF
) -> SaturatedRun:
    """Run 802.11af with backlogged traffic on the same topology."""
    net = WifiNetworkSimulator(
        topology=scenario.topology,
        channel=scenario.channel,
        standard=standard,
        rngs=scenario.rngs.fork(f"wifi-{standard.name}"),
    )
    result = net.run_saturated(duration_s)
    clients = [c.client_id for c in net.topology.clients]
    throughput = [result.throughput_bps[cid] for cid in clients]
    from repro.lte.network import STARVATION_THRESHOLD_BPS

    connected = float(
        np.mean([t >= STARVATION_THRESHOLD_BPS for t in throughput])
    )
    return SaturatedRun(
        tech=standard.name, throughput_bps=throughput, connected_fraction=connected
    )


# -- Sweep-spec plumbing ------------------------------------------------------
#
# Figures 9(a) and 9(b) are grids of independent (seed, density, tech)
# cells over the *same* cell evaluator, so both are expressed as sweep
# specs and executed by :func:`repro.experiments.sweep.run_sweep` --
# serially in-process by default, or fanned out over worker processes
# via the ``jobs`` argument / ``python -m repro.cli sweep``.

SCENARIO_SATURATED = "large_scale_saturated"


def _supervision_cell_params(
    shard_retry_budget: Optional[int],
    chaos: Optional[str],
) -> Dict[str, object]:
    """Non-default supervision knobs as sweep cell params (else empty)."""
    params: Dict[str, object] = {}
    if shard_retry_budget is not None:
        params["shard_retry_budget"] = int(shard_retry_budget)
    if chaos:
        # Validate eagerly: a typo should fail at spec build time, not in
        # a worker process half-way through the grid.
        ChaosPolicy.parse(chaos)
        params["chaos"] = chaos
    return params


def large_scale_saturated_cell(
    seed: int,
    n_aps: int,
    tech: str,
    clients_per_ap: int = 6,
    epochs: int = 15,
    wifi_duration_s: float = 6.0,
    shards: int = 1,
    shard_retry_budget: Optional[int] = None,
    chaos: Optional[str] = None,
    checkpoint: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """One Figure 9(a)/9(b) grid cell: a single (seed, density, tech) run.

    ``shards > 1`` runs LTE-family cells on the spatial shard engine
    (:mod:`repro.sim.shard`): worker processes own rectangular tiles of
    the map, and the merged result -- metrics and run digest alike -- is
    bitwise identical to the unsharded run.  Wi-Fi cells are event-driven
    and ignore the setting.

    All randomness derives from ``seed`` via the scenario's
    :class:`~repro.sim.rng.RngStreams`, so the metrics are identical no
    matter which worker process (or how many) evaluates the cell.

    ``checkpoint`` (injected by the sweep runner when checkpointing is on)
    is a dict with ``dir`` and optional ``every`` (epochs): LTE-family
    cells then snapshot mid-run and resume from the latest snapshot in
    ``dir`` when re-executed after a crash or timeout.  Wi-Fi cells are
    event-driven and ignore it.
    """
    ckpt_dir = checkpoint.get("dir") if checkpoint else None
    ckpt_every = checkpoint.get("every", 5) if checkpoint else None
    if tech == TECH_WIFI:
        scenario = build_scenario(seed, n_aps, clients_per_ap)
        run = run_wifi_saturated(scenario, duration_s=wifi_duration_s)
        digest = None
        supervision = None
    else:
        resume_from = latest_checkpoint(ckpt_dir) if ckpt_dir else None
        if resume_from is not None:
            sat = SaturatedLteRun.restore(resume_from)
        else:
            sat = SaturatedLteRun(
                tech, seed, n_aps, clients_per_ap, epochs=epochs,
                shards=shards,
                shard_retry_budget=shard_retry_budget,
                chaos=chaos,
            )
        run = sat.run(checkpoint_dir=ckpt_dir, checkpoint_every=ckpt_every)
        digest = sat.run_digest()
        supervision = sat.supervision_stats()
        sat.close()
    throughput = [float(t) for t in run.throughput_bps]
    metrics: Dict[str, object] = {
        "tech": run.tech,
        "connected_fraction": float(run.connected_fraction),
        "throughput_bps": throughput,
        "median_bps": float(np.median(throughput)),
    }
    if digest is not None:
        metrics["run_digest"] = digest
    if supervision is not None:
        metrics["shard_supervision"] = {
            key: int(value) for key, value in sorted(supervision.items())
        }
    return metrics


#: The sweep runner injects ``checkpoint={"dir": ..., "every": ...}`` into
#: cell functions that advertise support.
large_scale_saturated_cell.supports_checkpoint = True


def fig9a_sweep_spec(
    densities: Sequence[int] = (6, 10, 14),
    seeds: Sequence[int] = (1, 2),
    techs: Sequence[str] = (TECH_WIFI, TECH_LTE, TECH_CELLFI),
    clients_per_ap: int = 6,
    epochs: int = 12,
    wifi_duration_s: float = 5.0,
    shards: int = 1,
    shard_retry_budget: Optional[int] = None,
    chaos: Optional[str] = None,
) -> SweepSpec:
    """The Figure 9(a) grid: density x seed x technology."""
    base: Dict[str, object] = {
        "clients_per_ap": clients_per_ap,
        "epochs": epochs,
        "wifi_duration_s": wifi_duration_s,
        "shards": shards,
    }
    # Default supervision knobs stay out of the cell params so historical
    # sweep caches (keyed on the param dict) still hit.
    base.update(
        _supervision_cell_params(shard_retry_budget, chaos)
    )
    return SweepSpec.from_grid(
        "fig9a",
        SCENARIO_SATURATED,
        grid={"n_aps": list(densities), "seed": list(seeds), "tech": list(techs)},
        base=base,
    )


def fig9b_sweep_spec(
    seeds: Sequence[int] = (1,),
    n_aps: int = 14,
    techs: Sequence[str] = (TECH_WIFI, TECH_LTE, TECH_CELLFI, TECH_ORACLE),
    clients_per_ap: int = 6,
    epochs: int = 15,
    wifi_duration_s: float = 6.0,
    shards: int = 1,
    shard_retry_budget: Optional[int] = None,
    chaos: Optional[str] = None,
) -> SweepSpec:
    """The Figure 9(b) grid: seed x technology at the densest setting."""
    base: Dict[str, object] = {
        "n_aps": n_aps,
        "clients_per_ap": clients_per_ap,
        "epochs": epochs,
        "wifi_duration_s": wifi_duration_s,
        "shards": shards,
    }
    base.update(
        _supervision_cell_params(shard_retry_budget, chaos)
    )
    return SweepSpec.from_grid(
        "fig9b",
        SCENARIO_SATURATED,
        grid={"seed": list(seeds), "tech": list(techs)},
        base=base,
    )


def _metrics_by_cell(
    spec: SweepSpec, jobs: int, **sweep_kwargs
) -> Dict[tuple, Dict[str, object]]:
    """Run a spec and key each cell's metrics by (seed, n_aps, tech)."""
    result = run_sweep(spec, jobs=jobs, **sweep_kwargs)
    result.raise_on_failures()
    keyed: Dict[tuple, Dict[str, object]] = {}
    for record in result.records:
        params = record.params
        keyed[(params["seed"], params["n_aps"], params["tech"])] = record.metrics
    return keyed


@dataclass
class CoverageVsDensity:
    """Figure 9(a): connected-user fraction per technology and density."""

    densities: List[int]
    coverage: Dict[str, List[float]] = field(default_factory=dict)

    def series(self, tech: str) -> List[float]:
        """Coverage fractions for one technology, ordered by density."""
        return self.coverage[tech]


def run_coverage_vs_density(
    densities: Sequence[int],
    seeds: Sequence[int],
    clients_per_ap: int = 6,
    epochs: int = 12,
    wifi_duration_s: float = 5.0,
    include_wifi: bool = True,
    jobs: int = 0,
    shards: int = 1,
    shard_retry_budget: Optional[int] = None,
    chaos: Optional[str] = None,
    **sweep_kwargs,
) -> CoverageVsDensity:
    """Sweep AP density and measure coverage for each technology.

    The grid is expressed as a sweep spec; ``jobs``/``sweep_kwargs`` pass
    straight to :func:`repro.experiments.sweep.run_sweep` (``jobs=0``
    keeps the historical serial in-process behaviour).  ``shards`` runs
    the LTE-family cells on the spatial shard engine without changing any
    metric bit.
    """
    result = CoverageVsDensity(densities=list(densities))
    techs = [TECH_WIFI, TECH_LTE, TECH_CELLFI] if include_wifi else [TECH_LTE, TECH_CELLFI]
    spec = fig9a_sweep_spec(
        densities=densities,
        seeds=seeds,
        techs=techs,
        clients_per_ap=clients_per_ap,
        epochs=epochs,
        wifi_duration_s=wifi_duration_s,
        shards=shards,
        shard_retry_budget=shard_retry_budget,
        chaos=chaos,
    )
    cells = _metrics_by_cell(spec, jobs, **sweep_kwargs)
    result.coverage = {
        tech: [
            float(
                np.mean(
                    [
                        cells[(seed, density, tech)]["connected_fraction"]
                        for seed in seeds
                    ]
                )
            )
            for density in densities
        ]
        for tech in techs
    }
    return result


@dataclass
class ThroughputCdfs:
    """Figure 9(b): pooled per-client throughput samples per technology."""

    samples_bps: Dict[str, List[float]] = field(default_factory=dict)

    def starved_fraction(self, tech: str, threshold_bps: float = 50e3) -> float:
        """Fraction of clients below the starvation threshold."""
        samples = self.samples_bps[tech]
        return float(np.mean([s < threshold_bps for s in samples]))

    def median_bps(self, tech: str) -> float:
        """Median client throughput."""
        return float(np.median(self.samples_bps[tech]))


def run_throughput_cdfs(
    seeds: Sequence[int],
    n_aps: int = 14,
    clients_per_ap: int = 6,
    epochs: int = 15,
    wifi_duration_s: float = 6.0,
    include_oracle: bool = True,
    jobs: int = 0,
    shards: int = 1,
    shard_retry_budget: Optional[int] = None,
    chaos: Optional[str] = None,
    **sweep_kwargs,
) -> ThroughputCdfs:
    """The densest-scenario throughput comparison, pooled over seeds.

    Expressed as a sweep spec over (seed, tech); see
    :func:`run_coverage_vs_density` for the ``jobs`` semantics.  The
    Oracle baseline needs live radio-state queries, so ``shards > 1``
    drops it from the grid.
    """
    techs = [TECH_WIFI, TECH_LTE, TECH_CELLFI] + (
        [TECH_ORACLE] if include_oracle and shards <= 1 else []
    )
    spec = fig9b_sweep_spec(
        seeds=seeds,
        n_aps=n_aps,
        techs=techs,
        clients_per_ap=clients_per_ap,
        epochs=epochs,
        wifi_duration_s=wifi_duration_s,
        shards=shards,
        shard_retry_budget=shard_retry_budget,
        chaos=chaos,
    )
    cells = _metrics_by_cell(spec, jobs, **sweep_kwargs)
    pooled: Dict[str, List[float]] = {t: [] for t in techs}
    for seed in seeds:
        for tech in techs:
            pooled[tech].extend(cells[(seed, n_aps, tech)]["throughput_bps"])
    return ThroughputCdfs(samples_bps=pooled)


# -- Dynamic web workload (Figure 9(c)) ------------------------------------------


@dataclass
class PageLoadResult:
    """Figure 9(c): page-load-time samples per technology.

    Pages still unfinished when the simulation ends are *censored*: a
    technology that starves clients would otherwise look fast because only
    its easy pages complete.  Medians therefore treat each unfinished page
    as an infinite load time, exactly once per unfinished page.
    """

    load_times_s: Dict[str, List[float]] = field(default_factory=dict)
    unfinished: Dict[str, int] = field(default_factory=dict)

    def median_s(self, tech: str) -> float:
        """Censored median page load time."""
        samples = list(self.load_times_s[tech])
        samples += [float("inf")] * self.unfinished.get(tech, 0)
        if not samples:
            raise ValueError(f"no pages recorded for {tech!r}")
        return float(np.median(samples))

    def completion_fraction(self, tech: str) -> float:
        """Fraction of offered pages that completed."""
        done = len(self.load_times_s[tech])
        total = done + self.unfinished.get(tech, 0)
        return done / total if total else 0.0


def _run_lte_family_web(
    tech: str,
    scenario: Scenario,
    pages: List[WebPage],
    duration_s: float,
) -> tuple:
    """Epoch-driven web workload for an LTE-family technology."""
    net = _make_lte_net(scenario, f"web-{tech}")
    policy = _make_policy(tech, scenario, net)
    tracker = FlowTracker()
    pending = sorted(pages, key=lambda p: p.arrival_s)
    cursor = 0
    observations = None
    epochs = int(np.ceil(duration_s))
    for epoch in range(epochs):
        t0, t1 = float(epoch), float(epoch + 1)
        while cursor < len(pending) and pending[cursor].arrival_s < t1:
            page = pending[cursor]
            tracker.arrive(
                Flow(
                    client_id=page.client_id,
                    arrival_s=page.arrival_s,
                    size_bits=page.total_bytes * 8.0,
                )
            )
            cursor += 1
        demands = {
            c.client_id: tracker.queued_bits(c.client_id)
            for c in net.topology.clients
        }
        allowed = policy.decide(epoch, observations)
        result = net.run_epoch(epoch, allowed, demands)
        observations = result.observations
        for cid, bits in result.served_bits.items():
            if bits > 0.0:
                tracker.serve(cid, bits, t0, t1)
    return tracker.completion_times(), tracker.in_flight()


def _run_wifi_web(
    scenario: Scenario, pages: List[WebPage], duration_s: float
) -> tuple:
    """Event-driven web workload for 802.11af."""
    net = WifiNetworkSimulator(
        topology=scenario.topology,
        channel=scenario.channel,
        standard=STANDARD_80211AF,
        rngs=scenario.rngs.fork("wifi-web"),
    )
    tracker = FlowTracker()

    def on_delivery(client_id: int, bits: float) -> None:
        tracker.serve(client_id, bits, net.sim.now, net.sim.now)

    net.set_delivery_callback(on_delivery)
    arrivals = []
    for page in pages:
        tracker.arrive(
            Flow(
                client_id=page.client_id,
                arrival_s=page.arrival_s,
                size_bits=page.total_bytes * 8.0,
            )
        )
        arrivals.append((page.arrival_s, page.client_id, page.total_bytes * 8.0))
    net.run_dynamic(duration_s, arrivals)
    return tracker.completion_times(), tracker.in_flight()


def run_page_load_times(
    seeds: Sequence[int],
    n_aps: int = 10,
    clients_per_ap: int = 6,
    duration_s: float = 30.0,
    workload: WebWorkloadConfig = WebWorkloadConfig(),
    include_wifi: bool = True,
) -> PageLoadResult:
    """Figure 9(c): page-load-time comparison under web traffic."""
    techs = ([TECH_WIFI] if include_wifi else []) + [TECH_LTE, TECH_CELLFI]
    result = PageLoadResult(
        load_times_s={t: [] for t in techs}, unfinished={t: 0 for t in techs}
    )
    for seed in seeds:
        scenario = build_scenario(seed, n_aps, clients_per_ap)
        pages = generate_web_sessions(
            [c.client_id for c in scenario.build_clients],
            duration_s,
            scenario.rngs.stream("web-arrivals"),
            config=workload,
        )
        for tech in techs:
            if tech == TECH_WIFI:
                times, unfinished = _run_wifi_web(scenario, pages, duration_s)
            else:
                times, unfinished = _run_lte_family_web(
                    tech, scenario, pages, duration_s
                )
            result.load_times_s[tech].extend(times)
            result.unfinished[tech] += unfinished
    return result
