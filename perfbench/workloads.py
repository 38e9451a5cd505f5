"""The benchmark's three workloads, driven through the program's public API.

A *step* is one simulated second: one 1 s epoch for the LTE workloads, one
simulated second of CSMA for Wi-Fi.  Each workload has a ``setup`` (timed:
from ``build_scenario`` until the object is ready to step), an untimed
``prepare`` (input generation, e.g. the mobility/handover trace) and a
``run`` that times every step and hands each step's outcome to the caller
outside the timed region.

Inputs come from a *variant* number, ``seed % SEED_POOL``: every variant
has a result digest recorded in ``digests.json``, so every run is checked
against a recording whatever seed it is given.
"""

from __future__ import annotations

import hashlib
import math
import time
from typing import Any, Callable, Dict, List, Tuple

from repro.experiments.common import AREA_M, build_scenario
from repro.experiments.large_scale import (
    TECH_CELLFI,
    TECH_LTE,
    SaturatedLteRun,
)
from repro.lte.handover import HandoverController
from repro.lte.network import EpochResult
from repro.sim.mobility import RandomWaypointModel
from repro.sim.rng import RngStreams
from repro.sim.topology import ClientSite
from repro.wifi.network import STANDARD_80211AF, WifiNetworkSimulator

#: Number of recorded input variants; a run uses variant ``seed % SEED_POOL``.
SEED_POOL = 12

#: Metro deployment: the paper's 2 km x 2 km area at city density.
METRO_APS = 200
CLIENTS_PER_AP = 6

#: Fig. 9(b)'s densest Wi-Fi cell.
WIFI_APS = 14

#: The Wi-Fi workload keeps one deployment and lets the seed drive the CSMA
#: backoff streams: across deployments its per-step cost varies by up to
#: 1.7x (carrier-sense neighbourhoods differ), which would swamp any bound.
#: Deployment 1 costs about 7 reference seconds per simulated second,
#: which fits a run.
WIFI_DEPLOYMENT_SEED = 1

#: Simulated seconds of Wi-Fi warm-up before the first timed step: queues
#: fill and backoffs desynchronize.  Half a second keeps the steps aligned
#: with the medium's 0.5 s history-prune period.
WIFI_WARMUP_S = 0.5

#: Timed laps per Wi-Fi step: a host-speed sample every quarter of a
#: simulated second keeps the normalization close to the work it scales.
WIFI_LAPS = 4

#: Client moves per timed lap: event apply is most of a mobile step, so it
#: is split into laps with host-speed samples in between.
MOVES_PER_LAP = 300

#: A traced run needs at least one traced and one untraced step.
MIN_TIMED_STEPS = 2

#: LTE warm-up epochs excluded from timing.
LTE_WARMUP_STEPS = 1


def _float(value: float) -> str:
    return float(value).hex()


def lte_epoch_bytes(result: EpochResult) -> bytes:
    """Canonical bytes of one epoch: served bits, connected flags, observations."""
    parts: List[str] = [f"e{result.epoch_index}"]
    for cid in sorted(result.served_bits):
        parts.append(f"s{cid}={_float(result.served_bits[cid])}")
    for cid in sorted(result.connected):
        parts.append(f"c{cid}={int(result.connected[cid])}")
    for ap_id in sorted(result.observations):
        obs = result.observations[ap_id]
        parts.append(f"o{ap_id}:{obs.n_active_clients}:{obs.estimated_contenders}")
        for cid in sorted(obs.clients):
            c = obs.clients[cid]
            fractions = ",".join(
                f"{sub}:{_float(frac)}"
                for sub, frac in sorted(c.scheduled_fraction.items())
            )
            parts.append(
                f"{cid}:{c.subband_cqi}:{c.max_subband_cqi}:"
                f"{[int(v) for v in c.interference_detected]}:{fractions}"
            )
    return ";".join(parts).encode()


def wifi_result_bytes(result) -> bytes:
    """Canonical bytes of a Wi-Fi run: per-client throughput, attempts, failures."""
    parts = [f"d{_float(result.duration_s)}"]
    for cid in sorted(result.throughput_bps):
        parts.append(
            f"t{cid}={_float(result.throughput_bps[cid])}"
            f":{int(result.reachable.get(cid, False))}"
        )
    parts.append(f"a{result.data_attempts}f{result.data_failures}")
    return ";".join(parts).encode()


# -- Mobility / handover trace ------------------------------------------------

Trace = List[Tuple[List[Tuple[int, float, float]], List[Tuple[int, int]]]]


def mobility_trace(scenario, variant: int, n_steps: int, per_rb_tx_dbm: float) -> Trace:
    """Walk every client and decide A3 handovers, before any timing.

    Pedestrian random-waypoint walkers (``RandomWaypointModel`` defaults)
    and ``HandoverController`` defaults on RSRP = per-RB transmit power
    minus link loss, the quantity the simulator's handover runner reads.
    Returns, per step, the moves ``(client, x, y)`` and handovers
    ``(client, target AP)`` the program receives.
    """
    aps = list(scenario.topology.aps)
    ap_ids = [ap.ap_id for ap in aps]
    col_of = {ap_id: col for col, ap_id in enumerate(ap_ids)}
    sites = list(scenario.topology.clients)
    mobility = RandomWaypointModel(
        AREA_M, RngStreams(variant).stream("bench-mobility")
    )
    for site in sites:
        mobility.add_client(site.client_id, site.x, site.y)
    controller = HandoverController()
    serving = {site.client_id: site.ap_id for site in sites}
    row_of = {site.client_id: i for i, site in enumerate(sites)}
    trace: Trace = []
    for _ in range(n_steps):
        moves = []
        for cid, (x, y) in mobility.step(1.0).items():
            site = sites[row_of[cid]]
            if site.x != x or site.y != y:
                moves.append((cid, x, y))
                sites[row_of[cid]] = ClientSite(cid, x, y, site.ap_id)
        rsrp = per_rb_tx_dbm - scenario.channel.loss_db_rows(aps, sites)
        best = rsrp.argmax(axis=1)
        # The controller only compares the best AP against the serving one,
        # so each client's levels are reduced to those two entries.
        levels = {}
        for i, site in enumerate(sites):
            cid = site.client_id
            current = serving[cid]
            col_current = col_of[current]
            col_best = int(best[i])
            levels[cid] = {
                ap_ids[col]: float(rsrp[i, col])
                for col in sorted({col_current, col_best})
            }
        handovers = sorted(controller.decide(serving, levels).items())
        for cid, target in handovers:
            serving[cid] = target
        trace.append((moves, handovers))
    return trace


# -- Workloads ---------------------------------------------------------------


class Workload:
    """One benchmark workload.

    Attributes:
        name: workload name on the command line and in ``BENCHMARK.json``.
        ref_step_s: reference-host seconds per step, used only to size a
            run (timed steps = ``ceil(--seconds / ref_step_s)``).
        setup_repeats: set-ups per run; ``setup_s`` is their median.
    """

    name = ""
    ref_step_s = 1.0
    setup_repeats = 3
    warmup_steps = LTE_WARMUP_STEPS

    @property
    def warmup_sim_s(self) -> float:
        """Simulated seconds run before the first timed step."""
        return float(self.warmup_steps)

    def timed_steps(self, seconds: float) -> int:
        """Enough steps for ``seconds`` of timed work on the reference host."""
        return max(MIN_TIMED_STEPS, math.ceil(seconds / self.ref_step_s))

    def setup(self, variant: int, n_steps: int) -> Any:
        raise NotImplementedError

    def prepare(self, cell: Any, variant: int, n_steps: int) -> Any:
        """Untimed input generation; returns what :meth:`run` feeds in."""
        return None

    def run(
        self,
        cell: Any,
        inputs: Any,
        n_steps: int,
        lap: Callable[[float], None],
        on_step: Callable[[int, Any], None],
    ) -> bytes:
        """Run ``n_steps`` steps and return the bytes the run digest covers.

        A step is timed as one or more laps; ``lap(raw_s)`` is called when
        a lap ends and ``on_step(i, outcome)`` when step ``i`` ends.
        ``on_step(-1, None)`` comes right before the first step.  Both run
        outside the timed region.
        """
        raise NotImplementedError


class _LteWorkload(Workload):
    tech = TECH_LTE
    shards = 1
    mobile = False

    def setup(self, variant: int, n_steps: int) -> SaturatedLteRun:
        kwargs: Dict[str, Any] = {}
        if self.shards > 1:
            kwargs = {"shards": self.shards, "shard_mode": "inline"}
        return SaturatedLteRun(
            self.tech,
            seed=variant,
            n_aps=METRO_APS,
            clients_per_ap=CLIENTS_PER_AP,
            epochs=n_steps,
            **kwargs,
        )

    def prepare(self, cell: SaturatedLteRun, variant: int, n_steps: int):
        """The mobility/handover trace (mobile only)."""
        if not self.mobile:
            return None
        # LteNetworkSimulator's default 30 dBm spread over the carrier's RBs.
        per_rb_tx_dbm = 30.0 - 10.0 * math.log10(cell.net.grid.n_rbs)
        return mobility_trace(cell.scenario, variant, n_steps, per_rb_tx_dbm)

    def run(self, cell, trace, n_steps, lap, on_step):
        """One lap per epoch; mobile steps add laps for the event apply."""
        digest = hashlib.sha256()
        net = cell.net
        on_step(-1, None)
        for i in range(n_steps):
            if trace is not None:
                moves, handovers = trace[i]
                for first in range(0, len(moves), MOVES_PER_LAP):
                    start = time.perf_counter()
                    for cid, x, y in moves[first:first + MOVES_PER_LAP]:
                        net.move_client(cid, x, y)
                    lap(time.perf_counter() - start)
                start = time.perf_counter()
                for cid, target in handovers:
                    net.reattach_client(cid, target)
                lap(time.perf_counter() - start)
            start = time.perf_counter()
            result = cell.step_epoch()
            lap(time.perf_counter() - start)
            digest.update(lte_epoch_bytes(result))
            on_step(i, result)
        return digest.digest()


class MetroLteStatic(_LteWorkload):
    """Plain LTE, static clients, default backend.

    The epoch engine (link compute, PF scheduler, observe) does all the
    work and cached blocks are only read; event apply, policy and the
    shard barrier do nothing.
    """

    name = "metro-lte-static"
    ref_step_s = 0.75


class MetroCellFiMobile2Shard(_LteWorkload):
    """CellFi, every client walking with A3 handovers, 2 inline shards.

    The write-heavy side of the link cache: event apply dominates, plus
    CellFi's decision loop, dirty-row refills and the barrier/merge.
    Inline shards keep one process, so the OS scheduler is not timed.
    """

    name = "metro-cellfi-mobile-2shard"
    tech = TECH_CELLFI
    shards = 2
    mobile = True
    ref_step_s = 2.8


class Fig9WifiAf(Workload):
    """Fig. 9(b)'s densest Wi-Fi cell, saturated 802.11af.

    Dominates the host time of reproducing Fig. 9.  The event engine and
    the CSMA SINR checks do all the work; no LTE layer runs.
    """

    name = "fig9-wifi-af"
    ref_step_s = 7.0
    # Set-up takes ~20 ms, so more repeats buy a steady median cheaply.
    setup_repeats = 15
    warmup_steps = 0
    warmup_sim_s = WIFI_WARMUP_S

    def setup(self, variant: int, n_steps: int) -> WifiNetworkSimulator:
        scenario = build_scenario(WIFI_DEPLOYMENT_SEED, WIFI_APS, CLIENTS_PER_AP)
        return WifiNetworkSimulator(
            topology=scenario.topology,
            channel=scenario.channel,
            standard=STANDARD_80211AF,
            rngs=RngStreams(variant).fork(f"wifi-{STANDARD_80211AF.name}"),
        )

    def run(self, wifi: WifiNetworkSimulator, _inputs, n_steps, lap, on_step):
        """Laps are timed by a ``schedule_every`` probe, WIFI_LAPS per step.

        The probe only reads the clock and calls back; it changes no
        simulation state, so the result digest is the one an unprobed run
        produces (checked by the benchmark's tests).
        """
        state = {"probes": 0, "start": 0.0}

        def probe() -> None:
            now = time.perf_counter()
            probes = state["probes"]
            if probes == 0:
                on_step(-1, None)
            else:
                lap(now - state["start"])
                if probes % WIFI_LAPS == 0:
                    on_step(probes // WIFI_LAPS - 1, wifi)
            state["probes"] = probes + 1
            state["start"] = time.perf_counter()

        wifi.sim.schedule_every(1.0 / WIFI_LAPS, probe, start_delay=WIFI_WARMUP_S)
        result = wifi.run_saturated(WIFI_WARMUP_S + n_steps)
        expected = 1 + WIFI_LAPS * n_steps
        if state["probes"] != expected:
            raise RuntimeError(
                f"Wi-Fi probe fired {state['probes']} times, expected {expected}"
            )
        return wifi_result_bytes(result)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (Fig9WifiAf(), MetroLteStatic(), MetroCellFiMobile2Shard())
}

