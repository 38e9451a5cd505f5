"""Figure 2: Wi-Fi MAC inefficiency on long links (802.11af vs 802.11ac).

Paper Section 3.2: "In both cases we use 20 MHz channels, and we use
RTS/CTS ...  In both cases we consider the same network of access points
and place the same number of clients within the corresponding range of
each access point.  The network range is smaller in case of 802.11ac (home
Wi-Fi) than 802.11af (outdoor cellular) because of lower power (20 dBm vs
36 dBm) and worse propagation, but the average SNR at the receiver is same
in both scenarios."

Construction here mirrors that exactly: the 802.11ac scenario keeps the AP
locations but pulls every client radially toward its AP by the ratio of
the two technologies' ranges, and uses an indoor log-distance channel at
5 GHz.  A calibration step verifies the mean client SNR matches within
1 dB.  The long-range network then collapses under hidden/exposed
terminals while the short-range one does not -- Figure 2's gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.phy.propagation import (
    CompositeChannel,
    LogDistancePathLoss,
    LogNormalShadowing,
    UrbanHataPathLoss,
)
from repro.sim.rng import RngStreams
from repro.sim.topology import ClientSite, Topology, random_topology, reassociate_strongest
from repro.utils.dbmath import thermal_noise_dbm
from repro.wifi.network import WifiNetworkSimulator, WifiStandard

#: Figure 2 uses 20 MHz channels for both technologies.
FIG2_BANDWIDTH_HZ = 20e6

#: Outdoor 802.11af at TVWS fixed-device power.
AF_OUTDOOR = WifiStandard(
    name="802.11af", bandwidth_hz=FIG2_BANDWIDTH_HZ,
    ap_tx_power_dbm=36.0, client_tx_power_dbm=20.0,
)

#: Indoor 802.11ac home configuration.
AC_INDOOR = WifiStandard(
    name="802.11ac", bandwidth_hz=FIG2_BANDWIDTH_HZ,
    ap_tx_power_dbm=20.0, client_tx_power_dbm=20.0,
)


@dataclass
class Fig2Result:
    """Per-client throughput samples for the two standards.

    Attributes:
        throughput_bps: samples per standard name.
        mean_snr_db: calibration check -- mean client SNR per standard.
    """

    throughput_bps: Dict[str, List[float]] = field(default_factory=dict)
    mean_snr_db: Dict[str, float] = field(default_factory=dict)

    def median_bps(self, standard: str) -> float:
        """Median client throughput of one standard."""
        return float(np.median(self.throughput_bps[standard]))


def _shrink_clients(topology: Topology, scale: float) -> Topology:
    """Pull every client toward its AP by ``scale`` (same bearings)."""
    if not 0.0 < scale <= 1.0:
        raise ValueError(f"scale must be in (0, 1], got {scale!r}")
    clients = []
    ap_by_id = {ap.ap_id: ap for ap in topology.aps}
    for client in topology.clients:
        ap = ap_by_id[client.ap_id]
        clients.append(
            ClientSite(
                client_id=client.client_id,
                x=ap.x + (client.x - ap.x) * scale,
                y=ap.y + (client.y - ap.y) * scale,
                ap_id=client.ap_id,
                height_m=client.height_m,
            )
        )
    return Topology(area_m=topology.area_m, aps=list(topology.aps), clients=clients)


def _mean_client_snr_db(
    topology: Topology, channel: CompositeChannel, ap_power_dbm: float,
    bandwidth_hz: float, noise_figure_db: float = 7.0,
) -> float:
    noise = thermal_noise_dbm(bandwidth_hz, noise_figure_db)
    snrs = []
    for client in topology.clients:
        ap = topology.ap(client.ap_id)
        snrs.append(ap_power_dbm - channel.loss_db(ap, client) - noise)
    return float(np.mean(snrs))


def calibrate_client_scale(
    topology: Topology,
    outdoor_channel: CompositeChannel,
    indoor_channel: CompositeChannel,
    tolerance_db: float = 1.0,
) -> float:
    """Find the client-distance scale equalising mean SNR across scenarios."""
    target = _mean_client_snr_db(
        topology, outdoor_channel, AF_OUTDOOR.ap_tx_power_dbm, FIG2_BANDWIDTH_HZ
    )
    lo, hi = 0.005, 1.0
    for _ in range(40):
        mid = (lo + hi) / 2.0
        shrunk = _shrink_clients(topology, mid)
        snr = _mean_client_snr_db(
            shrunk, indoor_channel, AC_INDOOR.ap_tx_power_dbm, FIG2_BANDWIDTH_HZ
        )
        if abs(snr - target) <= tolerance_db:
            return mid
        if snr > target:
            # Clients too close (too strong): push them further out.
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def run_fig2(
    seed: int = 1,
    n_aps: int = 8,
    clients_per_ap: int = 6,
    duration_s: float = 4.0,
    area_m: float = 2000.0,
    client_range_m: float = 800.0,
) -> Fig2Result:
    """Run the Figure 2 comparison on matched scenarios."""
    rngs = RngStreams(seed)
    outdoor_channel = CompositeChannel(
        UrbanHataPathLoss(), LogNormalShadowing(6.0, seed=seed)
    )
    # Indoor at 5 GHz: faster decay, more obstruction loss.
    indoor_channel = CompositeChannel(
        LogDistancePathLoss(frequency_hz=5.2e9, exponent=3.5, reference_m=5.0),
        LogNormalShadowing(4.0, seed=seed + 1),
    )
    af_topology = random_topology(
        rngs.stream("topology"),
        n_aps=n_aps,
        clients_per_ap=clients_per_ap,
        area_m=area_m,
        client_range_m=client_range_m,
    )
    af_topology, _ = reassociate_strongest(af_topology, outdoor_channel)
    scale = calibrate_client_scale(af_topology, outdoor_channel, indoor_channel)
    ac_topology = _shrink_clients(af_topology, scale)

    result = Fig2Result()
    result.mean_snr_db[AF_OUTDOOR.name] = _mean_client_snr_db(
        af_topology, outdoor_channel, AF_OUTDOOR.ap_tx_power_dbm, FIG2_BANDWIDTH_HZ
    )
    result.mean_snr_db[AC_INDOOR.name] = _mean_client_snr_db(
        ac_topology, indoor_channel, AC_INDOOR.ap_tx_power_dbm, FIG2_BANDWIDTH_HZ
    )

    af_net = WifiNetworkSimulator(
        af_topology, outdoor_channel, AF_OUTDOOR, rngs.fork("af")
    )
    af_run = af_net.run_saturated(duration_s)
    result.throughput_bps[AF_OUTDOOR.name] = list(af_run.throughput_bps.values())

    ac_net = WifiNetworkSimulator(
        ac_topology, indoor_channel, AC_INDOOR, rngs.fork("ac")
    )
    ac_run = ac_net.run_saturated(duration_s)
    result.throughput_bps[AC_INDOOR.name] = list(ac_run.throughput_bps.values())
    return result


# -- Sweep-spec plumbing ------------------------------------------------------

SCENARIO_FIG2 = "fig2_wifi_macs"


def fig2_cell(
    seed: int = 1,
    n_aps: int = 8,
    clients_per_ap: int = 6,
    duration_s: float = 4.0,
) -> Dict[str, object]:
    """One Figure 2 sweep cell: the af-vs-ac comparison at one seed."""
    result = run_fig2(
        seed=seed, n_aps=n_aps, clients_per_ap=clients_per_ap, duration_s=duration_s
    )
    metrics: Dict[str, object] = {}
    for standard, samples in result.throughput_bps.items():
        arr = np.array(samples)
        key = standard.replace(".", "_")
        metrics[f"median_bps[{key}]"] = float(np.median(arr))
        metrics[f"starved_fraction[{key}]"] = float((arr < 50e3).mean())
        metrics[f"mean_snr_db[{key}]"] = float(result.mean_snr_db[standard])
    return metrics


def fig2_sweep_spec(
    seeds=(1,),
    n_aps: int = 8,
    clients_per_ap: int = 6,
    duration_s: float = 4.0,
):
    """The Figure 2 grid: one matched af/ac comparison per seed."""
    from repro.experiments.sweep import SweepSpec

    return SweepSpec.from_grid(
        "fig2",
        SCENARIO_FIG2,
        grid={"seed": list(seeds)},
        base={
            "n_aps": n_aps,
            "clients_per_ap": clients_per_ap,
            "duration_s": duration_s,
        },
    )
