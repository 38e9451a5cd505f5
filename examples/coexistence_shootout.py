#!/usr/bin/env python3
"""Technology shoot-out: CellFi vs plain LTE vs 802.11af vs the oracle.

Deploys all four technologies on the *same* random topology (the paper's
methodology) under saturated downlink traffic and prints the Figure 9(b)
style comparison: median throughput, starvation and fairness.

Run:  python examples/coexistence_shootout.py [n_aps]
"""

import sys

import numpy as np

from repro.baselines.oracle import OracleAllocator
from repro.baselines.plain_lte import PlainLtePolicy
from repro.core.interference.manager import CellFiInterferenceManager
from repro.experiments.common import build_scenario
from repro.lte.network import STARVATION_THRESHOLD_BPS
from repro.traffic.backlogged import saturated_demand_fn
from repro.utils.render import format_table
from repro.utils.stats import jain_fairness
from repro.wifi.network import STANDARD_80211AF, WifiNetworkSimulator


def run_lte_family(scenario, policy_name, epochs=12):
    net = scenario.lte_net(f"net-{policy_name}")
    if policy_name == "CellFi":
        policy = CellFiInterferenceManager(
            scenario.ap_ids, net.grid.n_subchannels, scenario.rngs.fork("mgr")
        )
    elif policy_name == "LTE":
        policy = PlainLtePolicy(scenario.ap_ids, net.grid.n_subchannels)
    else:
        policy = OracleAllocator(net, net.grid.n_subchannels)
    results = net.run(epochs, policy, saturated_demand_fn(net.topology))
    tail = results[epochs // 2:]
    return [
        float(np.mean([r.throughput_bps[c.client_id] for r in tail]))
        for c in net.topology.clients
    ]


def run_wifi(scenario, duration_s=4.0):
    net = WifiNetworkSimulator(
        scenario.topology, scenario.channel, STANDARD_80211AF,
        scenario.rngs.fork("wifi"),
    )
    result = net.run_saturated(duration_s)
    return [result.throughput_bps[c.client_id] for c in net.topology.clients]


def main() -> None:
    n_aps = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    scenario = build_scenario(seed=1, n_aps=n_aps, clients_per_ap=6)
    print(f"Topology: {n_aps} APs x 6 clients in 2 km x 2 km, 5 MHz carrier\n")

    samples = {
        "802.11af": run_wifi(scenario),
        "LTE": run_lte_family(scenario, "LTE"),
        "CellFi": run_lte_family(scenario, "CellFi"),
        "Oracle": run_lte_family(scenario, "Oracle"),
    }

    rows = []
    for tech, throughput in samples.items():
        arr = np.array(throughput)
        rows.append(
            [
                tech,
                f"{np.median(arr) / 1e3:.0f} kb/s",
                f"{arr.sum() / 1e6:.1f} Mb/s",
                f"{100 * (arr < STARVATION_THRESHOLD_BPS).mean():.0f}%",
                f"{jain_fairness(list(arr)):.2f}",
            ]
        )
    print(format_table(
        ["tech", "median", "network total", "starved", "Jain fairness"],
        rows,
        title="Saturated-downlink comparison (same topology)",
    ))


if __name__ == "__main__":
    main()
