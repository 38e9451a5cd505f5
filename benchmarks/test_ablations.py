"""Ablations of CellFi's design choices (DESIGN.md extension experiments).

* **Bucket mean (lambda)** -- the paper "found lambda = 10 to be a good
  choice experimentally": too small hops constantly, too large reacts
  slowly to interference.
* **Sensing quality** -- re-run CellFi with perfect (100%/0%) and degraded
  (50%/10%) CQI detection to quantify how much the measured 80%/2%
  operating point costs.
* **Hybrid control plane** -- the Section 7 extension: centralizing
  coordination *within* a provider must not hurt, and removes
  intra-provider conflicts by construction.
"""

import numpy as np
from conftest import full_scale, once

from repro.core.interference.hybrid import HybridInterferenceManager
from repro.core.interference.manager import CellFiInterferenceManager
from repro.experiments.common import build_scenario
from repro.traffic.backlogged import saturated_demand_fn
from repro.utils.render import format_table


def _run_cellfi(scenario, epochs, bucket_mean=10.0, detector=(0.80, 0.02),
                manager_cls=None, providers=None):
    net = scenario.lte_net(
        f"net-{bucket_mean}-{detector}",
        detector_true_positive=detector[0],
        detector_false_positive=detector[1],
    )
    if providers is not None:
        manager = HybridInterferenceManager(
            providers, net.grid.n_subchannels, scenario.rngs.fork("hybrid")
        )
        hops = lambda: 0  # noqa: E731 - hybrid tracks per-provider hoppers.
    else:
        manager = CellFiInterferenceManager(
            scenario.ap_ids,
            net.grid.n_subchannels,
            scenario.rngs.fork("mgr"),
            bucket_mean=bucket_mean,
        )
        hops = lambda: manager.stats.total_hops  # noqa: E731
    results = net.run(epochs, manager, saturated_demand_fn(net.topology))
    tail = results[epochs // 2:]
    throughput = [
        float(np.mean([r.throughput_bps[c.client_id] for r in tail]))
        for c in net.topology.clients
    ]
    connected = float(
        np.mean([np.mean(list(r.connected.values())) for r in tail])
    )
    return {
        "median_bps": float(np.median(throughput)),
        "connected": connected,
        "hops": hops(),
    }


def _sweep():
    epochs = 15 if full_scale() else 10
    n_aps = 10 if full_scale() else 8
    scenario = build_scenario(seed=3, n_aps=n_aps, clients_per_ap=6)

    lambdas = {}
    for bucket_mean in (1.0, 10.0, 100.0):
        lambdas[bucket_mean] = _run_cellfi(scenario, epochs, bucket_mean=bucket_mean)

    detectors = {}
    for label, rates in (
        ("paper 80%/2%", (0.80, 0.02)),
        ("perfect", (1.0, 0.0)),
        ("degraded 50%/10%", (0.50, 0.10)),
    ):
        detectors[label] = _run_cellfi(scenario, epochs, detector=rates)

    half = len(scenario.ap_ids) // 2
    providers = {
        "alpha": scenario.ap_ids[:half],
        "beta": scenario.ap_ids[half:],
    }
    hybrid = _run_cellfi(scenario, epochs, providers=providers)
    distributed = detectors["paper 80%/2%"]
    return lambdas, detectors, hybrid, distributed


def test_ablations(benchmark, report):
    lambdas, detectors, hybrid, distributed = once(benchmark, _sweep)

    # Lambda: the paper's 10 must not hop wildly more than larger means,
    # and must stay competitive in coverage with both extremes.
    best_connected = max(r["connected"] for r in lambdas.values())
    assert lambdas[10.0]["connected"] >= best_connected - 0.05
    assert lambdas[1.0]["hops"] >= lambdas[100.0]["hops"]

    # Sensing: perfect sensing is an upper bound; the measured operating
    # point must sit close to it, degraded sensing may fall below.
    assert detectors["perfect"]["connected"] >= detectors["paper 80%/2%"]["connected"] - 0.03
    assert detectors["paper 80%/2%"]["connected"] >= detectors["degraded 50%/10%"]["connected"] - 0.05

    # Hybrid: centralizing within providers must not hurt coverage.
    assert hybrid["connected"] >= distributed["connected"] - 0.08

    rows = []
    for mean, r in sorted(lambdas.items()):
        rows.append([f"lambda={mean:g}", f"{r['connected'] * 100:.0f}%",
                     f"{r['median_bps'] / 1e3:.0f} kb/s", str(r["hops"])])
    for label, r in detectors.items():
        rows.append([f"detector {label}", f"{r['connected'] * 100:.0f}%",
                     f"{r['median_bps'] / 1e3:.0f} kb/s", str(r["hops"])])
    rows.append(["hybrid (2 providers)", f"{hybrid['connected'] * 100:.0f}%",
                 f"{hybrid['median_bps'] / 1e3:.0f} kb/s", "-"])
    report(
        "ablations",
        format_table(
            ["variant", "connected", "median", "hops"],
            rows,
            title="CellFi design ablations",
        ),
    )
