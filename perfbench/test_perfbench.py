"""The benchmark's own checks (about a minute).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def _digest(workload, cell, inputs, n_steps: int) -> str:
    return hashlib.sha256(
        workload.run(cell, inputs, n_steps, lambda *_a: None, lambda *_a: None)
    ).hexdigest()


def test_two_shard_digest_equals_unsharded_run_of_same_trace():
    sharded = workloads.MetroCellFiMobile2Shard()
    unsharded = workloads.MetroCellFiMobile2Shard()
    unsharded.shards = 1
    variant, n_steps = 5, 3

    cell = sharded.setup(variant, n_steps)
    trace = sharded.prepare(cell, variant, n_steps)
    assert sum(len(handovers) for _, handovers in trace) > 0
    sharded_digest = _digest(sharded, cell, trace, n_steps)

    reference = unsharded.setup(variant, n_steps)
    assert not hasattr(reference.net, "workers")
    assert _digest(unsharded, reference, trace, n_steps) == sharded_digest


def test_mobility_trace_is_keyed_on_the_seed():
    scenario = workloads.build_scenario(
        0, workloads.METRO_APS, workloads.CLIENTS_PER_AP
    )
    traces = [
        workloads.mobility_trace(scenario, variant, 2, 0.0)
        for variant in (0, 0, 1)
    ]
    assert traces[0] == traces[1]
    assert traces[0] != traces[2]


def test_wifi_step_probe_leaves_digest_unchanged():
    workload = workloads.Fig9WifiAf()
    variant, n_steps = 2, 1
    probed = _digest(workload, workload.setup(variant, n_steps), None, n_steps)

    wifi = workload.setup(variant, n_steps)
    result = wifi.run_saturated(workloads.WIFI_WARMUP_S + n_steps)
    assert result.data_attempts > 0
    unprobed = hashlib.sha256(workloads.wifi_result_bytes(result)).hexdigest()
    assert probed == unprobed
