"""The oracle's column rates: one vector pass, bit-identical to the
per-client scalar chain (``math.log10``, ``cqi_from_sinr``, the grid's
rate and ``harq_goodput_scale``) that it replaced."""

import math

import numpy as np
import pytest

from repro.baselines.oracle import OracleAllocator
from repro.lte.network import LteNetworkSimulator
from repro.phy.harq import harq_goodput_scale
from repro.phy.mcs import CQI_OUT_OF_RANGE, cqi_from_sinr, efficiency_from_cqi
from repro.phy.propagation import CompositeChannel, UrbanHataPathLoss
from repro.phy.resource_grid import ResourceGrid
from repro.sim.rng import RngStreams
from repro.sim.topology import random_topology, reassociate_strongest


def _oracle(seed, n_aps=6, clients_per_ap=3):
    rngs = RngStreams(seed)
    channel = CompositeChannel(UrbanHataPathLoss())
    topo = random_topology(rngs.stream("t"), n_aps=n_aps, clients_per_ap=clients_per_ap)
    topo, _ = reassociate_strongest(topo, channel)
    net = LteNetworkSimulator(topo, ResourceGrid(5e6), channel, RngStreams(seed))
    return OracleAllocator(net, 13, max_passes=1)


def _scalar_column_rates(oracle, sub):
    """The per-client loop the vector pass replaced."""
    net = oracle.net
    power_w = net._rx_w_mat
    holders = [ap for ap, subs in oracle.allocation.items() if sub in subs]
    rates = {}
    for ap in holders:
        clients = oracle._ap_clients[ap]
        for row, cid in zip(net._rows_of_ap[ap].tolist(), clients):
            interference_w = 0.0
            for other in holders:
                if other != ap:
                    interference_w += power_w[row, net._ap_col[other]]
            ratio = power_w[row, net._ap_col[ap]] / (net._rb_noise_w + interference_w)
            sinr = 10.0 * math.log10(ratio)
            cqi = cqi_from_sinr(sinr)
            if cqi == CQI_OUT_OF_RANGE:
                rates[cid] = 0.0
                continue
            rate = net.grid.subchannel_downlink_rate_bps(efficiency_from_cqi(cqi), sub)
            rates[cid] = rate * harq_goodput_scale(sinr, cqi) / len(clients)
    return rates


@pytest.mark.parametrize("seed", [3, 11])
def test_vector_pass_matches_scalar_chain(seed):
    oracle = _oracle(seed)
    rng = np.random.default_rng(seed)
    aps = list(oracle.allocation)
    for _ in range(20):
        # Random holder sets, dense and sparse, in a shuffled holder order.
        order = rng.permutation(aps).tolist()
        oracle.allocation = {
            ap: {k for k in range(13) if rng.random() < 0.6} for ap in order
        }
        for sub in range(13):
            vector = oracle._column_rates(sub)
            assert list(vector.items()) == list(
                _scalar_column_rates(oracle, sub).items()
            )


def test_zero_ratio_raises_like_log10():
    oracle = _oracle(5)
    net = oracle.net
    ap = next(ap for ap, clients in oracle._ap_clients.items() if clients)
    oracle.allocation = {ap: {0}}
    net._rx_w_mat[net._rows_of_ap[ap][0], net._ap_col[ap]] = 0.0
    with pytest.raises(ValueError):
        oracle._column_rates(0)
