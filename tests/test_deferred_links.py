"""Deferred link-row refresh.

``move_client`` / ``reattach_client`` only record an owned client as
pending; the three link matrices are read-through properties, and the
first read after a batch of events refreshes every pending row in one
batched pass.  These tests interleave events and reads in the orders
that could expose a stale or misplaced row, and hold the result to a
simulator freshly built on the final topology and to the scalar
per-link oracle of ``tests/test_link_rows.py``.
"""

import numpy as np
import pytest

from repro.lte.network import LteNetworkSimulator
from repro.lte.scalar_oracle import ScalarOracleSimulator
from repro.phy.resource_grid import ResourceGrid
from repro.sim.rng import RngStreams
from repro.sim.topology import grid_partition
from tests.test_link_rows import (
    CULL_DB,
    SEED,
    assert_rows_match_oracle,
    make_channel,
    make_net,
    make_topology,
)

LINK_MATRICES = ("_rx_dbm_mat", "_rx_w_mat", "_prach_mat")


def fresh_net(source, cull_loss_db=None):
    """A simulator of ``source``'s class built from scratch on its current
    topology."""
    channel = make_channel()
    topology = make_topology(channel)
    for client in source.topology.clients:
        site = topology.client(client.client_id)
        if (site.x, site.y) != (client.x, client.y):
            topology.move_client(client.client_id, client.x, client.y)
        if site.ap_id != client.ap_id:
            topology.reattach_client(client.client_id, client.ap_id)
    return type(source)(
        topology=topology,
        grid=ResourceGrid(5e6),
        channel=channel,
        rngs=RngStreams(SEED),
        cull_loss_db=cull_loss_db,
        shard_ap_ids=source.shard_ap_ids,
    )


def assert_same_links(net, other):
    for name in LINK_MATRICES:
        got, want = getattr(net, name), getattr(other, name)
        assert got.tobytes() == want.tobytes(), name


def other_ap(net, client_id):
    serving = net.topology.client(client_id).ap_id
    return next(ap.ap_id for ap in net.topology.aps if ap.ap_id != serving)


class TestInterleavings:
    @pytest.mark.parametrize("cull_loss_db", [None, CULL_DB])
    def test_move_reattach_move_before_any_read(self, cull_loss_db):
        net = make_net(cull_loss_db)
        cid = net.topology.clients[4].client_id
        net.move_client(cid, 1500.0, 250.0)
        net.reattach_client(cid, other_ap(net, cid))
        net.move_client(cid, 1490.0, 260.0)
        assert net._pending_links == {cid}
        assert_same_links(net, fresh_net(net, cull_loss_db))
        assert not net._pending_links
        assert_rows_match_oracle(net)

    def test_many_clients_refresh_in_one_read(self):
        net = make_net()
        rng = np.random.default_rng(3)
        for client in net.topology.clients:
            x, y = rng.uniform(0.0, 2000.0, size=2).tolist()
            net.move_client(client.client_id, x, y)
        assert len(net._pending_links) == len(net.topology.clients)
        assert_same_links(net, fresh_net(net))

    def test_move_then_disown_by_a_shard_view(self):
        plan = grid_partition(make_topology(make_channel()), 2)
        views = [make_net(CULL_DB, shard_ap_ids=ids) for ids in plan]
        view0, view1 = views
        roamer = next(
            c.client_id for c in view0.topology.clients if c.ap_id in plan[0]
        )
        for view in views:
            view.move_client(roamer, 700.0, 900.0)
        assert roamer in view0._pending_links
        for view in views:
            view.reattach_client(roamer, plan[1][0])
        # The disowning view drops the pending row and keeps the dead-link
        # state; the adopting view refreshes it on its first read.
        assert roamer not in view0._pending_links
        assert roamer in view1._pending_links
        for view in views:
            assert_rows_match_oracle(view)
            assert_same_links(view, fresh_net(view, CULL_DB))
        with pytest.raises(KeyError):
            view0.rx_rb_power_dbm(roamer, plan[0][0])

    def test_move_then_state_dict_and_load_state(self):
        net = make_net()
        checkpoint = net.state_dict()
        cid = net.topology.clients[2].client_id
        net.move_client(cid, 321.0, 654.0)
        net.reattach_client(cid, other_ap(net, cid))
        state = net.state_dict()
        restored = make_net()
        restored.load_state(state)
        assert_same_links(restored, net)
        # Rolling back to a checkpoint taken before the events, with the
        # rows still pending, restores the build-time rows exactly.
        net.load_state(checkpoint)
        assert_same_links(net, make_net())

    # The per-link SINR queries belong to the scalar oracle.
    @pytest.mark.parametrize(
        "simulator,read",
        [
            (LteNetworkSimulator, lambda net, cid, ap: net.rx_rb_power_dbm(cid, ap)),
            (LteNetworkSimulator, lambda net, cid, ap: net.rx_rb_levels_dbm(cid)),
            (LteNetworkSimulator, lambda net, cid, ap: net.prach_audible(cid, ap)),
            (ScalarOracleSimulator, lambda net, cid, ap: net.sinr_db(
                cid, ap, [a.ap_id for a in net.topology.aps[:3]]
            )),
            (ScalarOracleSimulator, lambda net, cid, ap: net.clean_sinr_db(cid, ap)),
            (ScalarOracleSimulator, lambda net, cid, ap: net.control_interference_scale(
                cid, ap, [a.ap_id for a in net.topology.aps[:3]]
            )),
            (LteNetworkSimulator, lambda net, cid, ap: net.prach_partial_counts(
                {c.client_id: 1.0 for c in net.topology.clients}
            ).tolist()),
        ],
        ids=[
            "rx_rb_power_dbm",
            "rx_rb_levels_dbm",
            "prach_audible",
            "sinr_db",
            "clean_sinr_db",
            "control_interference_scale",
            "prach_partial_counts",
        ],
    )
    def test_first_read_after_a_move_through_each_accessor(self, simulator, read):
        net = make_net(simulator=simulator)
        cid = net.topology.clients[0].client_id
        net.move_client(cid, 1777.0, 60.0)
        ap = net.topology.client(cid).ap_id
        got = read(net, cid, ap)
        assert not net._pending_links
        want = read(fresh_net(net), cid, ap)
        assert repr(got) == repr(want)
