"""Link-matrix rows and topology slots under mobility and handover events.

The simulator's per-link state lives only in three dense matrices
(``_rx_dbm_mat``, ``_rx_w_mat``, ``_prach_mat``), and a client event
refreshes its row in one vector pass.  These tests hold every row, after
every event, to a scalar per-link oracle built from ``gain_cache.loss_db``
and :func:`dbm_to_watt` -- exact equality, ``-inf`` included -- with and
without a culling horizon, in unsharded and shard views.  They also pin
the topology's id -> slot index against a linear scan and the per-AP
client lists against canonical ``clients`` order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lte.network import (
    PRACH_DETECTION_SNR_DB,
    PRACH_TARGET_RX_DBM,
    LteNetworkSimulator,
)
from repro.phy.propagation import (
    CompositeChannel,
    LogNormalShadowing,
    UrbanHataPathLoss,
)
from repro.phy.resource_grid import ResourceGrid
from repro.sim.rng import RngStreams
from repro.sim.topology import (
    AccessPointSite,
    ClientSite,
    Topology,
    grid_partition,
    random_topology,
    reassociate_strongest,
)
from repro.utils.dbmath import dbm_to_watt

SEED = 11
N_APS = 9
CLIENTS_PER_AP = 3
AREA_M = 2000.0
CULL_DB = 130.0


def make_channel():
    return CompositeChannel(
        UrbanHataPathLoss(), LogNormalShadowing(sigma_db=7.0, seed=SEED)
    )


def make_topology(channel):
    topology = random_topology(
        np.random.default_rng(SEED),
        n_aps=N_APS,
        clients_per_ap=CLIENTS_PER_AP,
        area_m=AREA_M,
        client_range_m=600.0,
    )
    topology, _ = reassociate_strongest(topology, channel)
    return topology


def make_net(cull_loss_db=None, shard_ap_ids=None, simulator=LteNetworkSimulator):
    channel = make_channel()
    return simulator(
        topology=make_topology(channel),
        grid=ResourceGrid(5e6),
        channel=channel,
        rngs=RngStreams(SEED),
        cull_loss_db=cull_loss_db,
        shard_ap_ids=shard_ap_ids,
    )


def oracle_rows(net, client):
    """One client's link rows, computed one link at a time."""
    cid = client.client_id
    cache = net.gain_cache
    horizon = cache.cull_loss_db
    n_aps = len(net.topology.aps)
    rx_dbm = np.zeros(n_aps)
    rx_w = np.zeros(n_aps)
    audible = np.zeros(n_aps, dtype=bool)
    serving_loss = cache.loss_db(cid, client.ap_id)
    prach_tx_dbm = min(net.ue_tx_power_dbm, PRACH_TARGET_RX_DBM + serving_loss)
    for ap in net.topology.aps:
        col = net._ap_col[ap.ap_id]
        loss = cache.loss_db(cid, ap.ap_id)
        if horizon is not None and loss > horizon:
            rx_dbm[col] = float("-inf")
            rx_w[col] = 0.0
            audible[col] = False
        else:
            rx_dbm[col] = net._per_rb_tx_dbm - loss
            rx_w[col] = dbm_to_watt(net._per_rb_tx_dbm - loss)
            snr = prach_tx_dbm - loss - net._prach_noise_dbm
            audible[col] = snr >= PRACH_DETECTION_SNR_DB
    return rx_dbm, rx_w, audible


def assert_rows_match_oracle(net):
    """Owned rows equal the oracle bit for bit; foreign rows stay zeroed."""
    for client in net.topology.clients:
        cid = client.client_id
        row = net._client_row[cid]
        got = (net._rx_dbm_mat[row], net._rx_w_mat[row], net._prach_mat[row])
        if net._owns_client(cid):
            want = oracle_rows(net, client)
        else:
            n_aps = len(net.topology.aps)
            want = (np.zeros(n_aps), np.zeros(n_aps), np.zeros(n_aps, dtype=bool))
        for name, g, w in zip(("rx_dbm", "rx_w", "prach"), got, want):
            assert np.array_equal(g, w), f"client {cid}: {name} row differs"
            assert g.tobytes() == w.tobytes(), f"client {cid}: {name} bits differ"


def apply(net, event):
    kind, client_idx, a, b = event
    cid = net.topology.clients[client_idx % len(net.topology.clients)].client_id
    if kind == "move":
        net.move_client(cid, a, b)
    else:
        net.reattach_client(cid, net.topology.aps[a % len(net.topology.aps)].ap_id)


coords = st.floats(0.0, AREA_M, allow_nan=False, allow_infinity=False)
moves = st.tuples(st.just("move"), st.integers(0, 10**6), coords, coords)
reattaches = st.tuples(
    st.just("reattach"), st.integers(0, 10**6), st.integers(0, 10**6), st.none()
)
event_lists = st.lists(st.one_of(moves, reattaches), min_size=1, max_size=12)


class TestLinkRowsMatchScalarOracle:
    @pytest.mark.parametrize("cull_loss_db", [None, CULL_DB])
    def test_initial_fill(self, cull_loss_db):
        assert_rows_match_oracle(make_net(cull_loss_db))

    def test_horizon_culls_some_links(self):
        net = make_net(CULL_DB)
        assert (net._rx_dbm_mat == float("-inf")).any()
        assert (net._rx_w_mat == 0.0).any()

    @given(events=event_lists, cull_loss_db=st.sampled_from([None, CULL_DB]))
    @settings(max_examples=100, deadline=None)
    def test_rows_after_every_event(self, events, cull_loss_db):
        net = make_net(cull_loss_db)
        for event in events:
            apply(net, event)
            assert_rows_match_oracle(net)

    @given(events=event_lists, cull_loss_db=st.sampled_from([None, CULL_DB]))
    @settings(max_examples=60, deadline=None)
    def test_shard_view_rows_after_every_event(self, events, cull_loss_db):
        plan = grid_partition(make_topology(make_channel()), 2)
        views = [make_net(cull_loss_db, shard_ap_ids=ids) for ids in plan]
        for event in events:
            for view in views:
                apply(view, event)
                assert_rows_match_oracle(view)


class TestForeignClientAccessors:
    """A shard view raises ``KeyError`` for links of clients it does not own."""

    def _views(self):
        plan = grid_partition(make_topology(make_channel()), 2)
        return plan, [make_net(CULL_DB, shard_ap_ids=ids) for ids in plan]

    def _assert_foreign(self, view, cid):
        ap_id = view.topology.aps[0].ap_id
        with pytest.raises(KeyError):
            view.rx_rb_power_dbm(cid, ap_id)
        with pytest.raises(KeyError):
            view.prach_audible(cid, ap_id)
        with pytest.raises(KeyError):
            view.rx_rb_levels_dbm(cid)

    def test_never_owned_client(self):
        plan, (view0, view1) = self._views()
        foreign = next(
            c.client_id for c in view0.topology.clients if c.ap_id in plan[1]
        )
        self._assert_foreign(view0, foreign)
        ap_id = view1.topology.aps[0].ap_id
        assert type(view1.rx_rb_power_dbm(foreign, ap_id)) is float
        assert type(view1.prach_audible(foreign, ap_id)) is bool

    def test_client_disowned_by_cross_shard_reattach(self):
        plan, (view0, view1) = self._views()
        roamer = next(
            c.client_id for c in view0.topology.clients if c.ap_id in plan[0]
        )
        ap_id = view0.topology.aps[0].ap_id
        before = view0.rx_rb_power_dbm(roamer, ap_id)
        for view in (view0, view1):
            view.reattach_client(roamer, plan[1][0])
        self._assert_foreign(view0, roamer)
        assert view1.rx_rb_power_dbm(roamer, ap_id) == before
        assert type(view1.prach_audible(roamer, ap_id)) is bool


def linear_client(topology, client_id):
    for candidate in topology.clients:
        if candidate.client_id == client_id:
            return candidate
    raise KeyError(client_id)


def sparse_topology(order):
    """Four APs, non-dense client ids in a caller-chosen list order."""
    aps = [AccessPointSite(a, 100.0 + 400.0 * a, 300.0) for a in range(4)]
    clients = [
        ClientSite(7 * k + 3, 50.0 * k, 20.0 * k, ap_id=k % 4) for k in order
    ]
    return Topology(area_m=2000.0, aps=aps, clients=clients)


class TestTopologySlots:
    @given(
        order=st.permutations(list(range(10))),
        events=st.lists(st.one_of(moves, reattaches), max_size=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_lookup_and_per_ap_order_after_events(self, order, events):
        topology = sparse_topology(order)
        ids = [c.client_id for c in topology.clients]
        for kind, client_idx, a, b in events:
            cid = ids[client_idx % len(ids)]
            if kind == "move":
                topology.move_client(cid, a, b)
            else:
                topology.reattach_client(cid, a % 4)
            assert [c.client_id for c in topology.clients] == ids
            for client_id in ids:
                assert topology.client(client_id) is linear_client(
                    topology, client_id
                )
            for ap in topology.aps:
                assert topology.clients_of(ap.ap_id) == [
                    c for c in topology.clients if c.ap_id == ap.ap_id
                ]

    def test_unknown_client_still_raises_key_error(self):
        topology = sparse_topology(range(5))
        with pytest.raises(KeyError):
            topology.client(0)
        with pytest.raises(KeyError):
            topology.move_client(0, 1.0, 1.0)
        with pytest.raises(KeyError):
            topology.reattach_client(0, 1)
