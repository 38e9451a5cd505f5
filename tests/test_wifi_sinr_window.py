"""The windowed interference scan of ``WifiMedium.sinr_db`` is exact.

``sinr_db`` scans only the tail of the transmission history that can
overlap the evaluated frame.  These tests hold it to a brute-force oracle
that walks the whole history: the results must be equal with ``==``, not
approximately, on random schedules and on a full Fig. 9(b) Wi-Fi cell.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import build_scenario
from repro.sim.engine import Simulator
from repro.utils.dbmath import dbm_to_watt, linear_to_db
from repro.wifi.csma import CsmaNode, DcfParams, Station, WifiMedium
from repro.wifi.frames import FrameTimings
from repro.wifi.network import STANDARD_80211AF, WifiNetworkSimulator


def full_scan_sinr_db(medium, tx):
    """Reference SINR: every frame of ``medium._history``, in order."""
    if tx.dst is None:
        raise ValueError("transmission has no destination to evaluate")
    signal_w = dbm_to_watt(medium.rx_dbm(tx.src, tx.dst))
    noise_w = dbm_to_watt(medium.noise_dbm)
    interference_w = 0.0
    for other in medium._history:
        if other is tx or other.src == tx.src:
            continue
        if other.src == tx.dst:
            continue
        fraction = tx.overlap_fraction(other)
        if fraction <= 0.0:
            continue
        interference_w += fraction * dbm_to_watt(medium.rx_dbm(other.src, tx.dst))
    return linear_to_db(signal_w / (noise_w + interference_w))


N_STATIONS = 5

durations = st.one_of(
    st.just(0.0),
    st.sampled_from([44e-6, 100e-6, 4e-3]),
    st.floats(min_value=0.0, max_value=3e-3, allow_nan=False),
)
# "touch" starts the next frame exactly at this frame's end.
gaps = st.one_of(
    st.just(0.0),
    st.just("touch"),
    st.floats(min_value=0.0, max_value=3e-3, allow_nan=False),
)
frames = st.tuples(
    st.integers(0, N_STATIONS - 1),
    st.one_of(st.none(), st.integers(0, N_STATIONS - 1)),
    durations,
    gaps,
).filter(lambda f: f[0] != f[1])
schedules = st.lists(frames, min_size=1, max_size=40)


def _run_schedule(schedule, losses, start_s, long_index, long_s):
    """Play ``schedule`` on a bare medium; check each frame at its end."""
    sim = Simulator()
    params = DcfParams(timings=FrameTimings(bandwidth_hz=6e6))

    def loss(a, b):
        return losses[min(a.station_id, b.station_id)][max(a.station_id, b.station_id)]

    medium = WifiMedium(sim, loss, 6e6, params)
    for sid in range(N_STATIONS):
        medium.add_station(Station(sid, float(sid), 0.0, 20.0))
    sent = []
    at_end = []

    def check_at_end(tx):
        at_end.append((medium.sinr_db(tx), full_scan_sinr_db(medium, tx)))

    def send(index):
        src, dst, duration, gap = schedule[index]
        if index == long_index:
            duration = long_s
        tx = medium.transmit(src, duration, "data", dst_id=dst)
        sent.append(tx)
        if dst is not None:
            sim.schedule(duration, lambda: check_at_end(tx))
        if index + 1 < len(schedule):
            delay = duration if gap == "touch" else gap
            sim.schedule(delay, lambda: send(index + 1))

    sim.run(until=start_s)
    sim.schedule(0.0, lambda: send(0))
    sim.run(until=start_s + 1.0)
    return medium, sent, at_end


class TestWindowedScanMatchesOracle:
    @given(
        schedule=schedules,
        losses=st.lists(
            st.lists(st.floats(60.0, 120.0), min_size=N_STATIONS, max_size=N_STATIONS),
            min_size=N_STATIONS,
            max_size=N_STATIONS,
        ),
        start_s=st.sampled_from([0.0, 0.7, 3600.0, 1e5]),
        long_index=st.integers(0, 39),
        long_s=st.floats(min_value=5e-3, max_value=0.2),
    )
    @settings(max_examples=150, deadline=None)
    def test_equal_to_full_history_scan(
        self, schedule, losses, start_s, long_index, long_s
    ):
        medium, sent, at_end = _run_schedule(
            schedule, losses, start_s, long_index, long_s
        )
        for windowed, oracle in at_end:
            assert windowed == oracle
        # After the run, every frame has its whole neighbourhood on record,
        # including frames that started after it ended.
        for tx in sent:
            if tx.dst is not None:
                assert medium.sinr_db(tx) == full_scan_sinr_db(medium, tx)

    def test_touching_frames_do_not_interfere(self):
        # Frame B starts exactly where frame A ends: no overlap either way.
        medium, sent, at_end = _run_schedule(
            [(0, 1, 1e-3, "touch"), (2, 3, 1e-3, 0.0)],
            [[80.0] * N_STATIONS for _ in range(N_STATIONS)],
            start_s=0.7,
            long_index=-1,
            long_s=0.0,
        )
        assert sent[1].start == sent[0].end
        clean = linear_to_db(
            dbm_to_watt(medium.rx_dbm(0, 1)) / dbm_to_watt(medium.noise_dbm)
        )
        assert medium.sinr_db(sent[0]) == clean
        assert [w for w, _ in at_end] == [o for _, o in at_end]


class TestListenerTable:
    def test_node_attached_after_a_transmission_is_notified(self):
        sim = Simulator()
        params = DcfParams(timings=FrameTimings(bandwidth_hz=20e6))
        medium = WifiMedium(sim, lambda a, b: 60.0, 20e6, params)
        for sid in (0, 1, 2):
            medium.add_station(Station(sid, float(sid), 0.0, 20.0))
        first = CsmaNode(sim, medium, medium.station(1), params,
                         np.random.default_rng(0))
        medium.transmit(0, 1e-3, "data", dst_id=1)
        sim.run(until=2e-3)
        second = CsmaNode(sim, medium, medium.station(2), params,
                          np.random.default_rng(1))
        busy = []
        for node in (first, second):
            node.on_medium_busy = lambda node=node: busy.append(node)
        medium.transmit(0, 1e-3, "data", dst_id=1)
        sim.run(until=4e-3)
        assert busy == [first, second]


def _fig9_cell():
    scenario = build_scenario(1, 14, 6)
    return WifiNetworkSimulator(
        topology=scenario.topology,
        channel=scenario.channel,
        standard=STANDARD_80211AF,
        rngs=scenario.rngs.fork(f"wifi-{STANDARD_80211AF.name}"),
    )


def test_fig9_cell_matches_full_scan_run(monkeypatch):
    windowed = _fig9_cell().run_saturated(1.0)
    monkeypatch.setattr(WifiMedium, "sinr_db", full_scan_sinr_db)
    oracle = _fig9_cell().run_saturated(1.0)
    assert windowed.data_attempts > 0
    assert windowed == oracle
