"""Unit tests for the live load daemon: heartbeats, staleness, suspicion."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.live.kernel import BusyMeter, LiveClock
from repro.live.loadd import (
    LiveLoadView,
    LoadReporter,
    LoadTable,
    decode_heartbeat,
    encode_heartbeat,
)
from repro.sim.config import MonitorConfig


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now


def cfg() -> MonitorConfig:
    return MonitorConfig(period=0.2, smoothing=0.7, suspect_after=1.0,
                         probation_samples=2)


def test_heartbeat_codec_and_garbage():
    payload = encode_heartbeat(3, 17, 0.93, 0.71, 2)
    msg = decode_heartbeat(payload)
    assert msg == {"node": 3, "seq": 17, "cpu_idle": 0.93,
                   "disk_avail": 0.71, "active": 2}
    assert decode_heartbeat(b"\xff\x00 not json") is None
    assert decode_heartbeat(b'{"seq": 1}') is None   # no node field


def test_table_rejects_replayed_and_out_of_range():
    table = LoadTable(2, cfg())
    assert table.observe(0, 1, 0.5, 0.5, 1, now=0.0)
    assert not table.observe(0, 1, 0.5, 0.5, 1, now=0.1)   # duplicate seq
    assert not table.observe(0, 0, 0.5, 0.5, 1, now=0.1)   # reordered
    assert not table.observe(5, 2, 0.5, 0.5, 1, now=0.1)   # unknown node
    assert table.rejected == 3
    assert table.heartbeats == 1


def test_smoothing_is_ewma():
    table = LoadTable(1, cfg())
    table.observe(0, 1, 0.0, 0.0, 0, now=0.0)
    # smoothing 0.7 over the optimistic 1.0 prior.
    assert np.isclose(table.cpu_idle[0], 0.3)
    table.observe(0, 2, 0.0, 0.0, 0, now=0.2)
    assert np.isclose(table.cpu_idle[0], 0.09)


def test_never_heard_is_suspect_until_probation_clears():
    table = LoadTable(2, cfg())
    view = LiveLoadView(table, FakeClock(0.0))
    assert view.is_suspect(0) and view.is_suspect(1)
    assert not view.all_healthy()
    # One heartbeat is not enough (probation_samples=2)...
    table.observe(0, 1, 1.0, 1.0, 0, now=0.0)
    assert view.is_suspect(0)
    # ...a second consecutive one clears it.
    table.observe(0, 2, 1.0, 1.0, 0, now=0.2)
    assert not view.is_suspect(0)
    assert view.is_suspect(1)
    assert list(view.healthy_array()) == [True, False]


def test_staleness_restarts_probation():
    table = LoadTable(1, cfg())
    clock = FakeClock(0.0)
    view = LiveLoadView(table, clock)
    table.observe(0, 1, 1.0, 1.0, 0, now=0.0)
    table.observe(0, 2, 1.0, 1.0, 0, now=0.2)
    assert not view.is_suspect(0)
    # Silence for longer than suspect_after -> suspect again.
    clock.now = 2.0
    assert view.is_suspect(0)
    # A single heartbeat after the gap is on probation...
    table.observe(0, 3, 1.0, 1.0, 0, now=2.0)
    clock.now = 2.1
    assert view.is_suspect(0)
    # ...and an unbroken stream works it off.
    table.observe(0, 4, 1.0, 1.0, 0, now=2.2)
    clock.now = 2.3
    assert not view.is_suspect(0)


def test_dead_flag_and_reconnect_probation():
    table = LoadTable(1, cfg())
    view = LiveLoadView(table, FakeClock(0.5))
    table.observe(0, 1, 1.0, 1.0, 0, now=0.0)
    table.observe(0, 2, 1.0, 1.0, 0, now=0.2)
    assert view.all_healthy() and view.is_alive(0)
    table.mark_dead(0)
    assert not view.is_alive(0)
    assert not view.all_healthy()
    table.mark_alive(0)
    # Reconnection puts the node back on probation despite fresh samples.
    assert view.is_alive(0)
    assert view.is_suspect(0)


def test_busy_meter_windows():
    meter = BusyMeter(capacity=2, now=0.0)
    meter.add(0.5, 1.0)
    cpu_idle, disk_avail = meter.sample(now=1.0)
    # 0.5 busy-seconds over a 1 s window with capacity 2 -> 25% busy.
    assert np.isclose(cpu_idle, 0.75)
    assert np.isclose(disk_avail, 0.5)
    # The next window starts fresh.
    cpu_idle, disk_avail = meter.sample(now=2.0)
    assert cpu_idle == 1.0 and disk_avail == 1.0


def test_reporter_beat_once_delivers_locally():
    table = LoadTable(1, cfg())
    clock = LiveClock()
    meter = BusyMeter(capacity=1, now=clock.now)
    seen = []

    def local_observe(payload: bytes) -> None:
        seen.append(payload)
        table.observe_datagram(payload, clock.now)

    reporter = LoadReporter(0, meter, clock, local_observe=local_observe,
                            cfg=cfg())
    reporter.beat_once(clock.now)
    reporter.beat_once(clock.now)
    assert len(seen) == 2
    assert table.heartbeats == 2
    assert reporter.seq == 2


# -- malformed datagrams ------------------------------------------------------

_TABLE_ARRAYS = ("cpu_idle", "disk_avail", "suspect", "_ok_streak", "active",
                 "last_heard", "last_seq", "dead")


def snapshot(table: LoadTable) -> dict:
    return {name: getattr(table, name).copy() for name in _TABLE_ARRAYS}


def unchanged(table: LoadTable, before: dict) -> bool:
    return all(np.array_equal(getattr(table, name), before[name])
               for name in _TABLE_ARRAYS)


def beat(node="0", seq="1", cpu="0.5", disk="0.5", active="0") -> bytes:
    return (f'{{"node":{node},"seq":{seq},"cpu_idle":{cpu},'
            f'"disk_avail":{disk},"active":{active}}}').encode()


@pytest.mark.parametrize("datagram", [
    beat(seq="9" * 5000),                   # int past the digit limit
    b"[" * 100_000,                         # nesting past the recursion limit
    b'{"node":0,"seq":1,"x":' + b"[" * 100_000 + b"}",
    beat(cpu="9" * 400),                    # float() overflows
    beat(seq="1e400"),                      # int(inf)
    beat(seq="9" * 30),                     # past int64
    beat(active="9" * 30),                  # past int64
    beat(node="1e400"),
    beat(seq="NaN"),
    beat(seq="-1"),
], ids=["seq-digits", "nesting", "nested-field", "cpu-400-digits",
        "seq-1e400", "seq-30-digits", "active-30-digits", "node-inf",
        "seq-nan", "seq-negative"])
def test_malformed_heartbeat_is_counted_not_raised(datagram):
    table = LoadTable(2, cfg())
    before = snapshot(table)
    assert not table.observe_datagram(datagram, now=0.0)
    assert (table.rejected, table.heartbeats) == (1, 0)
    assert unchanged(table, before)


def test_oversized_active_does_not_make_a_silent_node_trusted():
    """A heartbeat rejected for its ``active`` field must not count as
    hearing from the node: converting fields only after stamping
    ``last_seq``/``last_heard`` would end the node's probation."""
    table = LoadTable(1, cfg())
    view = LiveLoadView(table, FakeClock(0.0))
    for seq in (1, 2):
        table.observe_datagram(beat(seq=str(seq), active="9" * 30), 0.0)
    assert table.rejected == 2 and table.heartbeats == 0
    assert table.last_seq[0] == -1 and table.last_heard[0] == -np.inf
    assert view.is_suspect(0)
    # The same node's well-formed stream is then accepted from seq 1.
    assert table.observe_datagram(beat(seq="1"), 0.0)
    assert table.observe_datagram(beat(seq="2"), 0.1)
    assert not view.is_suspect(0)


def _json_number(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return repr(x)


#: JSON text for one heartbeat field: mostly plausible values, plus the
#: shapes that once escaped (huge ints, non-finite floats, nesting).
_field = st.one_of(
    st.integers(-2, 4).map(str),
    st.integers(-2**70, 2**70).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(_json_number),
    st.sampled_from(["9" * 30, "9" * 400, "9" * 5000, "1e400", "null",
                     "true", '"7"', '"x"', "[]", "{}",
                     "[" * 3000 + "]" * 3000]),
)
_keys = ("node", "seq", "cpu_idle", "disk_avail", "active")


@st.composite
def datagrams(draw):
    if draw(st.booleans()):
        fields = draw(st.dictionaries(st.sampled_from(_keys), _field))
        body = ",".join(f'"{k}":{v}' for k, v in fields.items())
        return ("{" + body + "}").encode()
    return draw(st.binary(max_size=64))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(datagrams(), st.floats(0.0, 2.0)), max_size=8))
@example([(beat(active="9" * 30), 0.0)])
def test_observe_datagram_counts_each_datagram_once(stream):
    table = LoadTable(3, cfg())
    now = 0.0
    for datagram, dt in stream:
        now += dt
        before = snapshot(table)
        counts = (table.heartbeats, table.rejected)
        accepted = table.observe_datagram(datagram, now)
        if accepted:
            assert (table.heartbeats, table.rejected) == (
                counts[0] + 1, counts[1])
        else:
            assert (table.heartbeats, table.rejected) == (
                counts[0], counts[1] + 1)
            assert unchanged(table, before)
        assert ((table.cpu_idle >= 0) & (table.cpu_idle <= 1)).all()
        assert ((table.disk_avail >= 0) & (table.disk_avail <= 1)).all()


# -- suspicion against the reference rule ------------------------------------


class ReferenceSuspicion:
    """The heartbeat table's suspicion rule, written out directly: a node
    is suspect when its last heartbeat is older than ``suspect_after`` or
    its streak of heartbeats is below ``probation_samples``; a heartbeat
    after such a gap restarts the streak at 1, and a reconnect at 0."""

    def __init__(self, num_nodes: int, cfg: MonitorConfig) -> None:
        self.cfg = cfg
        self.last_heard = [-math.inf] * num_nodes
        self.streak = [cfg.probation_samples] * num_nodes

    def heartbeat(self, node: int, now: float) -> None:
        gap = now - self.last_heard[node] > self.cfg.suspect_after
        self.last_heard[node] = now
        self.streak[node] = 1 if gap else self.streak[node] + 1

    def reconnect(self, node: int) -> None:
        self.streak[node] = 0

    def suspect(self, now: float) -> list:
        return [now - heard > self.cfg.suspect_after
                or streak < self.cfg.probation_samples
                for heard, streak in zip(self.last_heard, self.streak)]


_NODES = 3
_op = st.one_of(
    st.tuples(st.just("beat"), st.integers(0, _NODES - 1)),
    st.tuples(st.just("replay"), st.integers(0, _NODES - 1)),
    st.tuples(st.just("dead"), st.integers(0, _NODES - 1)),
    st.tuples(st.just("alive"), st.integers(0, _NODES - 1)),
    st.tuples(st.just("read"), st.just(0)),
)
_dt = st.one_of(st.sampled_from([0.0, 0.2, 0.5, 1.0, 1.2, 5.0]),
                st.floats(0.0, 3.0))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3),
       st.lists(st.tuples(_op, _dt), max_size=40))
def test_suspicion_matches_reference_rule(probation, ops):
    config = MonitorConfig(period=0.2, smoothing=0.7, suspect_after=1.0,
                           probation_samples=probation)
    table = LoadTable(_NODES, config)
    clock = FakeClock(0.0)
    view = LiveLoadView(table, clock)
    ref = ReferenceSuspicion(_NODES, config)
    dead = [False] * _NODES
    seq = [0] * _NODES
    for (kind, node), dt in ops:
        clock.now += dt
        now = clock.now
        if kind == "beat":
            seq[node] += 1
            assert table.observe(node, seq[node], 0.5, 0.5, 1, now)
            ref.heartbeat(node, now)
        elif kind == "replay" and seq[node]:
            assert not table.observe(node, seq[node], 0.5, 0.5, 1, now)
        elif kind == "dead":
            table.mark_dead(node)
            dead[node] = True
        elif kind == "alive":
            table.mark_alive(node)
            ref.reconnect(node)
            dead[node] = False
        elif kind == "read":
            expected = ref.suspect(now)
            assert list(table.suspect_array(now)) == expected
            assert [view.is_suspect(i) for i in range(_NODES)] == expected
            healthy = [not (d or s) for d, s in zip(dead, expected)]
            assert list(view.healthy_array()) == healthy
            assert view.all_healthy() == all(healthy)
