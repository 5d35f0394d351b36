"""The live load daemon: UDP heartbeats feeding the RSRC predictor.

"In our implementation, we use the Unix rstat() function to collect the
load information on each node."  The live cluster replaces the rstat poll
with a push daemon: every node periodically broadcasts a small UDP
datagram carrying its CPU-idle and disk-available ratios (from its
:class:`~repro.live.kernel.BusyMeter`), and every master folds the
datagrams into a :class:`LoadTable`.

Staleness reuses the suspicion semantics of the simulator's monitor /
resilience layer (:class:`repro.sim.monitor.LoadMonitor`, PR 1): a node
whose heartbeat has not arrived for ``suspect_after`` seconds is marked
*suspect* and excluded from RSRC candidate sets before any formal failure
detection; a returning node sits out ``probation_samples`` heartbeats
before being trusted again, because its first reports describe an idle
that no longer exists.  The knobs come from the same
:class:`repro.sim.config.MonitorConfig` the simulator uses, so an
experiment tunes one object for both substrates.

Heartbeat datagram (JSON, one per packet)::

    {"node": 3, "seq": 17, "cpu_idle": 0.93, "disk_avail": 0.71, "active": 2}

Sequence numbers are per-node monotonic; the table drops reordered or
replayed packets (UDP may duplicate and reorder even on loopback).
"""

from __future__ import annotations

import asyncio
import json
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.live.kernel import BusyMeter
from repro.sim.config import MonitorConfig


def encode_heartbeat(node_id: int, seq: int, cpu_idle: float,
                     disk_avail: float, active: int) -> bytes:
    return json.dumps(
        {"node": node_id, "seq": seq, "cpu_idle": cpu_idle,
         "disk_avail": disk_avail, "active": active},
        separators=(",", ":")).encode("utf-8")


def decode_heartbeat(data: bytes) -> Optional[dict]:
    """Parse one datagram; ``None`` for garbage (UDP is unauthenticated)."""
    try:
        msg = json.loads(data)
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(msg, dict) or "node" not in msg or "seq" not in msg:
        return None
    return msg


class LoadTable:
    """A master's view of every node's load, built from heartbeats.

    All mutation happens on the master's event-loop thread (datagram
    callbacks and local observes), so no locking is needed.
    """

    __slots__ = ("num_nodes", "cfg", "cpu_idle", "disk_avail", "active",
                 "last_heard", "last_seq", "dead", "_ok_streak",
                 "heartbeats", "rejected")

    def __init__(self, num_nodes: int, cfg: Optional[MonitorConfig] = None):
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        self.num_nodes = num_nodes
        self.cfg = cfg or MonitorConfig()
        self.cfg.validate()
        #: Smoothed ratios, optimistically 1.0 until first heartbeat.
        self.cpu_idle = np.ones(num_nodes)
        self.disk_avail = np.ones(num_nodes)
        self.active = np.zeros(num_nodes, dtype=np.intp)
        #: Receipt time of the last accepted heartbeat per node; -inf means
        #: never heard (a node that never reported is suspect, not trusted).
        self.last_heard = np.full(num_nodes, -np.inf)
        self.last_seq = np.full(num_nodes, -1, dtype=np.int64)
        #: Nodes whose transport failed outright (broken CGI connection);
        #: excluded from dispatch until the connection is re-established.
        self.dead = np.zeros(num_nodes, dtype=bool)
        #: Consecutive accepted heartbeats since the node was last suspect
        #: (probation: a returning node must report a few times in a row).
        self._ok_streak = np.full(num_nodes, self.cfg.probation_samples,
                                  dtype=np.intp)
        self.heartbeats = 0
        self.rejected = 0

    def observe(self, node_id: int, seq: int, cpu_idle: float,
                disk_avail: float, active: int, now: float) -> bool:
        """Fold one heartbeat in; returns False if it was rejected."""
        if not 0 <= node_id < self.num_nodes:
            self.rejected += 1
            return False
        if seq <= self.last_seq[node_id]:
            self.rejected += 1          # reordered or duplicated datagram
            return False
        # A gap in heartbeats restarts probation; an unbroken stream works
        # it off (probation itself must not reset the streak, or a
        # returning node would never be trusted again).
        was_stale = (now - self.last_heard[node_id]) > self.cfg.suspect_after
        self.last_seq[node_id] = seq
        self.last_heard[node_id] = now
        self.active[node_id] = max(0, int(active))
        s = self.cfg.smoothing
        self.cpu_idle[node_id] = (
            s * min(1.0, max(0.0, cpu_idle))
            + (1.0 - s) * self.cpu_idle[node_id])
        self.disk_avail[node_id] = (
            s * min(1.0, max(0.0, disk_avail))
            + (1.0 - s) * self.disk_avail[node_id])
        self._ok_streak[node_id] = (
            1 if was_stale else self._ok_streak[node_id] + 1)
        self.heartbeats += 1
        return True

    def observe_datagram(self, data: bytes, now: float) -> bool:
        msg = decode_heartbeat(data)
        if msg is None:
            self.rejected += 1
            return False
        try:
            return self.observe(int(msg["node"]), int(msg["seq"]),
                                float(msg.get("cpu_idle", 1.0)),
                                float(msg.get("disk_avail", 1.0)),
                                int(msg.get("active", 0)), now)
        except (TypeError, ValueError):
            self.rejected += 1
            return False

    def mark_dead(self, node_id: int) -> None:
        self.dead[node_id] = True

    def mark_alive(self, node_id: int) -> None:
        self.dead[node_id] = False
        self._ok_streak[node_id] = 0    # probation after a reconnect

    def suspect_array(self, now: float) -> np.ndarray:
        """Stale-heartbeat / on-probation flags, recomputed at ``now``."""
        stale = (now - self.last_heard) > self.cfg.suspect_after
        probation = self._ok_streak < self.cfg.probation_samples
        return stale | probation


class LiveLoadView:
    """Adapter exposing a :class:`LoadTable` through the
    :class:`repro.core.policies.LoadView` protocol (suspicion included),
    so the *simulator's* dispatch policies run unchanged against live
    telemetry."""

    __slots__ = ("table", "clock")

    def __init__(self, table: LoadTable, clock) -> None:
        self.table = table
        self.clock = clock              # anything with a ``.now`` property

    @property
    def num_nodes(self) -> int:
        return self.table.num_nodes

    @property
    def now(self) -> float:
        return self.clock.now

    def cpu_idle_array(self) -> np.ndarray:
        return self.table.cpu_idle

    def disk_avail_array(self) -> np.ndarray:
        return self.table.disk_avail

    def active_requests(self, node_id: int) -> int:
        return int(self.table.active[node_id])

    def is_alive(self, node_id: int) -> bool:
        return not bool(self.table.dead[node_id])

    def all_alive(self) -> bool:
        return not self.table.dead.any()

    def alive_array(self) -> np.ndarray:
        return ~self.table.dead

    # -- suspicion ---------------------------------------------------------

    def is_suspect(self, node_id: int) -> bool:
        return bool(self.table.suspect_array(self.clock.now)[node_id])

    def healthy_array(self) -> np.ndarray:
        return ~self.table.dead & ~self.table.suspect_array(self.clock.now)

    def all_healthy(self) -> bool:
        return bool(self.healthy_array().all())


class LoadReporter:
    """One node's heartbeat daemon.

    Samples the node's :class:`BusyMeter` every ``cfg.period`` seconds and
    delivers the heartbeat to every destination: remote masters over UDP,
    and — for a master reporting about itself — a direct function call
    into its own table (no loopback round-trip for self-knowledge).
    """

    def __init__(self, node_id: int, meter: BusyMeter, clock,
                 udp_targets: Sequence[Tuple[str, int]] = (),
                 local_observe: Optional[Callable[[bytes], None]] = None,
                 cfg: Optional[MonitorConfig] = None):
        self.node_id = node_id
        self.meter = meter
        self.clock = clock
        self.udp_targets = list(udp_targets)
        self.local_observe = local_observe
        self.cfg = cfg or MonitorConfig()
        self.seq = 0
        self.sent = 0
        self._task: Optional[asyncio.Task] = None
        self._transport: Optional[asyncio.DatagramTransport] = None

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        if self.udp_targets:
            self._transport, _ = await loop.create_datagram_endpoint(
                asyncio.DatagramProtocol, local_addr=("127.0.0.1", 0))
        self._task = loop.create_task(self._run(), name=f"loadd-{self.node_id}")

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    def beat_once(self, now: float) -> bytes:
        """Build and deliver one heartbeat (exposed for tests)."""
        cpu_idle, disk_avail = self.meter.sample(now)
        self.seq += 1
        payload = encode_heartbeat(self.node_id, self.seq, cpu_idle,
                                   disk_avail, self.meter.active)
        if self.local_observe is not None:
            self.local_observe(payload)
        if self._transport is not None:
            for addr in self.udp_targets:
                self._transport.sendto(payload, addr)
        self.sent += 1
        return payload

    async def _run(self) -> None:
        while True:
            await asyncio.sleep(self.cfg.period)
            self.beat_once(self.clock.now)


class HeartbeatReceiver(asyncio.DatagramProtocol):
    """Master-side UDP endpoint folding datagrams into a table."""

    def __init__(self, table: LoadTable, clock) -> None:
        self.table = table
        self.clock = clock

    def datagram_received(self, data: bytes, addr) -> None:
        self.table.observe_datagram(data, self.clock.now)


async def open_heartbeat_endpoint(table: LoadTable, clock,
                                  host: str = "127.0.0.1"):
    """Bind a UDP socket for heartbeats; returns ``(transport, port)``."""
    loop = asyncio.get_running_loop()
    transport, _ = await loop.create_datagram_endpoint(
        lambda: HeartbeatReceiver(table, clock), local_addr=(host, 0))
    port = transport.get_extra_info("sockname")[1]
    return transport, port
