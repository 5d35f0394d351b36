"""Substrate adapters: how control decisions touch a running cluster.

Two adapters present the same :class:`~repro.control.controller.ControlAdapter`
surface to the reconciliation loop.  They share one body, which reads and
actuates the dispatch policy: it retunes the theta'_2 reservation cap,
refreshes the RSRC weight, picks promotion/demotion candidates, and swaps
the policy's master/slave role sets (``Policy.set_masters``).  Demotion
applies the resilience layer's graceful drain to the *role*: the node
keeps executing everything already routed to it, it just stops being an
accept/static target — so conservation holds with zero aborts.  Each
substrate supplies only its clock, its size, its completions, its
promotable slaves with their suspicion flags, and the side effect of a
role change:

:class:`SimAdapter`
    Reads a running :class:`~repro.sim.cluster.Cluster`.  Promotion
    re-registers the node with the
    :class:`~repro.sim.monitor.LoadMonitor` (re-baselines its busy
    counters) so the first post-promotion load sample reflects the new
    duty cycle rather than averaging across roles.

:class:`LiveAdapter`
    Reads the live master.  A role change sends a ``role`` frame to the
    affected node, which acknowledges with ``role_ok``, and re-registers
    the node with the loadd tier
    (:meth:`~repro.live.loadd.LoadTable.mark_alive` — heartbeat
    probation restarts, so dispatch treats the node cautiously until a
    fresh run of heartbeats arrives in its new role).

Both substrates also get a loop driver — :class:`SimControlLoop`
(engine-scheduled, invisible to ``Cluster.pending_requests`` so
conservation accounting is untouched) and :class:`LiveControlLoop`
(an asyncio task) — that owns a :class:`~repro.control.controller.Controller`
and ticks it every ``cfg.period``.
"""

from __future__ import annotations

import asyncio
from typing import Iterator, Optional, Tuple, TYPE_CHECKING

from repro.control.controller import (
    DEMOTE,
    PROMOTE,
    RETUNE_THETA,
    SET_W,
    ControlAction,
    ControlConfig,
    Controller,
)
from repro.control.estimator import WorkloadEstimator
from repro.control.log import ControlLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.live.master import MasterServer
    from repro.sim.cluster import Cluster

__all__ = ["SimAdapter", "SimControlLoop", "LiveAdapter", "LiveControlLoop"]


class _Adapter:
    """The substrate-independent body of both adapters.

    Everything the controller reads or actuates through the dispatch
    policy lives here; a substrate supplies ``now``, ``num_nodes``,
    :meth:`_completions`, :meth:`_slaves` and :meth:`_role_changed`.
    """

    def __init__(self, policy) -> None:
        self.policy = policy
        self._ingested = 0

    # -- substrate hooks -------------------------------------------------------

    def _completions(self, start: int) -> Iterator[Tuple[int, float, float]]:
        """``(kind, cpu, io)`` of every completion from index ``start``."""
        raise NotImplementedError

    def _slaves(self) -> Iterator[Tuple[int, bool]]:
        """``(node_id, suspect)`` of each promotable slave, by id."""
        raise NotImplementedError

    def _role_changed(self, node_id: int, promoted: bool) -> None:
        """Side effect of one applied role change on the substrate."""
        raise NotImplementedError

    # -- observation -----------------------------------------------------------

    def master_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(self.policy.master_ids))

    def poll(self, estimator: WorkloadEstimator) -> int:
        """Feed completions recorded since the last tick."""
        n = 0
        for kind, cpu, io in self._completions(self._ingested):
            estimator.observe(kind, cpu, io)
            n += 1
        self._ingested += n
        return n

    def theta_cap(self) -> float:
        res = self.policy.reservation
        return res.theta_cap if res is not None else 1.0

    def rsrc_w(self) -> float:
        return self.policy.default_w

    def own_cap(self) -> None:
        res = self.policy.reservation
        if res is not None:
            res.external_cap = True

    # -- role candidates -------------------------------------------------------

    def promote_candidate(self) -> Optional[int]:
        """Lowest-id promotable slave that is not suspect, else the
        lowest-id suspect one."""
        fallback: Optional[int] = None
        for node_id, suspect in self._slaves():
            if not suspect:
                return node_id
            if fallback is None:
                fallback = node_id
        return fallback

    def demote_candidate(self, min_masters: int) -> Optional[int]:
        """Highest-id demotable master (never the front-end accept node)."""
        masters = sorted(self.policy.master_ids, reverse=True)
        if len(masters) <= min_masters:
            return None
        accept = getattr(self.policy, "accept_node", None)
        for i in masters:
            if i != accept:
                return i
        return None

    # -- actuation -------------------------------------------------------------

    def apply(self, action: ControlAction) -> bool:
        policy = self.policy
        if action.kind == RETUNE_THETA:
            res = getattr(policy, "reservation", None)
            if res is None or action.value is None:
                return False
            res.theta_cap = float(action.value)
            return True
        if action.kind == SET_W:
            if action.value is None:
                return False
            w = min(1.0, max(0.0, float(action.value)))
            policy.default_w = w
            sampler = getattr(policy, "sampler", None)
            if sampler is not None:
                sampler.default_w = w
            return True
        masters = set(policy.master_ids)
        if action.kind == PROMOTE:
            if action.node_id in masters:
                return False
            masters.add(action.node_id)
        elif action.kind == DEMOTE:
            # Graceful role drain: no aborts — in-flight work routed while
            # the node was a master finishes on it (conservation tracks
            # requests, not roles); the node merely stops being a static/
            # accept target from this instant.
            if (action.node_id not in masters or len(masters) <= 1
                    or action.node_id == getattr(policy, "accept_node",
                                                 None)):
                return False
            masters.discard(action.node_id)
        else:
            return False
        policy.set_masters(masters)
        self._role_changed(action.node_id, action.kind == PROMOTE)
        return True


# -- simulator substrate ------------------------------------------------------


class SimAdapter(_Adapter):
    """Control-plane view of a running simulated cluster."""

    def __init__(self, cluster: "Cluster") -> None:
        super().__init__(cluster.policy)
        self.cluster = cluster

    @property
    def now(self) -> float:
        return self.cluster.engine.now

    @property
    def num_nodes(self) -> int:
        return len(self.cluster.nodes)

    def _completions(self, start: int) -> Iterator[Tuple[int, float, float]]:
        m = self.cluster.metrics
        kinds, demands, cpus = m.kinds, m.demands, m.cpu_demands
        for i in range(start, len(kinds)):
            cpu = cpus[i]
            yield kinds[i], cpu, demands[i] - cpu

    def _slaves(self) -> Iterator[Tuple[int, bool]]:
        """Alive, not draining, not a master."""
        cluster = self.cluster
        masters = set(self.policy.master_ids)
        suspect = cluster.monitor.suspect
        for i, node in enumerate(cluster.nodes):
            if not (i in masters or i in cluster._draining or node.failed):
                yield i, bool(suspect[i])

    def _role_changed(self, node_id: int, promoted: bool) -> None:
        # Re-register with the monitor: re-baseline busy counters so the
        # next sample measures the node in its new role.
        if promoted:
            self.cluster.monitor.reregister(node_id)


class SimControlLoop:
    """Engine-scheduled driver: ticks the controller every ``period``.

    The tick is a plain engine callback, deliberately *not* one of the
    request-bearing callbacks ``Cluster.pending_requests`` recognises,
    so an armed controller never extends a drain or perturbs the
    conservation ledger.
    """

    def __init__(self, cluster: "Cluster",
                 cfg: Optional[ControlConfig] = None) -> None:
        self.cluster = cluster
        self.adapter = SimAdapter(cluster)
        self.controller = Controller(self.adapter, cfg,
                                     ControlLog(cluster.tracer))
        self._started = False

    def start(self) -> "SimControlLoop":
        if not self._started:
            self._started = True
            self.controller.attach()
            self.cluster.engine.call_later(self.controller.cfg.period,
                                           self._tick)
        return self

    def _tick(self) -> None:
        self.controller.tick()
        self.cluster.engine.call_later(self.controller.cfg.period, self._tick)


# -- live substrate -----------------------------------------------------------


class LiveAdapter(_Adapter):
    """Control-plane view of the live master (PR-4 substrate)."""

    def __init__(self, master: "MasterServer") -> None:
        super().__init__(master.policy)
        self.master = master
        self._role_seq = 0

    @property
    def now(self) -> float:
        return self.master.clock.now

    @property
    def num_nodes(self) -> int:
        return self.master.num_nodes

    def _completions(self, start: int) -> Iterator[Tuple[int, float, float]]:
        metrics = self.master.metrics
        records, splits = metrics.records, metrics.splits
        for i in range(start, len(records)):
            cpu, io = splits[i]
            yield records[i][1], cpu, io

    def _slaves(self) -> Iterator[Tuple[int, bool]]:
        """Connected peers that are not masters."""
        master = self.master
        masters = set(self.policy.master_ids)
        suspect = master.table.suspect_array(master.clock.now)
        for i in sorted(master.peers):
            if i not in masters and master.peers[i].connected:
                yield i, bool(suspect[i])

    def _role_changed(self, node_id: int, promoted: bool) -> None:
        """Best-effort ROLE frame to the node (ack is async), then loadd
        re-registration: heartbeat probation restarts so dispatch treats
        the node cautiously until it reports in its new role."""
        from repro.live import protocol

        peer = self.master.peers.get(node_id)
        if peer is not None and peer.writer is not None:
            self._role_seq += 1
            try:
                protocol.send_message(peer.writer, {
                    "op": "role", "node": node_id,
                    "role": "master" if promoted else "slave",
                    "seq": self._role_seq,
                })
            except (ConnectionResetError, RuntimeError):
                pass   # reader loop handles the disconnect bookkeeping
        self.master.table.mark_alive(node_id)


class LiveControlLoop:
    """Asyncio driver for the live substrate: tick every ``period``."""

    def __init__(self, master: "MasterServer",
                 cfg: Optional[ControlConfig] = None) -> None:
        self.master = master
        self.adapter = LiveAdapter(master)
        self.controller = Controller(self.adapter, cfg,
                                     ControlLog(master.tracer))
        self._task: Optional[asyncio.Task] = None

    def start(self) -> "LiveControlLoop":
        if self._task is None:
            self.controller.attach()
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="control-loop")
        return self

    async def _run(self) -> None:
        period = self.controller.cfg.period
        while True:
            await asyncio.sleep(period)
            self.controller.tick()

    async def stop(self) -> None:
        task, self._task = self._task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
