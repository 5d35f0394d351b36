"""Cluster load monitor — the simulated counterpart of polling ``rstat()``.

"In our implementation, we use the Unix rstat() function to collect the load
information on each node" and the scheduler "use[s] periodically-updated I/O
and CPU load information".

:class:`NodeTable` holds what a dispatcher knows about each node: smoothed
**CPUIdleRatio** and **DiskAvailRatio** arrays and a *suspect* flag.  It is
fed through two transitions, :meth:`NodeTable.report` (a load sample
arrived) and :meth:`NodeTable.miss` (a sample failed or is overdue), and it
serves both substrates: :class:`LoadMonitor` below probes simulated nodes
once per period, and the live :class:`repro.live.loadd.LoadTable` folds
UDP heartbeats.  Between samples the scheduler sees stale values — exactly
the staleness a real deployment has, and a knob worth ablating.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.sim.config import MonitorConfig

if TYPE_CHECKING:  # pragma: no cover - the live substrate imports this module
    from repro.sim.engine import Engine
    from repro.sim.node import Node


class NodeTable:
    """Per-node smoothed load ratios plus suspicion and probation.

    A node is *suspect* — excluded from RSRC candidate sets before any
    formal failure detection — from its last :meth:`miss` until it has
    passed ``probation_samples`` consecutive :meth:`report` calls: a node
    coming back reports an idle that no longer exists, and trusting it at
    once herds every dynamic request onto it.
    """

    __slots__ = ("num_nodes", "cfg", "cpu_idle", "disk_avail", "suspect",
                 "any_suspect", "_ok_streak")

    def __init__(self, num_nodes: int, cfg: MonitorConfig):
        self.num_nodes = num_nodes
        self.cfg = cfg
        #: Smoothed fraction of idle CPU time per node, in [0, 1].
        self.cpu_idle = np.ones(num_nodes)
        #: Smoothed fraction of available disk bandwidth per node, in [0, 1].
        self.disk_avail = np.ones(num_nodes)
        #: Suspicion flags (read-only for callers).
        self.suspect = np.zeros(num_nodes, dtype=bool)
        #: O(1) fast-path mirror of ``suspect.any()``.
        self.any_suspect = False
        #: Consecutive reports since the node's last miss.
        self._ok_streak = np.full(num_nodes, cfg.probation_samples,
                                  dtype=np.intp)

    def report(self, node_id: int, cpu_idle: float, disk_avail: float) -> None:
        """Fold in one load sample: clip, smooth, and work off probation."""
        s = self.cfg.smoothing
        self.cpu_idle[node_id] = (s * min(1.0, max(0.0, cpu_idle))
                                  + (1.0 - s) * self.cpu_idle[node_id])
        self.disk_avail[node_id] = (s * min(1.0, max(0.0, disk_avail))
                                    + (1.0 - s) * self.disk_avail[node_id])
        streak = self._ok_streak[node_id] + 1
        self._ok_streak[node_id] = streak
        if streak >= self.cfg.probation_samples and self.suspect[node_id]:
            self.suspect[node_id] = False
            self.any_suspect = bool(self.suspect.any())

    def miss(self, node_id: int) -> None:
        """A sample failed or is overdue: suspect, probation restarts."""
        self._ok_streak[node_id] = 0
        self.suspect[node_id] = True
        self.any_suspect = True


class LoadMonitor(NodeTable):
    """Periodic sampler of per-node CPU-idle and disk-available ratios.

    Every ``cfg.period`` the ``rstat()`` probe of a failed node fails
    (:meth:`~NodeTable.miss`) and every other node reports its busy time
    over the window (:meth:`~NodeTable.report`).  Every running node is
    probed at every tick, so suspicion here is per probe:
    ``cfg.suspect_after`` applies only to live heartbeats.
    """

    __slots__ = ("engine", "nodes", "_last_cpu_busy", "_last_disk_busy",
                 "_last_sample_time", "samples")

    def __init__(self, engine: "Engine", cfg: MonitorConfig,
                 nodes: Sequence["Node"]):
        super().__init__(len(nodes), cfg)
        self.engine = engine
        self.nodes = nodes
        self._last_cpu_busy = np.zeros(self.num_nodes)
        self._last_disk_busy = np.zeros(self.num_nodes)
        self._last_sample_time = engine.now
        self.samples = 0

    def start(self) -> None:
        """Schedule the first sampling tick."""
        self.engine.call_later(self.cfg.period, self._tick)

    def reregister(self, node_id: int) -> None:
        """Re-baseline one node's busy counters after a role change.

        Called by the control plane when it promotes a slave: the busy
        counters restart from *now* so the first post-promotion sample
        measures the node's utilisation in its new role instead of
        averaging across the transition.  Unlike a recovery there is no
        probation — the node was continuously monitored; only its duty
        cycle changed.
        """
        node = self.nodes[node_id]
        self._last_cpu_busy[node_id] = node.cpu.busy_time
        self._last_disk_busy[node_id] = node.disk.busy_time

    def _tick(self) -> None:
        now = self.engine.now
        window = now - self._last_sample_time
        last_cpu, last_disk = self._last_cpu_busy, self._last_disk_busy
        for i, node in enumerate(self.nodes):
            if node.failed:
                self.miss(i)
                continue
            cpu_busy = node.cpu.busy_time
            disk_busy = node.disk.busy_time
            cpu_util = (cpu_busy - last_cpu[i]) / window
            disk_util = (disk_busy - last_disk[i]) / window
            last_cpu[i] = cpu_busy
            last_disk[i] = disk_busy
            self.report(i, 1.0 - cpu_util, 1.0 - disk_util)
        self._last_sample_time = now
        self.samples += 1
        self.engine.call_later(self.cfg.period, self._tick)
