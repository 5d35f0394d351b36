"""Simulation configuration.

All timing constants default to the values the paper gives in Section 5.2.1
("Parameter setting"):

* each node serves SPECweb96 static content at 1200 requests/second,
* CPU quantum 10 ms, priority update period 100 ms,
* context-switch overhead 50 us, fork overhead 3 ms,
* remote CGI dispatch latency (excluding fork) 1 ms,
* page size 8 KB, average I/O burst per page 2 ms.

Everything is expressed in **seconds** of virtual time.  A single
:class:`SimConfig` instance is shared by every component of one simulated
cluster; treat it as immutable once a simulation has started.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional, Tuple


@dataclass
class CPUConfig:
    """Parameters of the BSD-4.3-style CPU scheduler (one CPU per node)."""

    #: Scheduling quantum: a running process is preempted after this long.
    quantum: float = 0.010
    #: Period at which process priorities are decayed/recomputed.
    priority_update_period: float = 0.100
    #: Cost charged to the CPU on every context switch.
    context_switch_overhead: float = 50e-6
    #: Cost of forking a CGI process (charged as CPU work on the executing
    #: node before the script's own demand starts).
    fork_overhead: float = 0.003
    #: Number of run-queue priority levels (BSD 4.3 uses 32 user levels).
    num_queues: int = 32
    #: Multiplicative decay applied to accumulated CPU usage once per
    #: priority-update period (BSD's ``decay = (2*load)/(2*load+1)`` with the
    #: load term folded into a constant).
    usage_decay: float = 0.66
    #: How much accumulated usage (in seconds) moves a process down one
    #: priority level.  Half a quantum: a process that burns a full quantum
    #: drops below fresh arrivals immediately, as BSD's per-tick p_cpu
    #: increments achieve.
    usage_per_level: float = 0.005

    def validate(self) -> None:
        if self.quantum <= 0:
            raise ValueError(f"quantum must be positive, got {self.quantum}")
        if self.priority_update_period <= 0:
            raise ValueError("priority_update_period must be positive")
        if self.context_switch_overhead < 0:
            raise ValueError("context_switch_overhead must be >= 0")
        if self.fork_overhead < 0:
            raise ValueError("fork_overhead must be >= 0")
        if self.num_queues < 1:
            raise ValueError("num_queues must be >= 1")
        if not 0.0 < self.usage_decay <= 1.0:
            raise ValueError("usage_decay must be in (0, 1]")
        if self.usage_per_level <= 0:
            raise ValueError("usage_per_level must be positive")


@dataclass
class DiskConfig:
    """Parameters of the round-robin disk scheduler (one disk per node)."""

    #: Average service time of one 8 KB page access.
    page_time: float = 0.002
    #: Pages served per round-robin slice.  Larger batches mean fewer
    #: simulation events at the cost of coarser disk sharing; the paper's
    #: justification for the 2 ms figure (block transfer + caching) applies
    #: to batches as well.
    pages_per_slice: int = 4

    def validate(self) -> None:
        if self.page_time <= 0:
            raise ValueError("page_time must be positive")
        if self.pages_per_slice < 1:
            raise ValueError("pages_per_slice must be >= 1")

    @property
    def slice_time(self) -> float:
        """Maximum virtual time of one disk round-robin slice."""
        return self.page_time * self.pages_per_slice


@dataclass
class MemoryConfig:
    """Parameters of the demand-paged virtual memory manager."""

    #: Page size in bytes (8 KB in the paper).
    page_size: int = 8192
    #: Physical pages per node.  8192 pages * 8 KB = 64 MB, a mid-range
    #: workstation server of the paper's era.
    total_pages: int = 8192
    #: Pages the OS and file cache permanently occupy.
    reserved_pages: int = 512
    #: Whether page faults inject additional disk I/O.  Disabling gives a
    #: faster, paging-free simulation (useful for quick experiments).
    enable_paging: bool = True
    #: Fraction of a process's working set that must be faulted in from disk
    #: when the process starts.  Defaults to 0: shared CGI text plus
    #: zero-fill pages make cold faults essentially free, and paging cost
    #: should emerge from memory *pressure* (page stealing), not from every
    #: request.  Raise it to ablate cold-start behaviour.
    coldstart_fraction: float = 0.0
    #: When free memory is exhausted, stolen pages cause victims to re-fault
    #: this fraction of the stolen pages later.
    refault_fraction: float = 0.5
    #: File-cache miss probability for static requests on an unloaded node.
    #: SPECweb96-class file sets fit in RAM, so base misses are rare.
    static_miss_base: float = 0.02
    #: Miss probability as memory pressure approaches 1.0 — "resource-
    #: intensive CGI requests tend to use a large amount of memory, which
    #: decreases space available for file system caching, further
    #: decreasing static request performance" (paper Section 2).
    static_miss_max: float = 0.95

    def validate(self) -> None:
        if self.page_size <= 0:
            raise ValueError("page_size must be positive")
        if self.total_pages <= 0:
            raise ValueError("total_pages must be positive")
        if not 0 <= self.reserved_pages < self.total_pages:
            raise ValueError(
                "reserved_pages must be in [0, total_pages); got "
                f"{self.reserved_pages} of {self.total_pages}"
            )
        if not 0.0 <= self.coldstart_fraction <= 1.0:
            raise ValueError("coldstart_fraction must be in [0, 1]")
        if not 0.0 <= self.refault_fraction <= 1.0:
            raise ValueError("refault_fraction must be in [0, 1]")
        if not 0.0 <= self.static_miss_base <= self.static_miss_max <= 1.0:
            raise ValueError(
                "need 0 <= static_miss_base <= static_miss_max <= 1"
            )


@dataclass
class NetworkConfig:
    """Intra-cluster communication costs.

    The paper measures the remote CGI dispatch cost (TCP connection setup,
    excluding fork) at about 1 ms and reports that intra-cluster network
    contention is negligible for dynamic-content-intensive workloads, so the
    network is modelled as a fixed per-dispatch latency.
    """

    #: Latency added when a request executes on a node other than the node
    #: that accepted it.
    remote_cgi_latency: float = 0.001
    #: Latency added when a front-end forwards a request to the accepting
    #: master (0: the switch/DNS hop is outside the measured response time).
    frontend_latency: float = 0.0

    def validate(self) -> None:
        if self.remote_cgi_latency < 0:
            raise ValueError("remote_cgi_latency must be >= 0")
        if self.frontend_latency < 0:
            raise ValueError("frontend_latency must be >= 0")


@dataclass
class ConnectionConfig:
    """Server process/connection pool (Apache's MaxClients) and client-side
    transfer modelling.

    The paper's model admits unboundedly many concurrent requests and ends
    a request when processing ends.  A 1999 server actually ran a bounded
    pool of worker processes, and each worker stayed pinned to its client
    until the response bytes drained over the client's link — for the UCB
    Home-IP workload, a modem.  Both effects default off (matching the
    paper); enabling them exposes the slot-exhaustion failure mode that
    mixing long CGI with slow clients causes.
    """

    #: Maximum concurrently served requests per node (0 = unlimited).
    max_processes: int = 0
    #: Client downlink in bytes/second (0 = infinite: no transfer phase).
    #: A V.34 modem is ~3,600 B/s.
    client_bandwidth: float = 0.0

    def validate(self) -> None:
        if self.max_processes < 0:
            raise ValueError("max_processes must be >= 0")
        if self.client_bandwidth < 0:
            raise ValueError("client_bandwidth must be >= 0")

    @property
    def limited(self) -> bool:
        return self.max_processes > 0

    def transfer_time(self, size_bytes: int) -> float:
        """Seconds a worker stays pinned sending the response."""
        if self.client_bandwidth <= 0 or size_bytes <= 0:
            return 0.0
        return size_bytes / self.client_bandwidth


@dataclass
class MonitorConfig:
    """Load-information collection (the paper polls ``rstat()``)."""

    #: Period between load snapshots made available to the scheduler.
    period: float = 0.200
    #: Exponential smoothing factor applied to utilisation samples
    #: (1.0 = use the raw last-window value).
    smoothing: float = 0.7
    #: Suspicion on the live substrate: a node whose heartbeat has not
    #: arrived for this long is marked *suspect* and excluded from RSRC
    #: candidate sets even before its crash is formally detected.  The
    #: simulator probes every node each period, so there suspicion comes
    #: from failed probes only and this knob has no effect.
    suspect_after: float = 1.0
    #: Consecutive successful probes (or heartbeats) a suspect node must
    #: pass before it is trusted again (recovered/recruited nodes report stale-idle load, so
    #: immediately trusting them herds every dynamic request onto them).
    probation_samples: int = 2

    def validate(self) -> None:
        if self.period <= 0:
            raise ValueError("period must be positive")
        if not 0.0 < self.smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        if self.suspect_after <= 0:
            raise ValueError("suspect_after must be positive")
        if self.probation_samples < 1:
            raise ValueError("probation_samples must be >= 1")


@dataclass
class SimConfig:
    """Top-level configuration for one simulated cluster.

    Parameters
    ----------
    num_nodes:
        Cluster size ``p``.  The paper simulates 32 and 128.
    static_rate:
        Per-node static-request service rate ``mu_h`` (requests/second on an
        otherwise idle node); 1200 in the simulations, 110 on the Sun
        testbed.  Static service is CPU work: on an unloaded node the file
        set is cache-resident, and disk reads appear only on cache misses
        (see :class:`MemoryConfig`).
    seed:
        Seed for the simulation-side random streams (burst shaping, paging).
    """

    num_nodes: int = 32
    static_rate: float = 1200.0
    seed: int = 0
    #: Worker processes used when this configuration's experiments fan out
    #: over the :mod:`repro.perf.pool` runner (1 = serial).  Purely a
    #: harness knob: it never changes simulated behaviour, only how many
    #: configurations replay concurrently.
    parallelism: int = 1

    cpu: CPUConfig = field(default_factory=CPUConfig)
    disk: DiskConfig = field(default_factory=DiskConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    monitor: MonitorConfig = field(default_factory=MonitorConfig)
    connections: ConnectionConfig = field(default_factory=ConnectionConfig)

    #: Per-node CPU speed multipliers relative to the reference node whose
    #: static rate is ``static_rate`` (None = homogeneous).  A node with
    #: speed 2.0 executes CPU bursts twice as fast.  This implements the
    #: heterogeneous-cluster extension the paper announces in its
    #: conclusion (and studies in its companion work on adaptive load
    #: sharing for clustered digital-library servers).
    cpu_speeds: Optional[Tuple[float, ...]] = None
    #: Per-node disk speed multipliers (None = homogeneous).
    disk_speeds: Optional[Tuple[float, ...]] = None

    def validate(self) -> "SimConfig":
        """Check invariants; returns ``self`` so it chains in constructors."""
        if self.num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.static_rate <= 0:
            raise ValueError("static_rate must be positive")
        if self.parallelism < 1:
            raise ValueError(
                f"parallelism must be >= 1, got {self.parallelism}")
        for name, speeds in (("cpu_speeds", self.cpu_speeds),
                             ("disk_speeds", self.disk_speeds)):
            if speeds is None:
                continue
            if len(speeds) != self.num_nodes:
                raise ValueError(
                    f"{name} must have one entry per node "
                    f"({len(speeds)} != {self.num_nodes})"
                )
            if any(x <= 0 for x in speeds):
                raise ValueError(f"{name} entries must be positive")
        self.cpu.validate()
        self.disk.validate()
        self.memory.validate()
        self.network.validate()
        self.monitor.validate()
        self.connections.validate()
        return self

    @property
    def static_demand(self) -> float:
        """Mean total service demand of one static request, ``1 / mu_h``."""
        return 1.0 / self.static_rate

    def node_cpu_speed(self, node_id: int) -> float:
        """CPU speed multiplier of one node (1.0 when homogeneous)."""
        return 1.0 if self.cpu_speeds is None else self.cpu_speeds[node_id]

    def node_disk_speed(self, node_id: int) -> float:
        """Disk speed multiplier of one node (1.0 when homogeneous)."""
        return 1.0 if self.disk_speeds is None else self.disk_speeds[node_id]

    def copy(self, **overrides) -> "SimConfig":
        """Return a deep copy, optionally with top-level fields replaced."""
        dup = dataclasses.replace(
            self,
            cpu=dataclasses.replace(self.cpu),
            disk=dataclasses.replace(self.disk),
            memory=dataclasses.replace(self.memory),
            network=dataclasses.replace(self.network),
            monitor=dataclasses.replace(self.monitor),
            connections=dataclasses.replace(self.connections),
        )
        for key, value in overrides.items():
            if not hasattr(dup, key):
                raise AttributeError(f"SimConfig has no field {key!r}")
            setattr(dup, key, value)
        return dup


#: Configuration matching the paper's simulated medium cluster (p = 32).
def paper_sim_config(num_nodes: int = 32, seed: int = 0) -> SimConfig:
    """The Section 5.2.1 parameter setting (1200 req/s nodes)."""
    return SimConfig(num_nodes=num_nodes, static_rate=1200.0, seed=seed).validate()


def testbed_sim_config(num_nodes: int = 6, seed: int = 0) -> SimConfig:
    """The Section 5.2.2 Sun Ultra-1 setting (110 req/s nodes)."""
    return SimConfig(num_nodes=num_nodes, static_rate=110.0, seed=seed).validate()
