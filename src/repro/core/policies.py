"""Dispatch policies: the flat architecture, the optimized M/S scheduler,
its ablations (M/S-ns, M/S-nr, M/S-1), the M/S' alternative, and two
baseline policies a load-balancing switch might implement.

A policy maps each arriving request to an executing node, given only the
load view a real front end would have (periodic, slightly stale CPU-idle
and disk-available ratios).  The cluster charges the remote-CGI network
latency whenever the executing node differs from the accepting node.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.core.reservation import ReservationConfig, ReservationController
from repro.core.rsrc import DEFAULT_W, rsrc_cost, select_min_rsrc
from repro.core.sampling import DemandSampler
from repro.workload.request import Request, RequestKind


#: Idle-ratio discount per unit of outstanding work an M/S dispatcher has
#: in flight on a resource (see :meth:`MSPolicy._route_dynamic`).
HERDING_DISCOUNT = 0.5


class LoadView(Protocol):
    """What a policy is allowed to observe about the cluster.

    Besides membership (``alive``) a view reports *health*: a node is
    healthy when it is alive and not suspect (failed probe, stale sample,
    post-recovery probation; see :class:`repro.sim.cluster.ClusterView`).
    """

    @property
    def num_nodes(self) -> int: ...

    @property
    def now(self) -> float: ...

    def cpu_idle_array(self) -> np.ndarray: ...

    def disk_avail_array(self) -> np.ndarray: ...

    def active_requests(self, node_id: int) -> int: ...

    def is_alive(self, node_id: int) -> bool: ...

    def all_alive(self) -> bool: ...

    def alive_array(self) -> np.ndarray: ...

    def all_healthy(self) -> bool: ...

    def healthy_array(self) -> np.ndarray: ...


@dataclass(frozen=True, slots=True)
class Route:
    """Outcome of a dispatch decision."""

    node_id: int
    #: True when the executing node differs from the accepting node, which
    #: costs one remote-CGI dispatch latency.
    remote: bool
    #: Additional dispatch latency beyond the standard network costs —
    #: e.g. a client round-trip for HTTP-redirection rescheduling.
    extra_latency: float = 0.0
    #: Execute this request instead of the submitted one (same identity,
    #: different demand) — used by the CGI cache to serve hits cheaply.
    substitute: Optional["Request"] = None


class Policy(abc.ABC):
    """Base class for dispatch policies."""

    #: When true (set by a traced cluster), :meth:`route` stashes its
    #: per-decision verdict in :attr:`last_decision` as ``(w, rsrc_cost,
    #: gate, effective_cap, master_fraction)`` — ``gate`` is ``None`` for
    #: policies/paths where the reservation cap does not apply.  Policies
    #: that never run the dynamic-dispatch path simply leave it ``None``.
    trace_decisions = False
    last_decision: Optional[tuple] = None

    def __init__(self, num_nodes: int, master_ids: Sequence[int],
                 seed: int = 0):
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        self.num_nodes = num_nodes
        # Not the virtual call: subclass extensions need state built later.
        Policy.set_masters(self, master_ids)
        self.rng = np.random.default_rng(seed)

    def is_master(self, node_id: int) -> bool:
        return node_id in self.master_ids

    @property
    def num_masters(self) -> int:
        return len(self._masters)

    def set_masters(self, master_ids: Iterable[int]) -> None:
        """Replace the master/slave role split mid-run (control plane).

        Only routing state changes: in-flight requests keep executing
        where they were dispatched (the cluster tracks them by request
        id, not by role), so a role transition is loss-free by
        construction.  Subclasses holding derived per-role state extend
        this.
        """
        ids = frozenset(int(i) for i in master_ids)
        if not ids:
            raise ValueError("at least one master/acceptor node is required")
        if not all(0 <= i < self.num_nodes for i in ids):
            raise ValueError("master ids out of range")
        self.master_ids = ids
        self._masters = np.array(sorted(ids), dtype=np.intp)
        self._slaves = np.array(
            sorted(set(range(self.num_nodes)) - ids), dtype=np.intp
        )

    @abc.abstractmethod
    def route(self, request: Request, view: LoadView) -> Route:
        """Choose the executing node for a request."""

    def on_complete(self, request: Request, response_time: float,
                    on_master: bool, node_id: int) -> None:
        """Completion feedback; default: ignore."""

    def on_abort(self, request: Request, node_id: int) -> None:
        """Forget in-flight bookkeeping for a request that will never
        complete (timeout, dead node).  Unlike :meth:`on_complete` this
        must not feed the response-time estimators — a failure elapsed
        time is not a service-time observation.  Default: ignore."""

    def _alive(self, view: LoadView, ids: np.ndarray) -> np.ndarray:
        """Restrict a candidate id array to in-service, trusted nodes.

        Nodes flagged *suspect* are excluded before formal crash
        detection removes them from membership.  If suspicion would empty
        the pool the plain alive set is used — a node with stale load data
        still beats refusing service.
        """
        if view.all_healthy():
            return ids
        pool = ids[view.alive_array()[ids]]
        if len(pool) == 0:
            return pool
        trusted = ids[view.healthy_array()[ids]]
        return trusted if len(trusted) else pool

    def _random_alive_master(self, view: LoadView) -> int:
        """An in-service accepting master; any alive node acts as master
        when the whole master tier is down (emergency promotion)."""
        masters = self._alive(view, self._masters)
        if len(masters) == 0:
            masters = self._alive(
                view, np.arange(self.num_nodes, dtype=np.intp))
            if len(masters) == 0:
                raise RuntimeError("no nodes in service")
        return int(masters[self.rng.integers(len(masters))])

    @property
    def name(self) -> str:
        return type(self).__name__


# -- flat architecture and switch baselines ------------------------------------------


class FlatPolicy(Policy):
    """Uniform random dispatch; every node serves every class locally.

    This is the paper's model of a DNS-rotation or switch-based cluster
    ("requests are randomly dispatched to nodes in the cluster with a
    uniform distribution").

    ``failure_aware`` distinguishes the two flat front ends the paper
    discusses: a load-balancing switch detects dead nodes sub-second and
    removes them from the pool (True); DNS rotation with client-side IP
    caching keeps sending traffic to dead nodes (False), costing those
    clients a retry timeout.
    """

    def __init__(self, num_nodes: int, seed: int = 0,
                 failure_aware: bool = True):
        super().__init__(num_nodes, range(num_nodes), seed)
        self.failure_aware = failure_aware
        self._all = np.arange(num_nodes, dtype=np.intp)

    def route(self, request: Request, view: LoadView) -> Route:
        pool = self._alive(view, self._all) if self.failure_aware \
            else self._all
        if len(pool) == 0:
            raise RuntimeError("no nodes in service")
        node = int(pool[self.rng.integers(len(pool))])
        return Route(node, remote=False)


class DNSAffinityPolicy(Policy):
    """DNS rotation with client-side IP caching.

    The paper's Section-1/2 model of the NCSA-style cluster: the DNS
    server hands out node IPs round-robin, but each *client* caches its
    answer and keeps hitting the same node for all of its requests.  Load
    balance is then only as good as the client mix — heavy clients pile
    onto single nodes, which is exactly why "research has demonstrated
    that DNS round-robin rotation does not evenly distribute the load".

    Requests without a client id (``client_id == -1``) fall back to
    per-request rotation (an uncached resolver).
    """

    def __init__(self, num_nodes: int, seed: int = 0):
        super().__init__(num_nodes, range(num_nodes), seed)
        self._next = 0
        self._bindings: dict[int, int] = {}
        self.failure_aware = False  # cached IPs ignore failures

    def route(self, request: Request, view: LoadView) -> Route:
        client = request.client_id
        if client < 0:
            node = self._next
            self._next = (self._next + 1) % self.num_nodes
            return Route(node, remote=False)
        node = self._bindings.get(client)
        if node is None:
            node = self._next
            self._next = (self._next + 1) % self.num_nodes
            self._bindings[client] = node
        return Route(node, remote=False)

    @property
    def distinct_bindings(self) -> int:
        return len(self._bindings)


class RoundRobinPolicy(Policy):
    """Strict cyclic dispatch (NCSA-style DNS rotation)."""

    def __init__(self, num_nodes: int, seed: int = 0,
                 failure_aware: bool = True):
        super().__init__(num_nodes, range(num_nodes), seed)
        self._next = 0
        self.failure_aware = failure_aware

    def route(self, request: Request, view: LoadView) -> Route:
        for _ in range(self.num_nodes):
            node = self._next
            self._next = (self._next + 1) % self.num_nodes
            if not self.failure_aware or view.is_alive(node):
                return Route(node, remote=False)
        raise RuntimeError("no nodes in service")


class LeastActivePolicy(Policy):
    """Send to the node with the fewest in-flight requests — the
    "least connections" scheme of a load-balancing switch."""

    def __init__(self, num_nodes: int, seed: int = 0):
        super().__init__(num_nodes, range(num_nodes), seed)

    def route(self, request: Request, view: LoadView) -> Route:
        pool = [i for i in range(self.num_nodes) if view.is_alive(i)]
        if not pool:
            raise RuntimeError("no nodes in service")
        counts = {i: view.active_requests(i) for i in pool}
        best = min(counts.values())
        ties = [i for i, c in counts.items() if c == best]
        node = ties[int(self.rng.integers(len(ties)))]
        return Route(node, remote=False)


# -- the master/slave scheduler and its ablations -----------------------------------


class MSPolicy(Policy):
    """The paper's optimized master/slave scheduler.

    * static requests are processed at a uniformly random master;
    * dynamic requests are placed on the minimum-RSRC node among the slaves
      plus — when the reservation gate admits — the masters;
    * the CPU weight ``w`` per request family comes from the offline
      :class:`DemandSampler` (Equation 5), defaulting to 0.5;
    * the reservation cap ``theta'_2`` adapts online from monitored ``a``
      and response-time-approximated ``r``.

    Ablations are expressed by the arguments (factories below):

    * ``sampler=None`` → **M/S-ns** (``w`` fixed at ``default_w``);
    * ``use_reservation=False`` → **M/S-nr** (masters always candidates);
    * ``num_masters == num_nodes`` → **M/S-1** (no slaves; flat + remote
      CGI with the same RSRC selection).

    :meth:`_route_dynamic` is the one dispatch body of the family; the
    variants below override three hooks instead: :meth:`_accept` (who
    accepts a request), :meth:`_candidates` (where a dynamic request may
    run) and :meth:`_capacity` (what an idle node is worth).
    """

    def __init__(self, num_nodes: int, num_masters: int,
                 sampler: Optional[DemandSampler] = None,
                 use_reservation: bool = True,
                 reservation_cfg: Optional[ReservationConfig] = None,
                 default_w: float = DEFAULT_W,
                 seed: int = 0):
        if not 1 <= num_masters <= num_nodes:
            raise ValueError(
                f"need 1 <= num_masters <= num_nodes; got {num_masters}"
            )
        super().__init__(num_nodes, range(num_masters), seed)
        self.sampler = sampler
        self.default_w = default_w
        self.use_reservation = use_reservation and num_masters < num_nodes
        self.reservation: Optional[ReservationController] = (
            ReservationController(num_masters, num_nodes, reservation_cfg)
            if self.use_reservation else None
        )
        # In-flight dynamic work per node, split by resource using each
        # request's sampled CPU weight.  A master performing remote CGI
        # execution knows what it has sent and not yet seen complete;
        # discounting the reported idle ratios by that outstanding work
        # avoids herding every request onto the node that looked idlest at
        # the last rstat() poll.
        self._outstanding_cpu = np.zeros(num_nodes)
        self._outstanding_disk = np.zeros(num_nodes)
        self._dispatched_w: dict[int, float] = {}

    # -- hooks ---------------------------------------------------------------

    def _accept(self, view: LoadView) -> int:
        """The node that accepts a request (and executes it if static)."""
        return self._random_alive_master(view)

    def _candidates(self, view: LoadView
                    ) -> Tuple[np.ndarray, Optional[bool]]:
        """In-service nodes a dynamic request may run on, and the
        reservation gate verdict (``None`` when the cap does not apply)."""
        slaves = self._alive(view, self._slaves)
        masters = self._alive(view, self._masters)
        if len(slaves) == 0:
            return masters, None
        gate = (None if self.reservation is None
                else self.reservation.admit_to_master())
        if gate is None or gate:
            return np.concatenate([slaves, masters]), gate
        return slaves, gate

    def _capacity(self, view: LoadView) -> Tuple[np.ndarray, np.ndarray]:
        """Per-node CPU and disk capacity, before the herding discount."""
        return view.cpu_idle_array(), view.disk_avail_array()

    # -- routing -------------------------------------------------------------

    def route(self, request: Request, view: LoadView) -> Route:
        if self.reservation is not None:
            self.reservation.observe_arrival(request.kind, view.now)
        accept = self._accept(view)
        if request.kind is RequestKind.STATIC:
            return Route(accept, remote=False)
        return self._route_dynamic(request, view, accept)

    def _route_dynamic(self, request: Request, view: LoadView,
                       accept: int) -> Route:
        candidates, gate = self._candidates(view)
        if len(candidates) == 0:
            # Emergency fallback: the reservation cap cannot be honoured
            # when the preferred tier is entirely out of service.
            gate = None
            candidates = self._alive(
                view, np.arange(self.num_nodes, dtype=np.intp))
            if len(candidates) == 0:
                raise RuntimeError("no nodes in service")
        w = (self.sampler.w(request.type_key) if self.sampler is not None
             else self.default_w)
        cpu, disk = self._capacity(view)
        eff_cpu = cpu * HERDING_DISCOUNT ** self._outstanding_cpu
        eff_disk = disk * HERDING_DISCOUNT ** self._outstanding_disk
        node = select_min_rsrc(w, eff_cpu, eff_disk, candidates, self.rng)
        res = self.reservation
        if self.trace_decisions:
            # Stashed before record_decision moves the admission EWMA, so
            # the gate state is the one this dispatch was gated on.
            self.last_decision = (
                w, rsrc_cost(w, float(eff_cpu[node]), float(eff_disk[node])),
                gate,
                None if res is None else res.effective_cap,
                None if res is None else res.master_fraction,
            )
        self._outstanding_cpu[node] += w
        self._outstanding_disk[node] += 1.0 - w
        self._dispatched_w[request.req_id] = w
        if res is not None:
            res.record_decision(self.is_master(node))
        return Route(node, remote=(node != accept))

    def on_abort(self, request: Request, node_id: int) -> None:
        """Release the request's outstanding-work discount (a completion
        releases it the same way before feeding the estimators)."""
        w = self._dispatched_w.pop(request.req_id, None)
        if w is not None:
            self._outstanding_cpu[node_id] = max(
                0.0, self._outstanding_cpu[node_id] - w)
            self._outstanding_disk[node_id] = max(
                0.0, self._outstanding_disk[node_id] - (1.0 - w))

    def on_complete(self, request: Request, response_time: float,
                    on_master: bool, node_id: int) -> None:
        self.on_abort(request, node_id)
        if self.reservation is not None:
            self.reservation.observe_response(request.kind, response_time)
        # Online refinement of the sampler from real executions keeps the
        # offline estimates fresh (harmless if already trained).
        if self.sampler is not None and request.is_dynamic:
            self.sampler.observe(request.type_key, request.cpu_demand,
                                 request.io_demand)

    @property
    def theta_cap(self) -> Optional[float]:
        """Current reservation cap, or ``None`` when reservation is off."""
        return self.reservation.theta_cap if self.reservation else None

    def set_masters(self, master_ids: Iterable[int]) -> None:
        """Role change plus reservation bookkeeping: the cap formula
        theta_2(a, r, m, p) depends on the master count, so the
        reservation controller's ``m`` follows the new split.  In-flight
        bookkeeping (``_outstanding_*``, ``_dispatched_w``) is keyed by
        node/request, not role, and is deliberately left alone."""
        super().set_masters(master_ids)
        if self.reservation is not None:
            self.reservation.m = self.num_masters


class FrontEndMSPolicy(MSPolicy):
    """The M/S scheduler as run by *one* accepting front end.

    :class:`MSPolicy` models the cluster's aggregate dispatch: it draws
    the accepting master uniformly per request ("static requests are
    processed at a random master").  A live deployment runs one policy
    instance inside each master process, and the accepting node is pinned
    by reality — whichever master's HTTP listener the request hit.  Static
    requests execute on the accepting node; dynamic requests follow the
    usual reservation-gated min-RSRC choice, with ``remote`` meaning "not
    this process" (one intra-cluster dispatch hop).

    Each front end carries its own reservation controller and sampler
    state, mirroring the paper's implementation where every master makes
    decisions from its own periodically-refreshed load view.
    """

    def __init__(self, num_nodes: int, num_masters: int, accept_node: int,
                 **kwargs):
        super().__init__(num_nodes, num_masters, **kwargs)
        if accept_node not in self.master_ids:
            raise ValueError(
                f"accept_node {accept_node} is not a master "
                f"(masters: {sorted(self.master_ids)})")
        self.accept_node = accept_node

    def set_masters(self, master_ids: Iterable[int]) -> None:
        """The accepting front end can never be demoted out from under
        its own HTTP listener — statics execute here by construction."""
        ids = frozenset(int(i) for i in master_ids)
        if self.accept_node not in ids:
            raise ValueError(
                f"accept_node {self.accept_node} must remain a master")
        super().set_masters(ids)

    def _accept(self, view: LoadView) -> int:
        return self.accept_node


class MSPrimePolicy(MSPolicy):
    """The M/S' alternative of Section 3: dynamic requests are pinned to a
    fixed subset of ``k`` nodes (min-RSRC within the subset), while static
    requests are spread uniformly over **all** nodes — every node is a
    master and there is no reservation cap."""

    def __init__(self, num_nodes: int, num_dynamic_nodes: int,
                 sampler: Optional[DemandSampler] = None,
                 default_w: float = DEFAULT_W, seed: int = 0):
        if not 1 <= num_dynamic_nodes <= num_nodes:
            raise ValueError("need 1 <= num_dynamic_nodes <= num_nodes")
        super().__init__(num_nodes, num_nodes, sampler=sampler,
                         default_w=default_w, seed=seed)
        self.dynamic_nodes = np.arange(num_dynamic_nodes, dtype=np.intp)

    def _candidates(self, view: LoadView
                    ) -> Tuple[np.ndarray, Optional[bool]]:
        return self._alive(view, self.dynamic_nodes), None

    def on_complete(self, request: Request, response_time: float,
                    on_master: bool, node_id: int) -> None:
        # M/S' keeps its offline sampler estimates (no online refinement).
        self.on_abort(request, node_id)


class HeteroMSPolicy(MSPolicy):
    """Speed-aware M/S for heterogeneous clusters.

    The paper notes that on non-uniform nodes "the relative speed in
    accessing CPU and disk I/O resource needs to be considered" (its
    adaptive-load-sharing companion work).  Two changes over the
    homogeneous scheduler:

    * **RSRC with relative speeds** — an idle fast node is worth more than
      an idle slow one, so Equation 5 becomes
      ``w/(s_cpu * CPUIdleRatio) + (1-w)/(s_disk * DiskAvailRatio)``;
    * **capacity-weighted static dispatch** — the accepting master is
      drawn proportionally to CPU speed rather than uniformly, keeping
      master utilisations equal across a mixed tier.
    """

    def __init__(self, num_nodes: int, num_masters: int,
                 cpu_speeds: Sequence[float],
                 disk_speeds: Optional[Sequence[float]] = None,
                 **kwargs):
        super().__init__(num_nodes, num_masters, **kwargs)
        cpu = np.asarray(cpu_speeds, dtype=float)
        if cpu.shape != (num_nodes,):
            raise ValueError("need one cpu speed per node")
        if (cpu <= 0).any():
            raise ValueError("cpu speeds must be positive")
        disk = (np.asarray(disk_speeds, dtype=float)
                if disk_speeds is not None else cpu.copy())
        if disk.shape != (num_nodes,):
            raise ValueError("need one disk speed per node")
        if (disk <= 0).any():
            raise ValueError("disk speeds must be positive")
        self.cpu_speeds = cpu
        self.disk_speeds = disk

    def _accept(self, view: LoadView) -> int:
        masters = self._alive(view, self._masters)
        if len(masters) == 0:
            return self._random_alive_master(view)
        weights = self.cpu_speeds[masters]
        idx = self.rng.choice(len(masters), p=weights / weights.sum())
        return int(masters[idx])

    def _capacity(self, view: LoadView) -> Tuple[np.ndarray, np.ndarray]:
        # Speed times available ratio: the effective capacity per resource.
        return (self.cpu_speeds * view.cpu_idle_array(),
                self.disk_speeds * view.disk_avail_array())


class RedirectMSPolicy(MSPolicy):
    """SWEB-style rescheduling by HTTP redirection.

    The authors' earlier SWEB system rebalanced load by sending the client
    an HTTP redirect to another server; the paper rejects that because "it
    adds client round-trip latency for every rescheduled request and also
    exposes IP addresses of server nodes".  This baseline quantifies the
    first objection: placement decisions are identical to M/S, but moving a
    request to a node other than its accepting master costs a full client
    round-trip instead of the 1 ms intra-cluster dispatch.
    """

    def __init__(self, num_nodes: int, num_masters: int,
                 client_rtt: float = 0.080, **kwargs):
        super().__init__(num_nodes, num_masters, **kwargs)
        if client_rtt < 0:
            raise ValueError("client_rtt must be >= 0")
        self.client_rtt = client_rtt
        self.redirects = 0

    def _route_dynamic(self, request: Request, view: LoadView,
                       accept: int) -> Route:
        route = super()._route_dynamic(request, view, accept)
        if route.remote:
            self.redirects += 1
            # The redirect replaces remote execution: the client reconnects
            # to the target directly (no intra-cluster hop), paying a WAN
            # round-trip on top.
            return Route(route.node_id, remote=False,
                         extra_latency=self.client_rtt,
                         substitute=route.substitute)
        return route


# -- factories matching the paper's names ----------------------------------------------


def make_ms(num_nodes: int, num_masters: int,
            sampler: Optional[DemandSampler] = None, seed: int = 0,
            reservation_cfg: Optional[ReservationConfig] = None) -> MSPolicy:
    """The full optimized scheduler ("M/S")."""
    return MSPolicy(num_nodes, num_masters, sampler=sampler,
                    reservation_cfg=reservation_cfg, seed=seed)


def make_ms_ns(num_nodes: int, num_masters: int, seed: int = 0,
               reservation_cfg: Optional[ReservationConfig] = None) -> MSPolicy:
    """M/S-ns: no demand sampling; ``w = 0.5`` for every request."""
    return MSPolicy(num_nodes, num_masters, sampler=None,
                    reservation_cfg=reservation_cfg, seed=seed)


def make_ms_nr(num_nodes: int, num_masters: int,
               sampler: Optional[DemandSampler] = None,
               seed: int = 0) -> MSPolicy:
    """M/S-nr: no reservation of master resources for static requests."""
    return MSPolicy(num_nodes, num_masters, sampler=sampler,
                    use_reservation=False, seed=seed)


def make_ms_1(num_nodes: int,
              sampler: Optional[DemandSampler] = None,
              seed: int = 0) -> MSPolicy:
    """M/S-1: every node is a master (separation ablation)."""
    return MSPolicy(num_nodes, num_nodes, sampler=sampler, seed=seed)


POLICY_NAMES = ("MS", "MS-ns", "MS-nr", "MS-1", "Flat", "MSPrime",
                "RoundRobin", "LeastActive", "Redirect", "DNS")


def make_policy(name: str, num_nodes: int, num_masters: int = 1,
                sampler: Optional[DemandSampler] = None,
                seed: int = 0) -> Policy:
    """Construct any policy by its paper name (see ``POLICY_NAMES``)."""
    key = name.lower()
    if key == "ms":
        return make_ms(num_nodes, num_masters, sampler, seed)
    if key == "ms-ns":
        return make_ms_ns(num_nodes, num_masters, seed)
    if key == "ms-nr":
        return make_ms_nr(num_nodes, num_masters, sampler, seed)
    if key == "ms-1":
        return make_ms_1(num_nodes, sampler, seed)
    if key == "flat":
        return FlatPolicy(num_nodes, seed)
    if key == "msprime":
        return MSPrimePolicy(num_nodes, num_masters, sampler, seed=seed)
    if key == "roundrobin":
        return RoundRobinPolicy(num_nodes, seed)
    if key == "leastactive":
        return LeastActivePolicy(num_nodes, seed)
    if key == "redirect":
        return RedirectMSPolicy(num_nodes, num_masters, sampler=sampler,
                                seed=seed)
    if key == "dns":
        return DNSAffinityPolicy(num_nodes, seed)
    raise ValueError(f"unknown policy {name!r}; known: {POLICY_NAMES}")
