"""Cluster assembly: nodes + load monitor + dispatch policy + metrics.

The cluster plays the role of the paper's front end (load-balancing switch
or DNS plus the master-level acceptors).  Every arriving request is routed
by the configured :class:`~repro.core.policies.Policy`; a request executed
on a node other than the one that accepted it pays the remote-CGI network
latency before admission.

Optional subsystems, both off by default so the seed behaviour is exact:

* a :class:`~repro.sim.failures.FailurePolicy` controls crash semantics
  (detection mode/delay, restart-vs-lose);
* a :class:`~repro.sim.resilience.ResilienceConfig` arms the end-to-end
  resilience layer (per-attempt deadlines, bounded retries with backoff,
  overload shedding, drop accounting).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from repro.core.policies import Policy, Route
from repro.obs.trace import (
    ABORT,
    ARRIVE,
    BG_ADMIT,
    COMPLETE,
    DENY,
    DISPATCH,
    LOST,
    NODE_DRAIN,
    NODE_FAIL,
    NODE_RECOVER,
    NODE_RETIRE,
    Tracer,
)
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.failures import FailurePolicy
from repro.sim.metrics import (
    AvailabilityReport,
    MetricsCollector,
    MetricsReport,
)
from repro.sim.monitor import LoadMonitor
from repro.sim.node import Node
from repro.sim.process import SimProcess
from repro.sim.resilience import ResilienceConfig, ResilienceManager
from repro.workload.request import Request


class ClusterView:
    """The load information a scheduler is allowed to see.

    Values come from the periodic :class:`LoadMonitor`, so they are stale by
    up to one monitoring period — as they would be when polling ``rstat()``.
    The *suspicion* flags are part of the view: nodes whose probes fail or
    whose samples are stale are excluded from candidate sets by policies
    before the crash is formally detected (see :meth:`healthy_array`).
    """

    __slots__ = ("_cluster",)

    def __init__(self, cluster: "Cluster"):
        self._cluster = cluster

    @property
    def num_nodes(self) -> int:
        return self._cluster.cfg.num_nodes

    @property
    def now(self) -> float:
        return self._cluster.engine.now

    def cpu_idle_array(self) -> np.ndarray:
        """Read-only snapshot array (do not mutate)."""
        return self._cluster.monitor.cpu_idle

    def disk_avail_array(self) -> np.ndarray:
        """Read-only snapshot array (do not mutate)."""
        return self._cluster.monitor.disk_avail

    def active_requests(self, node_id: int) -> int:
        """Instantaneous in-flight count — used only by baseline policies
        that model a connection-counting switch."""
        return self._cluster.nodes[node_id].active

    def is_alive(self, node_id: int) -> bool:
        return bool(self._cluster.alive[node_id])

    def all_alive(self) -> bool:
        """O(1) fast path: no node is out of service."""
        return self._cluster.alive_count == self._cluster.cfg.num_nodes

    def alive_array(self) -> np.ndarray:
        """Read-only membership snapshot (do not mutate)."""
        return self._cluster.alive

    # -- suspicion -------------------------------------------------------------

    def is_suspect(self, node_id: int) -> bool:
        return bool(self._cluster.monitor.suspect[node_id])

    def all_healthy(self) -> bool:
        """O(1) fast path: every node is in service and trusted."""
        return self.all_alive() and not self._cluster.monitor.any_suspect

    def healthy_array(self) -> np.ndarray:
        """In-service AND not-suspect membership (fresh array)."""
        return self._cluster.alive & ~self._cluster.monitor.suspect


class Cluster:
    """A simulated Web-server cluster with a pluggable dispatch policy.

    Optional failure semantics (crashes, recruitment) are controlled by a
    :class:`~repro.sim.failures.FailurePolicy`; by default all nodes are
    alive for the whole run and none of the failure paths fire.  Passing a
    :class:`~repro.sim.resilience.ResilienceConfig` arms deadlines, bounded
    retries, and overload shedding on the request path.
    """

    def __init__(self, cfg: SimConfig, policy: Policy,
                 failure_policy: Optional[FailurePolicy] = None,
                 resilience: Optional[ResilienceConfig] = None,
                 tracer: Optional[Tracer] = None):
        cfg.validate()
        if policy.num_nodes != cfg.num_nodes:
            raise ValueError(
                f"policy is sized for {policy.num_nodes} nodes but the "
                f"cluster has {cfg.num_nodes}"
            )
        self.cfg = cfg
        self.policy = policy
        self.engine = Engine()
        seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.num_nodes)
        self.nodes = [
            Node(self.engine, cfg, i, np.random.default_rng(seeds[i]),
                 self._on_complete)
            for i in range(cfg.num_nodes)
        ]
        self.monitor = LoadMonitor(self.engine, cfg.monitor, self.nodes)
        self.monitor.start()
        self.metrics = MetricsCollector()
        self.view = ClusterView(self)
        #: Route per in-flight request, keyed by req_id (a request may sit
        #: in a node's listen backlog before any process exists for it).
        self._routes: Dict[int, Route] = {}
        self._background_ids: set[int] = set()
        #: Bound callbacks cached once: the request path schedules these on
        #: every arrival/hop, and attribute access would otherwise build a
        #: fresh bound-method object per event.
        self._arrive_cb = self._arrive
        self._admit_cb = self._admit
        self.submitted = 0
        self.background_completed = 0
        self.failure_policy = failure_policy or FailurePolicy()
        self.failure_policy.validate()
        self.resilience: Optional[ResilienceManager] = (
            ResilienceManager(self, resilience)
            if resilience is not None else None
        )
        #: Membership: which nodes are currently in service.
        self.alive = np.ones(cfg.num_nodes, dtype=bool)
        self.alive_count = cfg.num_nodes
        #: Nodes draining gracefully: no new work, in-flight completes.
        self._draining: set[int] = set()
        self.restarted_requests = 0
        self.denied_attempts = 0
        #: Foreground requests lost outright (crash without restart and
        #: without a resilience layer to account the drop).
        self.lost_requests = 0
        #: Per-node accumulated out-of-service time (availability metrics).
        self.downtime = np.zeros(cfg.num_nodes)
        self._down_since: Dict[int, float] = {}
        #: Observability tap (``None`` keeps every hook a no-op).
        self.tracer = tracer
        if tracer is not None:
            tracer.bind(self.engine)
            self.engine.tracer = tracer
            for node in self.nodes:
                node._tracer = tracer
                node.cpu._tracer = tracer
                node.disk._tracer = tracer
            if self.resilience is not None:
                self.resilience._tracer = tracer
            # Policies stash their per-decision verdict (w, RSRC score,
            # reservation-gate state) only when asked to.
            self.policy.trace_decisions = True

    # -- submission ---------------------------------------------------------------

    def submit(self, request: Request) -> None:
        """Schedule one request's arrival."""
        self.engine.call_at(request.arrival_time, self._arrive_cb, request)
        self.submitted += 1

    def submit_many(self, requests: Iterable[Request]) -> int:
        """Schedule a whole trace.  Returns the number of requests queued.

        Batched through :meth:`Engine.call_at_many`: one C-level extend and
        a single deferred sort instead of one queue insertion per request.
        """
        arrive = self._arrive_cb
        n = self.engine.call_at_many(
            (req.arrival_time, arrive, (req,)) for req in requests)
        self.submitted += n
        return n

    # -- arrival / completion ---------------------------------------------------

    def _arrive(self, request: Request) -> None:
        mgr = self.resilience
        tr = self.tracer
        if tr is not None:
            tr.record(ARRIVE, request.req_id, -1,
                      (int(request.kind), request.demand))
            # A cache-hit route can bypass the dynamic-dispatch path, so a
            # stale verdict from the previous request must not leak into
            # this request's dispatch span.
            self.policy.last_decision = None
        if mgr is not None and not mgr.admit(request):
            return  # shed under overload
        try:
            route = self.policy.route(request, self.view)
        except RuntimeError:
            if mgr is not None:
                # Total blackout: back off and retry against the budget.
                mgr.handle_failure(request, "no_capacity")
                return
            raise
        if not 0 <= route.node_id < self.cfg.num_nodes:
            raise ValueError(
                f"policy routed request {request.req_id} to invalid node "
                f"{route.node_id}"
            )
        if tr is not None:
            ld = self.policy.last_decision
            tr.record(DISPATCH, request.req_id, route.node_id,
                      (route.remote, self.policy.is_master(route.node_id))
                      + (ld if ld is not None
                         else (None, None, None, None, None)))
        if (not self.alive[route.node_id]
                or self.nodes[route.node_id].failed):
            # A failure-unaware front end (DNS rotation with cached IPs) or
            # an undetected crash: the client's connection attempt fails.
            self.denied_attempts += 1
            if tr is not None:
                tr.record(DENY, request.req_id, route.node_id,
                          ("dead_node",))
            if mgr is not None:
                mgr.handle_failure(request, "dead_node")
            else:
                self.engine.call_later(
                    self.failure_policy.client_retry_timeout,
                    self._arrive_cb, request)
            return
        latency = self.cfg.network.frontend_latency + route.extra_latency
        if route.remote:
            latency += self.cfg.network.remote_cgi_latency
        if latency > 0.0:
            self.engine.call_later(latency, self._admit_cb, request, route,
                                   latency)
        else:
            self._admit(request, route, 0.0)

    def _admit(self, request: Request, route: Route, latency: float) -> None:
        if not self.alive[route.node_id] or self.nodes[route.node_id].failed:
            # The node died during the dispatch hop; re-route.
            if self.tracer is not None:
                self.tracer.record(DENY, request.req_id, route.node_id,
                                   ("dead_node",))
            if self.resilience is not None:
                self.resilience.handle_failure(request, "dead_node")
            else:
                self.engine.call_later(self.failure_policy.detection_delay,
                                       self._arrive_cb, request)
            return
        executed = route.substitute if route.substitute is not None \
            else request
        self._routes[executed.req_id] = route
        self.nodes[route.node_id].admit(executed, dispatch_latency=latency)
        if self.resilience is not None:
            self.resilience.on_admitted(request)

    # -- membership -----------------------------------------------------------

    def _mark_down(self, node_id: int) -> None:
        if self.alive[node_id]:
            self.alive[node_id] = False
            self.alive_count -= 1
        self._down_since.setdefault(node_id, self.engine.now)

    def _mark_up(self, node_id: int) -> None:
        since = self._down_since.pop(node_id, None)
        if since is not None:
            self.downtime[node_id] += self.engine.now - since
        if not self.alive[node_id]:
            self.alive_count += 1
        self.alive[node_id] = True

    def _detect_failure(self, node_id: int) -> None:
        """Deferred membership update of ``detection_mode='monitor'``."""
        if self.nodes[node_id].failed:
            self._mark_down(node_id)

    def fail_node(self, node_id: int) -> int:
        """Crash a node; restart its in-flight foreground requests
        elsewhere per the failure policy.  Returns the number of requests
        restarted.  Idempotent for already-dead nodes."""
        node = self.nodes[node_id]
        if node.failed:
            return 0
        self._draining.discard(node_id)
        if self.alive[node_id]:
            if (self.failure_policy.detection_mode == "monitor"
                    and self.failure_policy.detection_delay > 0):
                # The front end keeps routing to the corpse until detection;
                # only the suspicion layer can close this window earlier.
                self._down_since.setdefault(node_id, self.engine.now)
                self.engine.schedule(self.failure_policy.detection_delay,
                                     self._detect_failure, node_id)
            else:
                self._mark_down(node_id)
        aborted, queued = node.fail()
        tr = self.tracer
        if tr is not None:
            tr.record(NODE_FAIL, -1, node_id,
                      (len(aborted) + len(queued),))
        restarted = 0
        for request in [proc.request for proc in aborted] + queued:
            if request.req_id in self._background_ids:
                self._background_ids.discard(request.req_id)
                continue
            self._routes.pop(request.req_id, None)
            if tr is not None:
                tr.record(ABORT, request.req_id, node_id, ("crash",))
            if self.resilience is not None:
                if self.resilience.on_crash_abort(request):
                    restarted += 1
            elif self.failure_policy.restart_inflight:
                self.engine.call_later(self.failure_policy.detection_delay,
                                       self._arrive_cb, request)
                restarted += 1
            else:
                self.lost_requests += 1
                if tr is not None:
                    tr.record(LOST, request.req_id, node_id)
        self.restarted_requests += restarted
        return restarted

    def recover_node(self, node_id: int) -> None:
        """Bring a crashed, drained, or standby node (back) into service."""
        self.nodes[node_id].recover()
        self._draining.discard(node_id)
        self._mark_up(node_id)
        if self.tracer is not None:
            self.tracer.record(NODE_RECOVER, -1, node_id)

    def retire_node(self, node_id: int) -> None:
        """Take an idle node out of service without the crash semantics
        (used to initialise recruitment-pool standby nodes)."""
        if self.nodes[node_id].active:
            raise RuntimeError(
                f"node {node_id} has in-flight work; use fail_node")
        self.nodes[node_id].failed = True
        self._mark_down(node_id)
        if self.tracer is not None:
            self.tracer.record(NODE_RETIRE, -1, node_id)

    def drain_node(self, node_id: int) -> int:
        """Gracefully take a node out of service: stop routing new work to
        it, let in-flight and backlogged requests finish, then retire it.

        This is the non-destructive counterpart of :meth:`fail_node` for
        recruitment reclaims and planned maintenance.  Returns the number
        of requests still draining.  Idempotent for out-of-service nodes.
        """
        node = self.nodes[node_id]
        if node.failed or node_id in self._draining:
            return 0
        self._mark_down(node_id)
        if self.tracer is not None:
            self.tracer.record(NODE_DRAIN, -1, node_id,
                               (node.active + len(node.backlog),))
        if node.active == 0 and not node.backlog:
            node.failed = True
            return 0
        self._draining.add(node_id)
        return node.active + len(node.backlog)

    def _finish_drain(self, node_id: int) -> None:
        node = self.nodes[node_id]
        if node.active == 0 and not node.backlog:
            self._draining.discard(node_id)
            node.failed = True

    def admit_background(self, request: Request, node_id: int) -> SimProcess:
        """Run a request on a node *outside* the measured workload.

        Background jobs consume CPU, disk and memory like any process but
        are excluded from metrics and policy feedback.  The testbed
        emulator uses this to model the "background jobs running in the
        cluster" that the paper cites as the gap between its simulator and
        the real Sun cluster.
        """
        if not 0 <= node_id < self.cfg.num_nodes:
            raise ValueError(f"invalid node {node_id}")
        self._background_ids.add(request.req_id)
        if self.tracer is not None:
            # Marked before the node's admit span so the auditor can
            # exclude the request from foreground lifecycle checks.
            self.tracer.record(BG_ADMIT, request.req_id, node_id)
        return self.nodes[node_id].admit(request)

    def _on_complete(self, node: Node, proc: SimProcess) -> None:
        req_id = proc.request.req_id
        if node.node_id in self._draining:
            self._finish_drain(node.node_id)
        if req_id in self._background_ids:
            self._background_ids.discard(req_id)
            self.background_completed += 1
            return
        route = self._routes.pop(req_id)
        on_master = self.policy.is_master(proc.node_id)
        if self.tracer is not None:
            # Demand comes from the *executed* request (a cache hit
            # substitutes a cheaper body under the same id), matching what
            # the metrics collector records.
            self.tracer.record(COMPLETE, req_id, proc.node_id,
                               (proc.request.demand, route.remote,
                                on_master))
        self.metrics.record(proc, route.remote, on_master)
        response = proc.finish_time - proc.request.arrival_time
        if self.resilience is not None:
            self.resilience.on_complete(proc.request, response)
        self.policy.on_complete(proc.request, response, on_master,
                                proc.node_id)

    # -- running ------------------------------------------------------------------

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Run the event loop; see :meth:`Engine.run`."""
        return self.engine.run(until=until, max_events=max_events)

    def replay(self, requests: Iterable[Request], drain: float = 60.0,
               warmup: float = 0.0) -> MetricsReport:
        """Submit a trace, run it to completion, and summarise.

        Parameters
        ----------
        requests:
            The trace (arrival times must be non-decreasing is *not*
            required; the event heap orders them).
        drain:
            Extra virtual time allowed after the last arrival for queued
            work to finish.
        warmup:
            Passed through to :meth:`MetricsCollector.report`.
        """
        n = self.submit_many(requests)
        if n == 0:
            raise ValueError("empty trace")
        last_arrival = max(self.metrics_last_arrival(), 0.0)
        deadline = last_arrival + drain
        self.run(until=deadline)
        # Under heavy load queues may still be draining: extend, bounded.
        extensions = 0
        while any(node.active for node in self.nodes) and extensions < 20:
            deadline += drain
            self.run(until=deadline)
            extensions += 1
        return self.metrics.report(warmup=warmup)

    def metrics_last_arrival(self) -> float:
        """Latest scheduled arrival time (for drain sizing)."""
        arrive = self._arrive_cb
        times = [t for t, fn in self.engine.iter_pending() if fn == arrive]
        return max(times) if times else self.engine.now

    # -- availability accounting ---------------------------------------------------

    def pending_requests(self) -> int:
        """Foreground requests scheduled but not yet on a node: future
        arrivals, dispatch hops in flight, and backoff retries."""
        fns = {self._arrive_cb, self._admit_cb}
        if self.resilience is not None:
            fns.add(self.resilience._retry)
        return sum(1 for _, fn in self.engine.iter_pending() if fn in fns)

    def conservation(self) -> Dict[str, int]:
        """Account for every submitted request (the no-loss invariant).

        ``balance`` is ``submitted - completed - dropped - lost - in_flight
        - pending`` and must be zero at any virtual time: a request is
        either done, accounted as failed, on a node, or in an event that
        will deliver it.
        """
        mgr = self.resilience
        completed = len(self.metrics)
        dropped = mgr.total_dropped if mgr is not None else 0
        in_flight = len(self._routes)
        pending = self.pending_requests()
        return {
            "submitted": self.submitted,
            "completed": completed,
            "dropped": dropped,
            "lost": self.lost_requests,
            "in_flight": in_flight,
            "pending": pending,
            "balance": (self.submitted - completed - dropped
                        - self.lost_requests - in_flight - pending),
        }

    def assert_conservation(self) -> None:
        """Raise ``AssertionError`` if any request is unaccounted for."""
        ledger = self.conservation()
        if ledger["balance"] != 0:
            raise AssertionError(f"request conservation violated: {ledger}")

    def unavailability(self, horizon: Optional[float] = None) -> np.ndarray:
        """Per-node fraction of ``[0, horizon]`` spent out of service."""
        horizon = self.engine.now if horizon is None else horizon
        if horizon <= 0:
            return np.zeros(self.cfg.num_nodes)
        down = self.downtime.copy()
        for node_id, since in self._down_since.items():
            down[node_id] += max(0.0, min(self.engine.now, horizon) - since)
        return np.clip(down / horizon, 0.0, 1.0)

    def availability(self, horizon: Optional[float] = None,
                     slo_stretch: Optional[float] = None) -> AvailabilityReport:
        """Summarise goodput, drops, retries, and unavailability.

        Works with or without the resilience layer, so seed-behaviour and
        resilient clusters can be compared on identical metrics.
        """
        mgr = self.resilience
        if slo_stretch is None:
            slo_stretch = mgr.cfg.slo_stretch if mgr is not None else 30.0
        horizon = self.engine.now if horizon is None else horizon
        report = AvailabilityReport.from_cluster(
            self, horizon=horizon, slo_stretch=slo_stretch)
        return report
