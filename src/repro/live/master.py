"""The live master: HTTP front end running the paper's scheduler for real.

A :class:`MasterServer` is one accepting node of the cluster.  It glues
together, on a single asyncio event loop:

* an HTTP/1.1 listener (``GET /req``) where clients submit requests;
* the *simulator's own* dispatch policy —
  :class:`~repro.core.policies.FrontEndMSPolicy`, reservation controller
  and demand sampler included — fed by a :class:`~repro.live.loadd
  .LiveLoadView` over the UDP heartbeat table;
* a local :class:`~repro.live.node.WorkerPool` executing requests the
  policy keeps on this master (static always; dynamic when the theta'_2
  gate admits and this master wins the RSRC comparison);
* one persistent framed-TCP :class:`PeerConnection` per remote node for
  low-overhead remote CGI ("a persistent connection between two nodes is
  kept alive ... to minimize the communication overhead");
* an optional :class:`~repro.obs.Tracer` bound to the master's
  :class:`~repro.live.kernel.LiveClock`, emitting the same span stream the
  simulator emits, so ``repro trace --audit`` proves the same invariants
  over live traffic.

Span discipline
---------------
Every span is recorded on the event-loop thread, reading the monotonic
clock at append time, so the stream satisfies the auditor's causality
check by construction.  Remote lifecycle spans (``admit``/``start``) are
recorded when the peer's frames arrive; TCP ordering guarantees they
precede the ``done`` that resolves the awaiting handler.  Failure paths
mirror the simulator: a request refused before admission records
``deny`` + ``drop``; one abandoned after admission (peer death, timeout)
records ``abort`` + ``drop`` and unwinds the policy's in-flight
bookkeeping through :meth:`~repro.core.policies.Policy.on_abort` without
feeding the response-time estimators.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.core.policies import FrontEndMSPolicy, Route
from repro.core.sampling import DemandSampler
from repro.core.reservation import ReservationConfig
from repro.core.stretch import stretch_factor
from repro.live import protocol
from repro.live.kernel import BusyMeter, LiveClock, calibrate
from repro.live.loadd import (
    LiveLoadView,
    LoadReporter,
    LoadTable,
    open_heartbeat_endpoint,
)
from repro.live.node import CGIService, WorkerPool
from repro.obs.trace import (
    ABORT,
    ADMIT,
    ARRIVE,
    COMPLETE,
    CONTROL,
    DENY,
    DISPATCH,
    DROP,
    START,
    Tracer,
    iter_jsonl,
)
from repro.sim.config import MonitorConfig
from repro.workload.request import Request, RequestKind


class PeerError(ConnectionError):
    """A remote-CGI call failed (connection lost or peer-reported error)."""


class RemoteCall:
    """One in-flight remote-CGI request on a peer connection."""

    __slots__ = ("req_id", "future", "admitted", "started")

    def __init__(self, req_id: int) -> None:
        self.req_id = req_id
        self.future: asyncio.Future = (
            asyncio.get_running_loop().create_future())
        self.admitted = False
        self.started = False


class PeerConnection:
    """Persistent framed-TCP channel from a master to one executing node.

    The reader task translates the peer's lifecycle frames into span
    records on the master's tracer and resolves the per-request futures
    the dispatching coroutines await.  A broken connection fails every
    outstanding call and marks the node dead in the load table until
    :meth:`connect` succeeds again.
    """

    def __init__(self, master: "MasterServer", node_id: int,
                 host: str, port: int) -> None:
        self.master = master
        self.node_id = node_id
        self.host = host
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.pending: Dict[int, RemoteCall] = {}
        self._reader_task: Optional[asyncio.Task] = None
        self.submitted = 0
        self.completed = 0

    @property
    def connected(self) -> bool:
        return self.writer is not None

    async def connect(self) -> None:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        protocol.send_message(writer, protocol.hello(self.master.node_id))
        await writer.drain()
        await protocol.expect_hello(reader)
        self.reader, self.writer = reader, writer
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop(), name=f"peer-{self.node_id}")
        self.master.table.mark_alive(self.node_id)

    def submit(self, request: Request) -> RemoteCall:
        """Ship one dynamic request; returns the call to await."""
        if self.writer is None:
            raise PeerError(f"node {self.node_id} not connected")
        call = RemoteCall(request.req_id)
        self.pending[request.req_id] = call
        protocol.send_message(self.writer, {
            "op": "cgi", "id": request.req_id,
            "cpu": request.cpu_demand, "io": request.io_demand,
        })
        self.submitted += 1
        return call

    def forget(self, req_id: int) -> None:
        """Stop tracking a call (timeout path): late frames are ignored."""
        self.pending.pop(req_id, None)

    async def _read_loop(self) -> None:
        master = self.master
        try:
            while True:
                assert self.reader is not None
                msg = await protocol.read_message(self.reader)
                if msg is None:
                    break
                op = msg.get("op")
                if op == "role_ok":
                    # Control-plane ROLE frame acknowledged by the node
                    # (not request-scoped, so handled before the
                    # per-request call lookup).
                    master._on_role_ack(self.node_id, msg)
                    continue
                call = self.pending.get(msg.get("id", -1))
                if call is None:
                    continue
                if op == "admit":
                    call.admitted = True
                    master._record(ADMIT, call.req_id, self.node_id,
                                   (False,))
                elif op == "start":
                    call.started = True
                    master._record(START, call.req_id, self.node_id, (1,))
                elif op == "done":
                    self.pending.pop(call.req_id, None)
                    self.completed += 1
                    if not call.future.done():
                        call.future.set_result(
                            (float(msg.get("cpu", 0.0)),
                             float(msg.get("io", 0.0))))
                elif op == "error":
                    self.pending.pop(call.req_id, None)
                    if not call.future.done():
                        call.future.set_exception(
                            PeerError(str(msg.get("reason", "peer error"))))
        except (protocol.ProtocolError, ConnectionResetError):
            pass
        finally:
            self.writer = None
            self.reader = None
            master.table.mark_dead(self.node_id)
            for call in list(self.pending.values()):
                if not call.future.done():
                    call.future.set_exception(
                        PeerError(f"connection to node {self.node_id} lost"))
            self.pending.clear()

    async def close(self) -> None:
        writer = self.writer
        self.writer = None
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            self._reader_task = None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


class LiveMetrics:
    """Per-request accounting mirroring the simulator's collector."""

    def __init__(self) -> None:
        #: (req_id, kind, response, demand, remote, on_master)
        self.records: List[Tuple[int, int, float, float, bool, bool]] = []
        #: Measured (cpu, io) seconds per record, same indexing as
        #: :attr:`records`; the control plane's workload estimator reads
        #: the CPU/disk split from here.
        self.splits: List[Tuple[float, float]] = []
        self.denied = 0
        self.aborted = 0

    def observe(self, request: Request, response: float,
                remote: bool, on_master: bool,
                cpu: float = 0.0, io: float = 0.0) -> None:
        self.records.append((request.req_id, int(request.kind), response,
                             request.demand, remote, on_master))
        if cpu <= 0.0 and io <= 0.0:
            # No measurement reported: fall back to the request's nominal
            # demand split so estimator ratios stay meaningful.
            cpu, io = request.cpu_demand, request.io_demand
        self.splits.append((cpu, io))

    def __len__(self) -> int:
        return len(self.records)

    def report(self) -> dict:
        """Counts, mean response, and stretch overall and per class."""
        out: dict = {
            "count": len(self.records),
            "denied": self.denied,
            "aborted": self.aborted,
            "remote": sum(1 for r in self.records if r[4]),
            "dynamic_on_master": sum(
                1 for r in self.records
                if r[1] == int(RequestKind.DYNAMIC) and r[5]),
        }
        for label, kind in (("overall", None),
                            ("static", int(RequestKind.STATIC)),
                            ("dynamic", int(RequestKind.DYNAMIC))):
            sel = [r for r in self.records
                   if kind is None or r[1] == kind]
            if sel:
                resp = [r[2] for r in sel]
                dem = [r[3] for r in sel]
                out[label] = {
                    "count": len(sel),
                    "mean_response": sum(resp) / len(sel),
                    "stretch": stretch_factor(resp, dem),
                }
            else:
                out[label] = {"count": 0, "mean_response": 0.0,
                              "stretch": 0.0}
        return out


_HTTP_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
                 431: "Request Header Fields Too Large",
                 503: "Service Unavailable"}


class MasterServer:
    """One live accepting node: HTTP in, scheduled execution out."""

    def __init__(self, node_id: int, num_nodes: int, num_masters: int = 1,
                 workers: int = 2,
                 monitor: Optional[MonitorConfig] = None,
                 reservation_cfg: Optional[ReservationConfig] = None,
                 sampler: Optional[DemandSampler] = None,
                 default_w: float = 0.5,
                 seed: int = 0,
                 request_timeout: float = 30.0,
                 host: str = "127.0.0.1",
                 traced: bool = True) -> None:
        if not 0 <= node_id < num_masters:
            raise ValueError("the master's node_id must be a master id")
        self.node_id = node_id
        self.num_nodes = num_nodes
        self.host = host
        self.request_timeout = request_timeout
        self.clock = LiveClock()
        self.monitor = monitor or MonitorConfig()
        self.table = LoadTable(num_nodes, self.monitor)
        self.view = LiveLoadView(self.table, self.clock)
        self.policy = FrontEndMSPolicy(
            num_nodes, num_masters, accept_node=node_id,
            sampler=sampler if sampler is not None else DemandSampler(
                default_w=default_w),
            reservation_cfg=reservation_cfg,
            default_w=default_w, seed=seed)
        self.tracer: Optional[Tracer] = Tracer(self.clock) if traced else None
        if self.tracer is not None:
            self.policy.trace_decisions = True
        self.meter = BusyMeter(capacity=workers, now=self.clock.now)
        self.pool = WorkerPool(node_id, workers, self.meter)
        self.cgi_service = CGIService(node_id, self.pool, host=host)
        self.peers: Dict[int, PeerConnection] = {}
        self.metrics = LiveMetrics()
        self.arrived = 0
        self.completed = 0
        self.dropped = 0
        #: (node_id, role) pairs for acknowledged control-plane ROLE frames.
        self.role_acks: List[Tuple[int, str]] = []
        self.http_connections = 0
        self.http_port: Optional[int] = None
        self.udp_port: Optional[int] = None
        self.cgi_port: Optional[int] = None
        self._udp_transport = None
        self._http_server: Optional[asyncio.base_events.Server] = None
        self._reporter: Optional[LoadReporter] = None

    # -- lifecycle --------------------------------------------------------

    async def start(self, peer_udp_ports: Tuple[Tuple[str, int], ...] = ()
                    ) -> None:
        """Bind every endpoint (UDP heartbeats, CGI peer port, HTTP)."""
        calibrate()
        self._udp_transport, self.udp_port = await open_heartbeat_endpoint(
            self.table, self.clock, host=self.host)
        self.cgi_port = await self.cgi_service.start()
        self._http_server = await asyncio.start_server(
            self._handle_http, self.host, 0)
        self.http_port = self._http_server.sockets[0].getsockname()[1]
        # The master's own load reaches its table by direct call (and its
        # peer masters' tables over UDP, like any other node's heartbeat).
        self._reporter = LoadReporter(
            self.node_id, self.meter, self.clock,
            udp_targets=peer_udp_ports,
            local_observe=lambda payload: self.table.observe_datagram(
                payload, self.clock.now),
            cfg=self.monitor)
        await self._reporter.start()
        self._reporter.beat_once(self.clock.now)

    async def connect_peer(self, node_id: int, host: str, port: int) -> None:
        """Open (or re-open) the persistent CGI channel to one node."""
        peer = PeerConnection(self, node_id, host, port)
        await peer.connect()
        old = self.peers.get(node_id)
        self.peers[node_id] = peer
        if old is not None:
            await old.close()

    async def wait_healthy(self, timeout: float = 10.0) -> None:
        """Block until every node is connected, heard, and off probation."""
        deadline = self.clock.now + timeout
        while self.clock.now < deadline:
            if self.view.all_healthy():
                return
            await asyncio.sleep(0.05)
        suspect = [i for i in range(self.num_nodes)
                   if self.view.is_suspect(i)]
        raise TimeoutError(
            f"cluster did not become healthy within {timeout}s "
            f"(suspect nodes: {suspect}, dead: "
            f"{list(map(int, self.table.dead.nonzero()[0]))})")

    async def stop(self) -> None:
        for peer in list(self.peers.values()):
            await peer.close()
        self.peers.clear()
        if self._http_server is not None:
            self._http_server.close()
            await self._http_server.wait_closed()
            self._http_server = None
        if self._reporter is not None:
            await self._reporter.stop()
            self._reporter = None
        await self.cgi_service.stop()
        if self._udp_transport is not None:
            self._udp_transport.close()
            self._udp_transport = None
        self.pool.shutdown()

    # -- span + ledger helpers --------------------------------------------

    def _record(self, kind: str, req_id: int, node_id: int,
                data: Optional[tuple] = None) -> None:
        if self.tracer is not None:
            self.tracer.record(kind, req_id, node_id, data)

    def _on_role_ack(self, node_id: int, msg: dict) -> None:
        """A node acknowledged a control-plane ROLE frame."""
        self.role_acks.append((node_id, str(msg.get("role", ""))))
        self._record(CONTROL, -1, node_id,
                     ("role_ack", node_id, str(msg.get("role", "")),
                      int(msg.get("seq", 0))))

    def conservation(self) -> Dict[str, int]:
        """The live ledger, in the simulator's shape (for ``audit_spans``)."""
        in_flight = self.arrived - self.completed - self.dropped
        return {
            "submitted": self.arrived,
            "completed": self.completed,
            "dropped": self.dropped,
            "lost": 0,
            "in_flight": in_flight,
            "pending": 0,
            "balance": 0,
        }

    def stats(self) -> dict:
        res = self.policy.reservation
        return {
            "node": self.node_id,
            "now": self.clock.now,
            "conservation": self.conservation(),
            "metrics": self.metrics.report(),
            "spans": len(self.tracer.spans) if self.tracer else 0,
            "heartbeats": self.table.heartbeats,
            "heartbeats_rejected": self.table.rejected,
            "cpu_idle": [float(x) for x in self.table.cpu_idle],
            "disk_avail": [float(x) for x in self.table.disk_avail],
            "suspect": [bool(x)
                        for x in self.table.suspect_array(self.clock.now)],
            "reservation": None if res is None else {
                "effective_cap": res.effective_cap,
                "master_fraction": res.master_fraction,
            },
            "peers": {str(nid): {"connected": peer.connected,
                                 "submitted": peer.submitted,
                                 "completed": peer.completed}
                      for nid, peer in self.peers.items()},
            "pool_completed": self.pool.completed,
        }

    # -- the request path --------------------------------------------------

    async def serve_request(self, request: Request) -> dict:
        """Accept, schedule, and execute one request; returns the result
        payload (also usable directly, without HTTP, from tests)."""
        t_arrive = self.clock.now
        self.arrived += 1
        self._record(ARRIVE, request.req_id, -1,
                     (int(request.kind), request.demand))
        self.policy.last_decision = None
        try:
            route = self.policy.route(request, self.view)
        except RuntimeError as exc:
            return self._deny(request, -1, f"no-route: {exc}")
        node = route.node_id
        self._record(
            DISPATCH, request.req_id, node,
            (route.remote, self.policy.is_master(node))
            + (self.policy.last_decision or (None,) * 5))
        if node == self.node_id:
            return await self._execute_local(request, route, t_arrive)
        return await self._execute_remote(request, route, t_arrive)

    def _deny(self, request: Request, node: int, reason: str) -> dict:
        """Pre-admission refusal: ``deny`` then ``drop`` (simulator idiom)."""
        self._record(DENY, request.req_id, node, (reason,))
        self._record(DROP, request.req_id, node, (reason,))
        self.dropped += 1
        self.metrics.denied += 1
        return {"status": "denied", "id": request.req_id, "reason": reason}

    def _abort(self, request: Request, node: int, reason: str) -> dict:
        """Post-admission failure: ``abort`` + ``drop``, policy unwound."""
        self._record(ABORT, request.req_id, node, (reason,))
        self._record(DROP, request.req_id, node, (reason,))
        self.dropped += 1
        self.metrics.aborted += 1
        self.policy.on_abort(request, node)
        return {"status": "aborted", "id": request.req_id, "reason": reason}

    async def _execute_local(self, request: Request, route: Route,
                             t_arrive: float) -> dict:
        node = self.node_id
        backlogged = self.pool.semaphore.locked()
        self._record(ADMIT, request.req_id, node, (backlogged,))

        def on_start() -> None:
            self._record(START, request.req_id, node, (1,))

        cpu_used, io_used = await self.pool.run(
            request.cpu_demand, request.io_demand, on_start=on_start)
        return self._complete(request, route, t_arrive, cpu_used, io_used)

    async def _execute_remote(self, request: Request, route: Route,
                              t_arrive: float) -> dict:
        node = route.node_id
        peer = self.peers.get(node)
        if peer is None or not peer.connected:
            self.policy.on_abort(request, node)   # unwind _dispatched_w
            return self._deny(request, node, "peer-unavailable")
        try:
            call = peer.submit(request)
        except PeerError:
            self.policy.on_abort(request, node)
            return self._deny(request, node, "peer-unavailable")
        try:
            cpu_used, io_used = await asyncio.wait_for(
                call.future, timeout=self.request_timeout)
        except (PeerError, asyncio.TimeoutError) as exc:
            peer.forget(request.req_id)
            reason = ("timeout" if isinstance(exc, asyncio.TimeoutError)
                      else str(exc))
            if call.admitted or call.started:
                return self._abort(request, node, reason)
            self.policy.on_abort(request, node)
            return self._deny(request, node, reason)
        return self._complete(request, route, t_arrive, cpu_used, io_used)

    def _complete(self, request: Request, route: Route, t_arrive: float,
                  cpu_used: float, io_used: float) -> dict:
        node = route.node_id
        on_master = self.policy.is_master(node)
        self._record(COMPLETE, request.req_id, node,
                     (request.demand, route.remote, on_master))
        response = self.clock.now - t_arrive
        self.completed += 1
        self.policy.on_complete(request, response, on_master, node)
        self.metrics.observe(request, response, route.remote, on_master,
                             cpu=cpu_used, io=io_used)
        return {
            "status": "ok", "id": request.req_id, "node": node,
            "remote": route.remote, "on_master": on_master,
            "response": response, "demand": request.demand,
            "cpu": cpu_used, "io": io_used,
        }

    # -- HTTP front end ----------------------------------------------------

    async def _handle_http(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        self.http_connections += 1
        try:
            while True:
                # readuntil, not readline: a line past the stream limit
                # (64 KiB) raises LimitOverrunError, answered with a 431.
                line = await reader.readuntil(b"\n")
                if line in (b"\r\n", b"\n"):
                    break
                try:
                    method, target, _version = (
                        line.decode("latin-1").split(None, 2))
                except ValueError:
                    await self._respond(writer, 400,
                                        {"error": "bad request line"})
                    break
                close = False
                while True:         # drain headers
                    header = await reader.readuntil(b"\n")
                    if header in (b"\r\n", b"\n"):
                        break
                    if header.lower().startswith(b"connection:") \
                            and b"close" in header.lower():
                        close = True
                if method.upper() != "GET":
                    await self._respond(writer, 400,
                                        {"error": "GET only"})
                    break
                status, payload, raw = await self._dispatch_http(target)
                await self._respond(writer, status, payload, raw=raw)
                if close:
                    break
        except asyncio.LimitOverrunError:
            try:
                await self._respond(writer, 431,
                                    {"error": "header line too long"})
            except ConnectionError:
                pass
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch_http(self, target: str):
        """Route one HTTP target; returns (status, json_payload, raw_text)."""
        parts = urlsplit(target)
        path = parts.path
        if path == "/healthz":
            return 200, {"status": "ok", "node": self.node_id}, None
        if path == "/control/stats":
            return 200, self.stats(), None
        if path == "/control/spans":
            if self.tracer is None:
                return 404, {"error": "tracing disabled"}, None
            body = "\n".join(iter_jsonl(
                self.tracer.spans,
                meta={"source": "repro.live", "node": self.node_id,
                      "conservation": self.conservation()})) + "\n"
            return 200, None, body
        if path == "/req":
            try:
                request = self._parse_request(parse_qs(parts.query))
            except (KeyError, ValueError, TypeError) as exc:
                return 400, {"error": f"bad request params: {exc}"}, None
            result = await self.serve_request(request)
            status = 200 if result.get("status") == "ok" else 503
            return status, result, None
        return 404, {"error": f"unknown path {path!r}"}, None

    def _parse_request(self, params: Dict[str, list]) -> Request:
        def one(key: str, default: Optional[str] = None) -> str:
            vals = params.get(key)
            if not vals:
                if default is None:
                    raise KeyError(key)
                return default
            return vals[0]

        kind_raw = one("kind", "static").lower()
        kind = (RequestKind.DYNAMIC if kind_raw in ("1", "dynamic", "cgi")
                else RequestKind.STATIC)
        return Request(
            req_id=int(one("id")),
            arrival_time=self.clock.now,
            kind=kind,
            cpu_demand=float(one("cpu", "0")),
            io_demand=float(one("io", "0")),
            type_key=one("type", "static" if kind is RequestKind.STATIC
                         else "cgi:balanced"),
        )

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: Optional[dict],
                       raw: Optional[str] = None) -> None:
        body = (raw if raw is not None
                else json.dumps(payload, separators=(",", ":"))).encode()
        ctype = "text/plain" if raw is not None else "application/json"
        head = (f"HTTP/1.1 {status} {_HTTP_REASONS.get(status, 'OK')}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: keep-alive\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()
