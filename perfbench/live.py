"""Live workload: a loopback :class:`repro.live.cluster.LiveCluster`
(1 in-process master, 2 slave subprocesses) driven over HTTP by the
benchmark's own load generator (``perfbench/loadgen.py``) in a separate
process.

The master, the slaves and the load generator share one CPU
(:attr:`LivePoint.cpus`).  The requests come from
``make_validation_trace("ADL", mu_h=100000, inv_r=12)``: static demand
about 10 us, CGI about 120 us, 44% CGI, so the per-request path rather
than the demand bounds throughput.  A run has
a discarded closed-loop warm-up, then rounds of three segments:

* saturation: closed loop, every connection always busy -> ``req_per_s``;
* single: closed loop on one connection, so one request is in the
  cluster at a time and the CPU does not idle between requests; latency
  timed from send to response -> ``latency_p50_ms``, ``stretch``;
* fixed rate: open loop at :attr:`LivePoint.fixed_rate` (Poisson
  arrivals from the trace), latency timed from each request's due time
  -> ``slo_ratio`` (and, in the traced run, ``latency_open_p50_ms`` and
  ``latency_p99_ms``).

The median latency and the stretch come from the single segment, not the
fixed-rate one, because at 200 req/s the CPU idles between requests and,
on a shared 2-vCPU VM, more than half of each request's due-to-response
time was the wake-up from idle: 1.32 ms open-loop against 0.56 ms on one
busy connection, same boots.  That part follows the host's other
tenants: in a busy host period the open-loop median spread across runs
about three times as much as the single-connection one.

``setup_s`` is the median of :attr:`LivePoint.boots` cluster boots
(construction plus ``start()`` until healthy).

The traced run boots once untraced (the base rate of
``obs.trace_overhead``), then once with the master's span tracer on and
the benchmark's timing wrappers installed, and replays the same requests,
half a timed run's worth, on each; the traced master's spans must pass
:func:`repro.obs.audit_spans`.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from perfbench.common import (
    CheckFailed,
    check,
    layer_names,
    median,
    patched,
    peak_rss_mb,
    percentile,
    require,
)

LOADGEN = Path(__file__).resolve().parent / "loadgen.py"

#: Upper bound on the saturation rate, used to size the request supply
#: of the closed loop (it fails a check if it runs dry).
SUPPLY_RATE = 6000.0

DEFAULT_SEED = 0


@dataclass(frozen=True)
class LivePoint:
    """Shape of the live workload; the seed picks the requests."""

    trace: str = "ADL"
    mu_h: float = 100000.0
    inv_r: float = 12.0
    num_slaves: int = 2
    #: Keep-alive client connections, fixed so the offered load does not
    #: depend on the host's core count.
    connections: int = 2
    fixed_rate: float = 200.0
    #: Discarded closed-loop prefix of the run, seconds.
    warmup_s: float = 0.5
    #: Rounds of saturation, single and fixed-rate segments; metrics are
    #: medians over them, so a short stall of the host moves one round,
    #: not the result.
    rounds: int = 10
    #: Shares of each round given to the saturation and single segments;
    #: the fixed-rate segment has the rest.
    saturation_share: float = 0.35
    single_share: float = 0.35
    #: A request answered within this many ms of its due time meets the SLO.
    slo_ms: float = 10.0
    #: Cluster boots per timed run (``setup_s`` is their median).
    boots: int = 3
    #: CPUs the cluster and the load generator share.  On one CPU no
    #: wake-up crosses CPUs and the saturation rate is the request path's
    #: CPU cost; unpinned on a 2-vCPU VM it spread by about 30% between
    #: runs, mostly from cross-CPU wake-up latency.
    cpus: int = 1

    def params(self) -> dict:
        return asdict(self)

    def segment_seconds(self, seconds: float
                        ) -> Tuple[float, float, float]:
        """Measured ``(saturation, single, fixed-rate)`` seconds of one
        round."""
        per_round = seconds / self.rounds
        sat = per_round * self.saturation_share
        single = per_round * self.single_share
        return sat, single, per_round - sat - single


WORKLOADS: Dict[str, LivePoint] = {"live-adl-1m2s": LivePoint()}


# -- inputs -------------------------------------------------------------------


@dataclass
class Inputs:
    """The generated requests of a run, with distinct ids.

    ``fixed[k]`` arrival times are due offsets from the start of round
    ``k``'s fixed-rate segment.
    """

    warmup: list
    saturation: List[list]
    single: List[list]
    fixed: List[list]
    sat_seconds: float
    single_seconds: float
    fixed_seconds: float

    def job(self, host: str, port: int, point: LivePoint) -> dict:
        from repro.live.loadgen import request_target

        def closed(batch: list, seconds: float, **extra) -> dict:
            return {"mode": "closed", "seconds": seconds,
                    "targets": [request_target(q) for q in batch], **extra}

        phases = [closed(self.warmup, point.warmup_s)]
        for sat, single, fixed in zip(self.saturation, self.single,
                                      self.fixed):
            phases.append(closed(sat, self.sat_seconds))
            phases.append(closed(single, self.single_seconds, connections=1))
            phases.append({"mode": "open",
                           "due": [q.arrival_time for q in fixed],
                           "targets": [request_target(q) for q in fixed]})
        return {"host": host, "port": port,
                "connections": point.connections, "phases": phases}


def _windows(trace: list, edges: Sequence[float]) -> List[list]:
    """Split a trace by arrival time at ``edges``; each window's arrival
    times are made relative to its own start."""
    out: List[list] = [[] for _ in range(len(edges) - 1)]
    k = 0
    for q in trace:
        while k < len(out) and q.arrival_time >= edges[k + 1]:
            k += 1
        if k == len(out):
            break
        out[k].append(replace(q, arrival_time=q.arrival_time - edges[k]))
    return out


def make_inputs(point: LivePoint, seed: int, seconds: float) -> Inputs:
    from repro.live.validate import make_validation_trace

    sat_s, single_s, fixed_s = point.segment_seconds(seconds)
    supply = make_validation_trace(
        point.trace, rate=SUPPLY_RATE,
        duration=point.warmup_s + point.rounds * sat_s,
        mu_h=point.mu_h, inv_r=point.inv_r, seed=seed)
    paced = make_validation_trace(
        point.trace, rate=point.fixed_rate,
        duration=point.rounds * fixed_s, mu_h=point.mu_h,
        inv_r=point.inv_r, seed=seed + 1)
    single_supply = make_validation_trace(
        point.trace, rate=SUPPLY_RATE, duration=point.rounds * single_s,
        mu_h=point.mu_h, inv_r=point.inv_r, seed=seed + 2)
    sat_edges = [0.0] + [point.warmup_s + k * sat_s
                         for k in range(point.rounds + 1)]
    warmup, *saturation = _windows(supply, sat_edges)
    single = _windows(single_supply,
                      [k * single_s for k in range(point.rounds + 1)])
    fixed = _windows(paced, [k * fixed_s for k in range(point.rounds + 1)])
    next_id = iter(range(len(supply) + len(single_supply) + len(paced)))
    renumber = (lambda batch: [replace(q, req_id=next(next_id))
                               for q in batch])
    warmup = renumber(warmup)
    saturation = [renumber(b) for b in saturation]
    single = [renumber(b) for b in single]
    fixed = [renumber(b) for b in fixed]
    return Inputs(warmup, saturation, single, fixed, sat_s, single_s,
                  fixed_s)


# -- driving ------------------------------------------------------------------


async def run_loadgen(job: dict, timeout: float) -> dict:
    """Run the load generator in its own process and return its result."""
    proc = await asyncio.create_subprocess_exec(
        sys.executable, str(LOADGEN), stdin=asyncio.subprocess.PIPE,
        stdout=asyncio.subprocess.PIPE)
    try:
        out, _ = await asyncio.wait_for(
            proc.communicate(json.dumps(job).encode()), timeout)
    finally:
        if proc.returncode is None:
            proc.kill()
            await proc.wait()
    check(proc.returncode == 0, f"load generator exited {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


@dataclass
class Round:
    """One saturation, one single and one fixed-rate segment, as sent."""

    sat: list
    sat_log: dict
    single: list
    single_log: dict
    fixed: list
    fixed_log: dict

    def single_sent(self) -> list:
        """The requests the single segment sent (a closed loop stops
        before its supply runs out)."""
        return self.single[:len(self.single_log["sent"])]

    def closed_loops(self) -> List[Tuple[list, dict]]:
        return [(self.sat, self.sat_log), (self.single, self.single_log)]

    def segments(self) -> List[Tuple[list, dict]]:
        return self.closed_loops() + [(self.fixed, self.fixed_log)]


@dataclass
class Traffic:
    """Load generator output joined with the inputs."""

    inputs: Inputs
    warmup_log: dict
    rounds: List[Round]

    @property
    def attempted(self) -> int:
        return len(self.warmup_log["sent"]) + sum(
            len(log["sent"]) for r in self.rounds for _b, log in r.segments())

    def check_responses(self) -> None:
        """Every request sent was answered 200 with ``status: ok``, every
        fixed-rate request was sent, and no closed loop ran dry."""
        logs = [self.warmup_log] + [log for r in self.rounds
                                    for _batch, log in r.segments()]
        bad = sum(1 for log in logs for ok in log["ok"] if not ok)
        if bad:
            errors = [e for log in logs for e in log["errors"]][:5]
            raise CheckFailed(f"{bad} requests failed: {errors}",
                              self.attempted, bad)
        for r in self.rounds:
            check(len(r.fixed_log["sent"]) == len(r.fixed),
                  "a fixed-rate segment did not send every request")
            for batch, log in r.closed_loops():
                check(len(log["sent"]) < len(batch),
                      "a closed loop ran out of requests; raise SUPPLY_RATE")

    def saturation_rates(self) -> List[float]:
        """Completions per second of each saturation segment."""
        span = self.inputs.sat_seconds
        return [sum(1 for t in r.sat_log["done"] if 0.0 <= t <= span) / span
                for r in self.rounds]

    @staticmethod
    def single_latencies_ms(r: Round) -> List[float]:
        """Send-to-response times of one single segment."""
        log = r.single_log
        return [(done - sent) * 1e3
                for sent, done in zip(log["sent"], log["done"])]

    @staticmethod
    def latencies_ms(r: Round) -> List[float]:
        """Due-to-response times of one fixed-rate segment."""
        return [(done - q.arrival_time) * 1e3
                for q, done in zip(r.fixed, r.fixed_log["done"])]

    @staticmethod
    def lags_ms(r: Round) -> List[float]:
        """How late each fixed-rate request left versus its due time."""
        return [(sent - q.arrival_time) * 1e3
                for q, sent in zip(r.fixed, r.fixed_log["sent"])]

    def measured(self) -> List[Tuple[object, float, float]]:
        """``(request, sent, done)`` of every request after the warm-up."""
        out = []
        for r in self.rounds:
            for batch, log in r.segments():
                out += zip(batch, log["sent"], log["done"])
        return out


def check_ledger(master, traffic: Traffic) -> None:
    """The master's ledger balances and matches the client's count."""
    ledger = master.conservation()
    check(ledger["dropped"] == 0,
          f"the master dropped {ledger['dropped']} requests")
    check(ledger["submitted"] == ledger["completed"] + ledger["dropped"],
          f"master ledger does not balance: {ledger}")
    check(ledger["submitted"] == traffic.attempted,
          f"master saw {ledger['submitted']} requests, "
          f"client sent {traffic.attempted}")


async def drive(cluster, inputs: Inputs, point: LivePoint) -> Traffic:
    """Replay the inputs against a started cluster and check the
    outcome."""
    master = cluster.master
    job = inputs.job(master.host, master.http_port, point)
    budget = 60.0 + 3 * point.rounds * (inputs.sat_seconds
                                        + inputs.single_seconds
                                        + inputs.fixed_seconds)
    logs = (await run_loadgen(job, budget))["phases"]
    rounds = [Round(sat, logs[1 + 3 * k], single, logs[2 + 3 * k],
                    fixed, logs[3 + 3 * k])
              for k, (sat, single, fixed) in enumerate(
                  zip(inputs.saturation, inputs.single, inputs.fixed))]
    traffic = Traffic(inputs, logs[0], rounds)
    traffic.check_responses()
    check_ledger(master, traffic)
    return traffic


async def _boot(point: LivePoint, seed: int, traced: bool):
    """Build and start a cluster; returns ``(cluster, seconds)``."""
    from repro.live.cluster import LiveCluster, LiveClusterConfig

    start = time.perf_counter()
    cluster = LiveCluster(LiveClusterConfig(num_slaves=point.num_slaves,
                                            seed=seed, traced=traced))
    await cluster.start()
    return cluster, time.perf_counter() - start


def _stretch(master, batch: list) -> float:
    """The paper's ``mean(response / demand)`` over the given requests,
    from the master's own records."""
    wanted = {q.req_id for q in batch}
    ratios = [resp / demand for rid, _k, resp, demand, _r, _m
              in master.metrics.records if rid in wanted and demand > 0]
    check(len(ratios) == len(wanted),
          f"master recorded {len(ratios)} of {len(wanted)} requests")
    return sum(ratios) / len(ratios)


# -- timed run ----------------------------------------------------------------


async def _timed(point: LivePoint, seed: int, seconds: float
                 ) -> Tuple[Dict[str, float], int]:
    inputs = make_inputs(point, seed, seconds)
    cluster, first_boot = await _boot(point, seed, traced=False)
    try:
        traffic = await drive(cluster, inputs, point)
        stretch = [_stretch(cluster.master, r.single_sent())
                   for r in traffic.rounds]
    finally:
        await cluster.stop()
    boots = [first_boot]
    for _ in range(point.boots - 1):
        extra, boot_s = await _boot(point, seed, traced=False)
        await extra.stop()
        boots.append(boot_s)
    p50, slo = [], []
    for r in traffic.rounds:
        p50.append(percentile(traffic.single_latencies_ms(r), 50))
        latency = traffic.latencies_ms(r)
        slo.append(sum(1 for x in latency if x <= point.slo_ms)
                   / len(latency))
    metrics = {
        "setup_s": median(boots),
        "req_per_s": median(traffic.saturation_rates()),
        "stretch": median(stretch),
        "latency_p50_ms": median(p50),
        "slo_ratio": median(slo),
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, traffic.attempted


def confine(point: LivePoint) -> None:
    """Pin this process, and so every process it starts, to the first
    ``point.cpus`` CPUs it may run on."""
    if hasattr(os, "sched_setaffinity"):
        allowed = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, allowed[:point.cpus])


def run_timed(point: LivePoint, seed: int, seconds: float
              ) -> Tuple[Dict[str, float], int]:
    """End-to-end metrics; returns ``(metrics, requests attempted)``."""
    confine(point)
    return asyncio.run(_timed(point, seed, seconds))


# -- traced run ---------------------------------------------------------------


class Probes:
    """Timing wrappers around the live cluster's public calls."""

    def __init__(self) -> None:
        self.calibrate: List[float] = []
        self.spawn: List[float] = [0.0]     # per boot, summed over slaves
        self.probation: List[float] = []
        #: req_id -> (seconds in serve_request, result payload)
        self.serve: Dict[int, Tuple[float, dict]] = {}
        self.route = [0.0, 0]
        self.suspect_routes = 0
        self.pool_wait: List[float] = []
        #: remote req_id -> round trip minus reported cpu+io, seconds
        self.hop: Dict[int, float] = {}
        self.frames = 0
        self.remote_submits = 0

    def next_boot(self) -> None:
        self.spawn.append(0.0)

    def boot_patches(self) -> list:
        """Set-up timers, held across every boot."""
        import repro.live.master as master_mod
        from repro.live.cluster import LiveCluster
        from repro.live.master import MasterServer

        clock = time.perf_counter
        calibrate = master_mod.calibrate
        spawn = LiveCluster._spawn_slave
        wait_healthy = MasterServer.wait_healthy

        def timed_calibrate(*args, **kwargs):
            t0 = clock()
            out = calibrate(*args, **kwargs)
            self.calibrate.append(clock() - t0)
            return out

        async def timed_spawn(cluster, slave_id):
            t0 = clock()
            port = await spawn(cluster, slave_id)
            self.spawn[-1] += clock() - t0
            return port

        async def timed_wait_healthy(master, *args, **kwargs):
            t0 = clock()
            await wait_healthy(master, *args, **kwargs)
            self.probation.append(clock() - t0)

        return [(master_mod, "calibrate", timed_calibrate),
                (LiveCluster, "_spawn_slave", timed_spawn),
                (MasterServer, "wait_healthy", timed_wait_healthy)]

    def request_patches(self) -> list:
        """Request-path timers; installed before the traced master is
        built."""
        import repro.live.protocol as protocol_mod
        from repro.core.policies import FrontEndMSPolicy
        from repro.live.master import MasterServer, PeerConnection
        from repro.live.node import WorkerPool

        clock = time.perf_counter
        serve = MasterServer.serve_request
        route = FrontEndMSPolicy.route
        run = WorkerPool.run
        submit = PeerConnection.submit
        send_message = protocol_mod.send_message
        read_message = protocol_mod.read_message

        async def timed_serve(master, request):
            t0 = clock()
            result = await serve(master, request)
            self.serve[request.req_id] = (clock() - t0, result)
            return result

        def timed_route(policy, request, view):
            if not view.all_healthy():
                self.suspect_routes += 1
            t0 = clock()
            out = route(policy, request, view)
            self.route[0] += clock() - t0
            self.route[1] += 1
            return out

        async def timed_run(pool, cpu_seconds, io_seconds, on_start=None):
            t0 = clock()
            cpu, io = await run(pool, cpu_seconds, io_seconds,
                                on_start=on_start)
            self.pool_wait.append(clock() - t0 - cpu - io)
            return cpu, io

        def timed_submit(peer, request):
            t0 = clock()
            call = submit(peer, request)
            self.remote_submits += 1

            def finished(future) -> None:
                if not future.cancelled() and future.exception() is None:
                    cpu, io = future.result()
                    self.hop[request.req_id] = clock() - t0 - cpu - io
            call.future.add_done_callback(finished)
            return call

        def counted_send(writer, msg):
            self.frames += 1
            return send_message(writer, msg)

        async def counted_read(reader):
            msg = await read_message(reader)
            if msg is not None:
                self.frames += 1
            return msg

        return [(MasterServer, "serve_request", timed_serve),
                (FrontEndMSPolicy, "route", timed_route),
                (WorkerPool, "run", timed_run),
                (PeerConnection, "submit", timed_submit),
                (protocol_mod, "send_message", counted_send),
                (protocol_mod, "read_message", counted_read)]

    def reset_traffic(self) -> None:
        """Forget what the boot itself sent (hello frames)."""
        self.frames = 0
        self.remote_submits = 0


def _q_us(values: Sequence[float], q: float) -> float:
    return percentile(values, q) * 1e6 if values else 0.0


def stage_times(spans, ids: Sequence[int]) -> Dict[str, float]:
    """Median per-stage times (us) of the given requests, from the
    master's span stream."""
    from repro.obs.trace import ADMIT, ARRIVE, COMPLETE, DISPATCH, START

    wanted = set(ids)
    first: Dict[int, Dict[str, float]] = {}
    remote: Dict[int, bool] = {}
    for t, kind, req_id, _node, data in spans:
        if req_id in wanted:
            marks = first.setdefault(req_id, {})
            marks.setdefault(kind, t)
            if kind == DISPATCH:
                remote[req_id] = bool(data[0])
    dispatch, hop, wait, service = [], [], [], []
    for req_id, m in first.items():
        check(all(k in m for k in (ARRIVE, DISPATCH, ADMIT, START,
                                   COMPLETE)),
              f"request {req_id} has an incomplete span lifecycle")
        dispatch.append(m[DISPATCH] - m[ARRIVE])
        if remote[req_id]:
            hop.append(m[ADMIT] - m[DISPATCH])
        wait.append(m[START] - m[ADMIT])
        service.append(m[COMPLETE] - m[START])
    return {"stage.dispatch_us": _q_us(dispatch, 50),
            "stage.hop_us": _q_us(hop, 50),
            "stage.wait_us": _q_us(wait, 50),
            "stage.service_us": _q_us(service, 50)}


def layer_metrics(probes: Probes, traffic: Traffic, master
                  ) -> Dict[str, float]:
    measured = traffic.measured()
    ids = [q.req_id for q, _sent, _done in measured]
    local, remote, overshoot, overhead = [], [], [], []
    for q, sent, done in measured:
        seconds, result = probes.serve[q.req_id]
        (remote if result["remote"] else local).append(seconds)
        if q.cpu_demand > 0:
            overshoot.append(result["cpu"] - q.cpu_demand)
        # Client latency (send -> response) minus time in serve_request.
        overhead.append(done - sent - seconds)
    lag = [x for r in traffic.rounds for x in traffic.lags_ms(r)]
    hops = [probes.hop[i] for i in ids if i in probes.hop]
    latency = [x for r in traffic.rounds for x in traffic.latencies_ms(r)]
    metrics = {
        "latency_open_p50_ms": percentile(latency, 50),
        "latency_p99_ms": percentile(latency, 99),
        "loadgen.lag_p50_ms": percentile(lag, 50),
        "loadgen.lag_p99_ms": percentile(lag, 99),
        "master.serve_local_p50_us": _q_us(local, 50),
        "master.serve_local_p99_us": _q_us(local, 99),
        "master.serve_remote_p50_us": _q_us(remote, 50),
        "master.serve_remote_p99_us": _q_us(remote, 99),
        "http.overhead_us": _q_us(overhead, 50),
        "policies.route_us": probes.route[0] / probes.route[1] * 1e6,
        "peer.remote_frac": len(remote) / len(ids),
        "peer.hop_us": _q_us(hops, 50),
        "protocol.frames_per_remote": (probes.frames / probes.remote_submits
                                       if probes.remote_submits else 0.0),
        "pool.wait_us": _q_us(probes.pool_wait, 50),
        "kernel.overshoot_us": _q_us(overshoot, 50),
        "loadd.suspect_denials": float(probes.suspect_routes),
    }
    metrics.update(stage_times(master.tracer.spans, ids))
    return metrics


async def _traced(point: LivePoint, seed: int, seconds: float
                  ) -> Tuple[Dict[str, float], int]:
    from repro.obs import audit_spans

    # The untraced and the traced boot each replay half the run.
    inputs = make_inputs(point, seed, seconds / 2)
    probes = Probes()
    with patched(*probes.boot_patches()):
        cluster, _ = await _boot(point, seed, traced=False)
        try:
            base = await drive(cluster, inputs, point)
        finally:
            await cluster.stop()

        # The traced boot replays the same requests: its master starts
        # with an empty ledger.
        probes.next_boot()
        with patched(*probes.request_patches()):
            cluster, _ = await _boot(point, seed, traced=True)
            try:
                master = cluster.master
                probes.reset_traffic()
                table = master.table
                beats, rejected = table.heartbeats, table.rejected
                traffic = await drive(cluster, inputs, point)
                beats = table.heartbeats - beats
                rejected = table.rejected - rejected
                audit = audit_spans(master.tracer.spans,
                                    conservation=master.conservation())
                check(audit.ok, "span audit failed:\n" + audit.render())
                metrics = layer_metrics(probes, traffic, master)
            finally:
                await cluster.stop()
    metrics.update({
        "loadd.heartbeats": float(beats),
        "loadd.rejected": float(rejected),
        "boot.calibrate_s": probes.calibrate[0],
        "boot.spawn_s": median(probes.spawn),
        "boot.probation_s": median(probes.probation),
        "obs.trace_overhead": (median(base.saturation_rates())
                               / median(traffic.saturation_rates())),
    })
    require(metrics, layer_names("live"))
    return metrics, base.attempted + traffic.attempted


def run_traced(point: LivePoint, seed: int, seconds: float
               ) -> Tuple[Dict[str, float], int]:
    """Per-layer metrics; returns ``(metrics, requests attempted)``."""
    confine(point)
    return asyncio.run(_traced(point, seed, seconds))
