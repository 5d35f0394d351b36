"""Simulator workloads: one Figure-4 point replayed through
:func:`repro.workload.replay.replay` with the ``MS`` scheduler.

A timed run (``trace=False``) repeats the same seed's replay until the
run's seconds are spent (at least twice).  Every repeat generates the
trace, pretrains the sampler and builds the cluster again, so set-up is
measured on each; ``req_per_s`` is simulated requests per host second of
the replay itself.  All metrics are medians over the repeats, and the
repeats must agree bit for bit on ``stretch``.

A traced run makes three replays of the seed: one untraced (the base of
``obs.trace_overhead``), one with the span tracer plus the benchmark's
timing wrappers, and one under ``cProfile`` for the per-module self-time
shares.  All three must reproduce the untraced ``stretch`` exactly, and
the traced one must pass :func:`repro.obs.audit_cluster`.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple

from perfbench.common import (
    CheckFailed,
    check,
    layer_names,
    median,
    patched,
    peak_rss_mb,
    require,
)

#: A request answered within this many milliseconds meets the SLO.
SLO_MS = 10.0


@dataclass(frozen=True)
class SimPoint:
    """One Figure-4 grid point; the seed picks the trace."""

    trace: str
    p: int
    inv_r: int
    utilization: float
    duration: float
    warmup_fraction: float = 0.15
    mu_h: float = 1200.0
    policy: str = "MS"

    def shape(self) -> Tuple[float, int]:
        """``(arrival rate, master count)`` as the Figure-4 harness
        derives them."""
        from repro.analysis.experiments import iso_load_rate
        from repro.analysis.sweep import choose_masters
        from repro.workload.traces import TRACES

        spec = TRACES[self.trace]
        r = 1.0 / self.inv_r
        lam = iso_load_rate(spec, self.mu_h, r, self.p, self.utilization)
        return lam, choose_masters(spec, lam, self.mu_h, r, self.p)

    def params(self) -> dict:
        lam, m = self.shape()
        return {**asdict(self), "rate": lam, "masters": m}


WORKLOADS: Dict[str, SimPoint] = {
    "sim-ucb-p32": SimPoint("UCB", p=32, inv_r=40, utilization=0.75,
                            duration=10.0),
    "sim-adl-p128": SimPoint("ADL", p=128, inv_r=20, utilization=0.9,
                             duration=3.0),
}

DEFAULT_SEED = 11


@dataclass
class Replay:
    """One prepared-and-replayed trace."""

    requests: int
    generate_s: float
    pretrain_s: float
    setup_s: float
    run_s: float
    stretch: float
    result: object      # repro.workload.replay.ReplayResult

    @property
    def req_per_s(self) -> float:
        return self.requests / self.run_s


def replay_once(point: SimPoint, seed: int, *,
                tracer=None,
                instrument: Optional[Callable[[object], list]] = None,
                profile: Optional[cProfile.Profile] = None) -> Replay:
    """Generate, pretrain, build and replay one trace, then check it.

    ``instrument(policy)`` returns attribute patches to hold while the
    cluster is built and run; ``profile`` is enabled around the replay.
    """
    import repro.workload.replay as replay_mod
    from repro.analysis.sweep import make_bakeoff_policy
    from repro.sim.config import paper_sim_config
    from repro.workload.generator import generate_trace
    from repro.workload.traces import TRACES

    lam, m = point.shape()
    t0 = time.perf_counter()
    trace = generate_trace(TRACES[point.trace], rate=lam,
                           duration=point.duration, mu_h=point.mu_h,
                           r=1.0 / point.inv_r, seed=seed)
    t1 = time.perf_counter()
    sampler = replay_mod.pretrain_sampler(trace, seed=seed)
    t2 = time.perf_counter()
    policy = make_bakeoff_policy(point.policy, point.p, m, sampler, seed + 17)
    cfg = paper_sim_config(num_nodes=point.p, seed=seed)
    cfg.static_rate = point.mu_h
    t3 = time.perf_counter()

    real_cluster = replay_mod.Cluster
    built: List[float] = []

    def timed_cluster(*args, **kwargs):
        start = time.perf_counter()
        cluster = real_cluster(*args, **kwargs)
        built.append(time.perf_counter() - start)
        return cluster

    patches = [(replay_mod, "Cluster", timed_cluster)]
    if instrument is not None:
        patches += instrument(policy)
    with patched(*patches):
        if profile is not None:
            profile.enable()
        start = time.perf_counter()
        result = replay_mod.replay(
            cfg, policy, trace, warmup_fraction=point.warmup_fraction,
            tracer=tracer, audit=False)
        elapsed = time.perf_counter() - start
        if profile is not None:
            profile.disable()
    cluster = result.cluster
    try:
        cluster.assert_conservation()
    except AssertionError as exc:
        raise CheckFailed(str(exc)) from None
    check(cluster.submitted == len(trace),
          f"submitted {cluster.submitted} of {len(trace)} requests")
    check(len(cluster.metrics) == cluster.submitted,
          f"completed {len(cluster.metrics)} of {cluster.submitted} "
          f"submitted requests after drain")
    return Replay(requests=len(trace), generate_s=t1 - t0,
                  pretrain_s=t2 - t1, setup_s=(t3 - t0) + built[0],
                  run_s=elapsed - built[0], stretch=result.stretch,
                  result=result)


def _slo_ratio(result, warmup_fraction: float) -> float:
    """Share of measured requests whose simulated response is within
    :data:`SLO_MS` (same warm-up cut as the metrics report)."""
    arr, fin, _dem, _kin, _rem, _mas = result.cluster.metrics.snapshot()
    first, last = arr.min(), arr.max()
    sel = arr >= first + (last - first) * warmup_fraction
    return float(((fin - arr)[sel] <= SLO_MS / 1e3).mean())


def run_timed(point: SimPoint, seed: int, seconds: float
              ) -> Tuple[Dict[str, float], int]:
    """End-to-end metrics; returns ``(metrics, requests attempted)``."""
    start = time.perf_counter()
    first = replay_once(point, seed)
    report = first.result.report
    metrics = {
        "stretch": first.stretch,
        "latency_p50_ms": report.overall.median_response * 1e3,
        "slo_ratio": _slo_ratio(first.result, point.warmup_fraction),
    }
    first.result = None             # keep one cluster alive at a time
    reps = [first]
    while len(reps) < 2 or time.perf_counter() - start < seconds:
        rep = replay_once(point, seed)
        check(rep.stretch == first.stretch,
              f"stretch differs across repeats of seed {seed}: "
              f"{rep.stretch!r} != {first.stretch!r}")
        rep.result = None
        reps.append(rep)
    metrics["setup_s"] = median([r.setup_s for r in reps])
    metrics["req_per_s"] = median([r.req_per_s for r in reps])
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics, sum(r.requests for r in reps)


# -- traced run ---------------------------------------------------------------


class Probes:
    """Timing wrappers around the simulator's public calls.

    Each accumulator is ``[seconds, calls]``.
    """

    def __init__(self) -> None:
        self.route_static = [0.0, 0]
        self.route_dynamic = [0.0, 0]
        self.admit = [0.0, 0]
        self.record = [0.0, 0]
        self.report = [0.0, 0]
        self.candidates = 0
        self.selections = 0

    def patches(self, policy) -> list:
        import repro.core.policies as policies_mod
        from repro.sim.metrics import MetricsCollector
        from repro.sim.node import Node
        from repro.workload.request import RequestKind

        clock = time.perf_counter
        route = policy.route
        admit = Node.admit
        record = MetricsCollector.record
        report = MetricsCollector.report
        select = policies_mod.select_min_rsrc
        static = RequestKind.STATIC

        def timed_route(request, view):
            t0 = clock()
            out = route(request, view)
            acc = (self.route_static if request.kind is static
                   else self.route_dynamic)
            acc[0] += clock() - t0
            acc[1] += 1
            return out

        def timed_admit(node, request, dispatch_latency=0.0):
            t0 = clock()
            out = admit(node, request, dispatch_latency)
            self.admit[0] += clock() - t0
            self.admit[1] += 1
            return out

        def timed_record(collector, proc, remote, on_master):
            t0 = clock()
            record(collector, proc, remote, on_master)
            self.record[0] += clock() - t0
            self.record[1] += 1

        def timed_report(collector, *args, **kwargs):
            t0 = clock()
            out = report(collector, *args, **kwargs)
            self.report[0] += clock() - t0
            self.report[1] += 1
            return out

        def counted_select(w, eff_cpu, eff_disk, candidates, rng):
            self.candidates += len(candidates)
            self.selections += 1
            return select(w, eff_cpu, eff_disk, candidates, rng)

        return [(policy, "route", timed_route),
                (Node, "admit", timed_admit),
                (MetricsCollector, "record", timed_record),
                (MetricsCollector, "report", timed_report),
                (policies_mod, "select_min_rsrc", counted_select)]


def _us(acc: List[float]) -> float:
    return acc[0] / acc[1] * 1e6 if acc[1] else 0.0


def counts(result, probes: Probes) -> Dict[str, float]:
    """Exact per-request work counts read from the cluster's counters."""
    cluster = result.cluster
    n = cluster.submitted
    nodes = cluster.nodes
    report = result.report
    return {
        "engine.events_per_req": cluster.engine.processed / n,
        "cpu.switches_per_req": sum(x.cpu.switches for x in nodes) / n,
        "cpu.preemptions_per_req": sum(x.cpu.preemptions for x in nodes) / n,
        "disk.slices_per_req": sum(x.disk.slices_served for x in nodes) / n,
        "node.static_misses_per_req": sum(x.static_misses for x in nodes) / n,
        "monitor.samples": float(cluster.monitor.samples),
        "rsrc.candidates_per_route": (probes.candidates / probes.selections
                                      if probes.selections else 0.0),
        "reservation.master_fraction": report.master_dynamic_fraction,
    }


#: Source file (relative to ``src/repro``) -> layer, for the profile
#: roll-up.  Files not listed count as ``other``.
_LAYER_FILES = {
    "sim/engine.py": "engine",
    "sim/cluster.py": "cluster",
    "sim/node.py": "node",
    "sim/process.py": "node",
    "sim/cpu.py": "cpu",
    "sim/disk.py": "disk",
    "sim/memory.py": "memory",
    "sim/monitor.py": "monitor",
    "sim/metrics.py": "metrics",
    "core/policies.py": "policies",
    "core/rsrc.py": "policies",
    "core/reservation.py": "policies",
    "core/sampling.py": "policies",
    "obs/trace.py": "obs",
}

_PROFILED_LAYERS = ("engine", "cluster", "policies", "node", "cpu", "disk",
                    "memory", "monitor", "metrics")


def _layer_of(filename: str) -> Optional[str]:
    marker = "/repro/"
    at = filename.replace("\\", "/").rfind(marker)
    if at < 0:
        return None
    return _LAYER_FILES.get(filename[at + len(marker):], "other")


def self_fractions(profile: cProfile.Profile) -> Dict[str, float]:
    """Share of profiled self time per layer.

    Self time of code outside the package (builtins, numpy) is charged to
    the layers that called it, in proportion to the time each caller
    spent in it.
    """
    stats = pstats.Stats(profile).stats
    memo: Dict[tuple, Dict[str, float]] = {}

    def owners(func: tuple, depth: int = 0) -> Dict[str, float]:
        layer = _layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        total = sum(v[2] for v in callers.values())
        if depth > 6 or total <= 0:
            return {"other": 1.0}
        memo[func] = {"other": 1.0}         # cycle guard
        dist: Dict[str, float] = {}
        for caller, v in callers.items():
            for layer, share in owners(caller, depth + 1).items():
                dist[layer] = dist.get(layer, 0.0) + share * v[2] / total
        memo[func] = dist
        return dist

    per_layer: Dict[str, float] = {}
    grand = 0.0
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        grand += tt
        for layer, share in owners(func).items():
            per_layer[layer] = per_layer.get(layer, 0.0) + tt * share
    return {f"{layer}.self_frac": per_layer.get(layer, 0.0) / grand
            for layer in _PROFILED_LAYERS}


def run_traced(point: SimPoint, seed: int, seconds: float = 0.0
               ) -> Tuple[Dict[str, float], int]:
    """Per-layer metrics; returns ``(metrics, requests attempted)``.

    The traced run is a fixed three replays; ``seconds`` is unused.
    """
    from repro.obs import Tracer, audit_cluster
    from repro.perf.bench import measure_engine_throughput

    plain = replay_once(point, seed)
    base_stretch, base_rate = plain.stretch, plain.req_per_s
    plain.result = None

    probes = Probes()
    traced = replay_once(point, seed, tracer=Tracer(),
                         instrument=probes.patches)
    check(traced.stretch == base_stretch,
          f"tracing changed stretch: {traced.stretch!r} != {base_stretch!r}")
    audit = audit_cluster(traced.result.cluster)
    check(audit.ok, "trace audit failed:\n" + audit.render())
    metrics = counts(traced.result, probes)
    metrics.update({
        "policies.route_static_us": _us(probes.route_static),
        "policies.route_dynamic_us": _us(probes.route_dynamic),
        "node.admit_us": _us(probes.admit),
        "metrics.record_us": _us(probes.record),
        "metrics.report_s": probes.report[0],
        "obs.trace_overhead": base_rate / traced.req_per_s,
        "latency_p99_ms": traced.result.report.overall.p99_response * 1e3,
    })
    traced.result = None

    profile = cProfile.Profile()
    profiled = replay_once(point, seed, profile=profile)
    check(profiled.stretch == base_stretch,
          f"profiling changed stretch: {profiled.stretch!r}")
    profiled.result = None
    metrics.update(self_fractions(profile))

    reps = (plain, traced, profiled)
    metrics["workload.generate_s"] = median([r.generate_s for r in reps])
    metrics["workload.pretrain_s"] = median([r.pretrain_s for r in reps])
    metrics["engine.noop_events_per_s"] = measure_engine_throughput()
    require(metrics, layer_names("sim"))
    return metrics, sum(r.requests for r in reps)
