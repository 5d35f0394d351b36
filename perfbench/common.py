"""Metric catalogue and the helpers every workload shares.

The catalogue below is the single list of what the benchmark reports;
``BENCHMARK.json`` at the repository root must name the same metrics with
the same units (a test checks this).

End-to-end metrics are measured on every workload.  Each per-layer metric
belongs to one substrate: a workload of the other substrate does not run
that layer, so it reports the layer's work as 0.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import re
import resource
import sys
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Allowed metric-name characters (the benchmark contract's alphabet).
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: name -> unit.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "req_per_s": "1/s",
    "stretch": "ratio",
    "latency_p50_ms": "ms",
    "slo_ratio": "ratio",
    "peak_rss_mb": "MiB",
}

#: name -> (unit, substrate).
PER_LAYER: Dict[str, Tuple[str, str]] = {
    # -- simulator ---------------------------------------------------------
    "workload.generate_s": ("s", "sim"),
    "workload.pretrain_s": ("s", "sim"),
    "engine.events_per_req": ("count", "sim"),
    "engine.self_frac": ("ratio", "sim"),
    "engine.noop_events_per_s": ("1/s", "sim"),
    "cluster.self_frac": ("ratio", "sim"),
    "policies.route_static_us": ("us", "sim"),
    "policies.route_dynamic_us": ("us", "sim"),
    "policies.self_frac": ("ratio", "sim"),
    "rsrc.candidates_per_route": ("count", "sim"),
    "reservation.master_fraction": ("ratio", "sim"),
    "node.admit_us": ("us", "sim"),
    "node.static_misses_per_req": ("count", "sim"),
    "node.self_frac": ("ratio", "sim"),
    "cpu.switches_per_req": ("count", "sim"),
    "cpu.preemptions_per_req": ("count", "sim"),
    "cpu.self_frac": ("ratio", "sim"),
    "disk.slices_per_req": ("count", "sim"),
    "disk.self_frac": ("ratio", "sim"),
    "memory.self_frac": ("ratio", "sim"),
    "monitor.samples": ("count", "sim"),
    "monitor.self_frac": ("ratio", "sim"),
    "metrics.record_us": ("us", "sim"),
    "metrics.report_s": ("s", "sim"),
    "metrics.self_frac": ("ratio", "sim"),
    # -- every workload ----------------------------------------------------
    # Untraced over traced throughput.
    "obs.trace_overhead": ("ratio", "any"),
    # The tail of the end-to-end latency, from the traced run: on the live
    # cluster it does not repeat within a tenth between runs.
    "latency_p99_ms": ("ms", "any"),
    # -- live cluster ------------------------------------------------------
    # Median due-to-response time of the fixed-rate (open-loop) segments.
    "latency_open_p50_ms": ("ms", "live"),
    "loadgen.lag_p50_ms": ("ms", "live"),
    "loadgen.lag_p99_ms": ("ms", "live"),
    "master.serve_local_p50_us": ("us", "live"),
    "master.serve_local_p99_us": ("us", "live"),
    "master.serve_remote_p50_us": ("us", "live"),
    "master.serve_remote_p99_us": ("us", "live"),
    "http.overhead_us": ("us", "live"),
    "policies.route_us": ("us", "live"),
    "stage.dispatch_us": ("us", "live"),
    "stage.hop_us": ("us", "live"),
    "stage.wait_us": ("us", "live"),
    "stage.service_us": ("us", "live"),
    "peer.remote_frac": ("ratio", "live"),
    "peer.hop_us": ("us", "live"),
    "protocol.frames_per_remote": ("count", "live"),
    "pool.wait_us": ("us", "live"),
    "kernel.overshoot_us": ("us", "live"),
    "loadd.heartbeats": ("count", "live"),
    "loadd.rejected": ("count", "live"),
    "loadd.suspect_denials": ("count", "live"),
    "boot.calibrate_s": ("s", "live"),
    "boot.spawn_s": ("s", "live"),
    "boot.probation_s": ("s", "live"),
}


class CheckFailed(Exception):
    """An output check failed: the run is wrong and reports no numbers.

    ``attempted``/``failed`` count the operations behind the verdict when
    the check knows them.
    """

    def __init__(self, message: str, attempted: int = 1,
                 failed: int = 1) -> None:
        super().__init__(message)
        self.attempted = max(1, attempted)
        self.failed = failed


def check(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` with ``message`` unless ``condition``."""
    if not condition:
        raise CheckFailed(message)


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src`` and let child
    processes (live slaves) do the same.  Exits when the checkout has
    no program to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}")
    src = str(SRC)
    if src not in sys.path:
        sys.path.insert(0, src)
    parts = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
             if p]
    if src not in parts:
        os.environ["PYTHONPATH"] = os.pathsep.join([src] + parts)


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] (numpy's default
    method, without importing numpy into the load generator's path)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark, MiB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint(params: dict) -> str:
    """Short stable hash of a workload's parameters."""
    blob = json.dumps(params, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run_context(workload: str, seed: int, params: dict) -> dict:
    """What is recorded beside every result."""
    from dataclasses import asdict

    from repro.sim.config import SimConfig

    full = {"workload": workload, "params": params,
            "sim_config": asdict(SimConfig())}
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "config_fingerprint": fingerprint(full), "params": params}


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, float], trace: bool) -> str:
    """The benchmark's last stdout line.

    With ``trace`` the metrics are the per-layer catalogue, else the
    end-to-end one; every name of the catalogue must be present (except
    per-layer metrics of the other substrate, which read 0) and no other.
    """
    out: Dict[str, dict] = {}
    if correct:
        catalogue = ({k: v[0] for k, v in PER_LAYER.items()} if trace
                     else END_TO_END)
        unknown = sorted(set(metrics) - set(catalogue))
        if unknown:
            raise ValueError(f"metrics outside the catalogue: {unknown}")
        for name, unit in catalogue.items():
            out[name] = {"value": float(metrics.get(name, 0.0)),
                         "unit": unit}
    return json.dumps({"correct": correct, "attempted": int(attempted),
                       "failed": int(failed), "metrics": out})


def require(metrics: Dict[str, float], names: Iterable[str]) -> None:
    """Fail loudly when a workload forgot a metric it owns."""
    missing = [n for n in names if n not in metrics]
    if missing:
        raise ValueError(f"workload did not measure: {missing}")


def layer_names(substrate: str) -> List[str]:
    return [n for n, (_, s) in PER_LAYER.items() if s in (substrate, "any")]


@contextlib.contextmanager
def patched(*patches: Tuple[object, str, object]) -> Iterator[None]:
    """Temporarily replace attributes: ``(owner, name, replacement)``.

    ``owner`` may be a module, a class or an instance; an attribute the
    owner did not hold itself (a method found on the class of an
    instance) is deleted again on exit rather than overwritten.
    """
    saved = []
    try:
        for owner, name, value in patches:
            own = vars(owner)
            saved.append((owner, name, name in own, own.get(name)))
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, had, old in reversed(saved):
            if had:
                setattr(owner, name, old)
            else:
                delattr(owner, name)
