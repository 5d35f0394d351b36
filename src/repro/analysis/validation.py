"""Calibration of the simulator against closed-form queuing theory.

The Section-3 analysis rests on M/M/1 behaviour: with Poisson arrivals and
exponential service, a station at utilisation ``rho`` has expected stretch
``1/(1 - rho)``.  Our simulator is far richer (quanta, priorities, context
switches, two resources, paging), but when those features are switched off
it must collapse to the textbook law — otherwise the Figure-4 comparisons
against Theorem 1 would be comparing apples to a broken orange.

``mm1_calibration`` runs that collapse test; ``ms_model_calibration`` runs
the two-tier version (an M/S split under the same clean assumptions) so the
Theorem-1 stretch predictions can be checked end-to-end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.policies import FlatPolicy, MSPolicy
from repro.core.queuing import Workload, flat_stretch, ms_stretch
from repro.sim.config import SimConfig
from repro.workload.replay import replay
from repro.workload.request import Request, RequestKind


def _clean_config(num_nodes: int, seed: int) -> SimConfig:
    """A simulator stripped to the queuing model's assumptions."""
    cfg = SimConfig(num_nodes=num_nodes, seed=seed)
    cfg.cpu.context_switch_overhead = 0.0
    cfg.cpu.fork_overhead = 0.0
    cfg.memory.enable_paging = False
    cfg.network.remote_cgi_latency = 0.0
    return cfg.validate()


def exponential_trace(lam: float, mean_demand: float, duration: float,
                      seed: int, kind: RequestKind = RequestKind.STATIC,
                      start_id: int = 0) -> List[Request]:
    """Poisson arrivals with exponential, CPU-only service demands."""
    if lam <= 0 or mean_demand <= 0 or duration <= 0:
        raise ValueError("lam, mean_demand and duration must be positive")
    rng = np.random.default_rng(seed)
    n = max(1, int(round(lam * duration)))
    gaps = rng.exponential(1.0 / lam, size=n)
    arrivals = np.cumsum(gaps)
    demands = rng.exponential(mean_demand, size=n)
    return [
        Request(req_id=start_id + i, arrival_time=float(arrivals[i]),
                kind=kind, cpu_demand=float(max(demands[i], 1e-7)),
                io_demand=0.0, mem_pages=0,
                type_key="static" if kind is RequestKind.STATIC
                else "cgi:exp")
        for i in range(n)
    ]


@dataclass(slots=True)
class CalibrationRow:
    rho: float
    predicted: float
    simulated: float

    @property
    def relative_error(self) -> float:
        return abs(self.simulated - self.predicted) / self.predicted


def class_level_stretch(report) -> float:
    """Mean-response / mean-demand, combined across classes by counts.

    This is the quantity the Section-3 formulas predict: per *class*,
    ``E[T] / E[d] = 1/(1-rho)`` for an M/M/1 station.  (The per-request
    ``mean(t/d)`` is a different functional: under FCFS-like service it is
    dominated by tiny-demand requests and diverges for exponential demands,
    so it cannot be used to calibrate against the closed forms.)
    """
    parts = []
    weights = []
    for stats in (report.static, report.dynamic):
        if stats.count > 0:
            parts.append(stats.mean_response / stats.mean_demand)
            weights.append(stats.count)
    return float(np.average(parts, weights=weights))


def mm1_calibration(rho_values: Sequence[float] = (0.3, 0.5, 0.7, 0.85),
                    mu: float = 1200.0, duration: float = 60.0,
                    seed: int = 0) -> List[CalibrationRow]:
    """Single node, Poisson/exponential: stretch must match 1/(1-rho).

    The simulated value is the class-level stretch (mean response over
    mean demand) — see :func:`class_level_stretch` for why the per-request
    ``mean(t/d)`` cannot calibrate against the closed form.
    """
    rows = []
    for i, rho in enumerate(rho_values):
        if not 0 < rho < 1:
            raise ValueError("rho must be in (0, 1)")
        cfg = _clean_config(1, seed + i)
        trace = exponential_trace(lam=rho * mu, mean_demand=1.0 / mu,
                                  duration=duration, seed=seed + 100 + i)
        report = replay(cfg, FlatPolicy(1, seed=seed), trace,
                        warmup_fraction=0.2).report
        rows.append(CalibrationRow(
            rho=rho, predicted=1.0 / (1.0 - rho),
            simulated=class_level_stretch(report)))
    return rows


def flat_cluster_calibration(w: Workload, duration: float = 30.0,
                             seed: int = 0) -> CalibrationRow:
    """Uniform random dispatch over p clean nodes vs the flat formula."""
    cfg = _clean_config(w.p, seed)
    statics = exponential_trace(w.lam_h, 1.0 / w.mu_h, duration, seed + 1)
    dynamics = exponential_trace(w.lam_c, 1.0 / w.mu_c, duration, seed + 2,
                                 kind=RequestKind.DYNAMIC,
                                 start_id=len(statics))
    trace = sorted(statics + dynamics, key=lambda q: q.arrival_time)
    report = replay(cfg, FlatPolicy(w.p, seed=seed + 3), trace,
                    warmup_fraction=0.2).report
    return CalibrationRow(rho=w.total_offered / w.p,
                          predicted=flat_stretch(w),
                          simulated=class_level_stretch(report))


def ms_model_calibration(w: Workload, m: int, theta: float,
                         duration: float = 30.0,
                         seed: int = 0) -> CalibrationRow:
    """M/S split under clean assumptions vs the Equation-1 stretch.

    The policy is pinned to the analytic operating point: reservation cap
    frozen at ``theta`` and random (not RSRC) placement, so the simulated
    system *is* the queuing model's routing.
    """
    cfg = _clean_config(w.p, seed)
    statics = exponential_trace(w.lam_h, 1.0 / w.mu_h, duration, seed + 1)
    dynamics = exponential_trace(w.lam_c, 1.0 / w.mu_c, duration, seed + 2,
                                 kind=RequestKind.DYNAMIC,
                                 start_id=len(statics))
    trace = sorted(statics + dynamics, key=lambda q: q.arrival_time)

    from repro.core.policies import Route

    class AnalyticSplit(MSPolicy):
        """Random dispatch at exactly the model's theta split."""

        def _route_dynamic(self, request, view, accept):
            if self.rng.random() < theta:
                node = self._random_alive_master(view)
            else:
                slaves = self._alive(view, self._slaves)
                node = int(slaves[self.rng.integers(len(slaves))])
            return Route(node, remote=(node != accept))

    policy = AnalyticSplit(w.p, m, use_reservation=False, seed=seed + 3)
    report = replay(cfg, policy, trace, warmup_fraction=0.2).report
    # The Equation-1 combination weights class stretches by arrival rates;
    # class_level_stretch weights by completed counts, which converges to
    # the same thing.
    return CalibrationRow(rho=w.total_offered / w.p,
                          predicted=ms_stretch(w, m, theta).total,
                          simulated=class_level_stretch(report))
