"""Ablation: what does RSRC node selection actually buy?

DESIGN.md §6 calls out the cost predictor as a design choice worth
ablating.  This bench compares, on a disk-bound ADL workload where the
CPU/disk split matters most:

* **rsrc-sampled** — Equation 5 with offline-sampled w (the paper's M/S),
* **rsrc-half** — Equation 5 with w=0.5 (M/S-ns),
* **cpu-only** — w=1.0: a scheduler that only watches CPU idleness,
* **random-slave** — no load information at all.
"""

import numpy as np

from benchmarks.conftest import FULL, emit
from repro.analysis.experiments import iso_load_rate
from repro.analysis.reporting import format_table
from repro.core.policies import MSPolicy, Route
from repro.sim.config import paper_sim_config
from repro.workload.generator import generate_trace
from repro.workload.replay import pretrain_sampler, replay
from repro.workload.traces import ADL


class RandomSlavePolicy(MSPolicy):
    """M/S structure but dynamic requests go to a uniformly random slave."""

    def _route_dynamic(self, request, view, accept):
        node = int(self._slaves[self.rng.integers(len(self._slaves))])
        return Route(node, remote=(node != accept))


def _run(policy, cfg, trace):
    return replay(cfg.copy(), policy, trace).report.overall.stretch


def test_ablation_rsrc_variants(benchmark):
    p, m = (16, 2)
    r = 1 / 40
    lam = iso_load_rate(ADL, 1200.0, r, p, 0.85)
    duration = 12.0 if FULL else 8.0
    seeds = (3, 4, 5) if FULL else (3, 4)

    def run_all():
        rows = {"rsrc-sampled": [], "rsrc-half": [], "cpu-only": [],
                "random-slave": []}
        for seed in seeds:
            cfg = paper_sim_config(num_nodes=p, seed=seed)
            trace = generate_trace(ADL, rate=lam, duration=duration,
                                   mu_h=1200.0, r=r, seed=seed)
            sampler = pretrain_sampler(trace, seed=seed)
            rows["rsrc-sampled"].append(_run(
                MSPolicy(p, m, sampler=sampler, seed=seed + 9), cfg, trace))
            rows["rsrc-half"].append(_run(
                MSPolicy(p, m, seed=seed + 9), cfg, trace))
            rows["cpu-only"].append(_run(
                MSPolicy(p, m, default_w=1.0, seed=seed + 9), cfg, trace))
            rows["random-slave"].append(_run(
                RandomSlavePolicy(p, m, sampler=sampler, seed=seed + 9),
                cfg, trace))
        return {k: float(np.mean(v)) for k, v in rows.items()}

    means = benchmark.pedantic(run_all, rounds=1, iterations=1)
    base = means["rsrc-sampled"]
    emit(format_table(
        ["selector", "stretch", "vs rsrc-sampled"],
        [[k, v, f"{100 * (v / base - 1):+.0f}%"] for k, v in means.items()],
        title=f"Ablation: node-selection cost model (ADL, p={p}, "
              f"util=0.85)",
    ))

    # Load-aware selection must beat blind selection on a disk-bound mix.
    assert means["rsrc-sampled"] < means["random-slave"]
    # Sampled weights must stay competitive with any single-resource
    # heuristic (seed noise allows a small band).
    assert means["rsrc-sampled"] <= means["cpu-only"] * 1.15
    assert means["rsrc-sampled"] <= means["rsrc-half"] * 1.15
