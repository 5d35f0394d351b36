"""Tracing is an observer: a replay with a ``Tracer`` attached must make
exactly the decisions of the same replay without one.

The request path branches on ``tracer is None`` and ``resilience is None``
at every hook (arrival, dispatch, admission, CPU and disk slices,
completion).  Running each configuration twice — untraced and traced —
and demanding identical per-request samples and event counts guards all
of those branches at once.
"""

import numpy as np
import pytest

from repro.analysis.experiments import iso_load_rate
from repro.analysis.sweep import choose_masters
from repro.core.policies import make_ms
from repro.obs import Tracer
from repro.sim.config import paper_sim_config
from repro.sim.resilience import ResilienceConfig
from repro.workload.generator import generate_trace
from repro.workload.replay import pretrain_sampler, replay
from repro.workload.traces import UCB

P, INV_R, UTIL, SEED = 8, 40, 0.75, 4


def _run(tracer, resilience):
    r = 1.0 / INV_R
    lam = iso_load_rate(UCB, 1200.0, r, P, UTIL)
    trace = generate_trace(UCB, rate=lam, duration=2.0, r=r, seed=SEED)
    # A fresh sampler per run: the policy refines it online.
    sampler = pretrain_sampler(trace, seed=SEED)
    policy = make_ms(P, choose_masters(UCB, lam, 1200.0, r, P), sampler,
                     seed=SEED + 1)
    result = replay(paper_sim_config(num_nodes=P, seed=SEED), policy, trace,
                    resilience=resilience, tracer=tracer, audit=False)
    return result.cluster


@pytest.mark.parametrize("resilience", [None, ResilienceConfig()],
                         ids=["plain", "resilient"])
def test_tracer_does_not_change_the_run(resilience):
    plain = _run(None, resilience)
    tracer = Tracer()
    traced = _run(tracer, resilience)
    assert len(tracer) > 5 * plain.submitted      # the tap was armed
    assert traced.engine.processed == plain.engine.processed
    assert len(plain.metrics) == plain.submitted > 1000
    for got, want in zip(traced.metrics.snapshot(), plain.metrics.snapshot()):
        np.testing.assert_array_equal(got, want)
