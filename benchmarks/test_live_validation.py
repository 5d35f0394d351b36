"""LIVE — cross-validation of the live loopback cluster vs the simulator.

Both substrates run the *same* scheduler code (M/S policy, reservation
controller, RSRC selection) over the *same* generated ADL trace; this
benchmark records the live/sim stretch ratio next to the perf ledger so a
regression in either substrate — or a drift between them — shows up in
the same place as a wall-time regression.

Tolerance is deliberately generous (``repro.live.validate.TOLERANCE``,
currently 4x either way): the CI host has one CPU core, and each live
node burns CPU demand on its event loop in 1 ms slices, so concurrent
requests take turns on one thread while the simulator gives every node
its own processor; and live requests pay real loopback/HTTP
overhead the model folds into a fixed network latency.  The assertion is
"same regime", not "same number" — plus separate checks that the live
run actually exercised the paper's machinery (remote dispatch happened,
most requests completed).
"""

from __future__ import annotations

import asyncio
import json

from benchmarks.conftest import FULL, emit
from repro.live.validate import validate


def test_live_vs_sim_stretch(benchmark):
    duration = 6.0 if FULL else 2.5
    rate = 80.0 if FULL else 60.0

    def run():
        return asyncio.run(validate(trace_name="ADL", rate=rate,
                                    duration=duration, mu_h=240.0,
                                    inv_r=12.0, num_slaves=2, seed=11))

    res = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(res.render())
    emit("live-validation record: " + json.dumps({
        "trace": res.trace_name,
        "requests": res.requests,
        "live_stretch": round(res.live_stretch, 4),
        "sim_stretch": round(res.sim_stretch, 4),
        "ratio": round(res.ratio, 4),
        "tolerance": res.tolerance,
        "remote_fraction": round(res.remote_fraction, 4),
    }, sort_keys=True))

    # The documented acceptance band (see module docstring).
    assert res.ok, res.render()

    # The live path really ran the scheduler, not a degenerate fallback.
    assert res.live_completed > 0.9 * res.requests
    assert res.remote_fraction > 0.0
