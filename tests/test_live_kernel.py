"""Live pool execution: CPU demand is burned on the node's event loop.

A one-node master serves everything through its own ``WorkerPool``.  The
burn is pure Python, so it gains nothing from worker threads; these tests
pin what running it on the loop buys: every request gets the CPU it
reports, a long burn yields to the loop often, a demand too small for the
clock still ends, and a request with no disk demand never touches the
executor.
"""

from __future__ import annotations

import asyncio
import time

from repro.live.kernel import BusyMeter, burn_cpu
from repro.live.master import MasterServer
from repro.live.node import WorkerPool
from repro.obs.trace import COMPLETE, START

from tests.conftest import make_cgi, make_static


def with_master(body):
    """Run ``body(master)`` against a started one-node, two-slot master;
    returns ``(master, body's result)``."""

    async def scenario():
        master = MasterServer(node_id=0, num_nodes=1, workers=2)
        await master.start()
        try:
            return master, await body(master)
        finally:
            await master.stop()

    return asyncio.run(scenario())


def test_concurrent_burns_each_get_their_cpu():
    """Two 40 ms statics share both slots: both start before either
    completes, each reports at least its demand, and since the loop
    burns one at a time the pair takes the sum of their CPU."""

    async def body(master):
        t0 = time.perf_counter()
        results = await asyncio.gather(
            master.serve_request(make_static(req_id=1, cpu=0.040)),
            master.serve_request(make_static(req_id=2, cpu=0.040)))
        return results, time.perf_counter() - t0

    master, (results, wall) = with_master(body)
    assert all(r["status"] == "ok" for r in results)
    assert all(r["cpu"] >= 0.040 for r in results)
    kinds = [kind for _t, kind, _req, _node, _data in master.tracer.spans
             if kind in (START, COMPLETE)]
    assert kinds[:2] == [START, START]
    assert wall >= 0.076


def test_long_burn_keeps_the_loop_responsive():
    """A 1 ms timer on the same loop keeps firing through a 100 ms burn.
    The burn yields every millisecond, so the ticker gets about one turn
    per two; a 5 ms slice would allow only about eight."""

    async def body(master):
        ticks = 0

        async def ticker():
            nonlocal ticks
            while True:
                await asyncio.sleep(0.001)
                ticks += 1

        task = asyncio.get_running_loop().create_task(ticker())
        await asyncio.sleep(0)          # let the ticker arm its timer
        try:
            result = await master.serve_request(
                make_static(req_id=1, cpu=0.100))
        finally:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        return result, ticks

    _master, (result, ticks) = with_master(body)
    assert result["status"] == "ok"
    assert ticks >= 15


def test_cpu_only_request_never_reaches_the_executor():
    """Only a disk wait is parked on a thread: CPU-only requests leave
    the executor without a single started thread."""

    async def body(master):
        for i in range(4):
            await master.serve_request(make_static(req_id=i, cpu=0.002))
        # ThreadPoolExecutor starts its threads lazily, on first submit.
        idle = len(master.pool.executor._threads)
        await master.serve_request(make_cgi(req_id=9, cpu=0.001, io=0.001))
        return idle, len(master.pool.executor._threads)

    _master, (idle, after_disk) = with_master(body)
    assert idle == 0
    assert after_disk >= 1


def test_demand_below_clock_precision_still_completes():
    """``perf_counter() + 1e-18`` rounds back to the same reading, so a
    burn that compared the clock with ``t0 + seconds`` returned 0.0 for
    such a demand, and the pool's slice loop, which runs until the burns
    add up to the demand, never ended."""
    for seconds in (1e-18, 1e-13, 2e-5):
        assert burn_cpu(seconds) >= seconds

    async def scenario():
        pool = WorkerPool(node_id=0, workers=1, meter=BusyMeter(1))
        try:
            return await asyncio.wait_for(pool.run(1e-18, 0.0), 5.0)
        finally:
            pool.shutdown()

    cpu, io = asyncio.run(scenario())
    assert cpu >= 1e-18 and io == 0.0
