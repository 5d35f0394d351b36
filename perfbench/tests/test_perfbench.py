"""The benchmark's own tests: catalogue and contract, determinism of the
simulator counts, and the load generator's timing error.

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys

import pytest

from perfbench import live, sim
from perfbench.common import (
    END_TO_END,
    NAME_RE,
    PER_LAYER,
    ROOT,
    percentile,
    result_line,
)
from perfbench.run import WORKLOADS

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units():
    for name, unit in END_TO_END.items():
        assert NAME_RE.fullmatch(name), name
        assert unit
    for name, (unit, substrate) in PER_LAYER.items():
        assert NAME_RE.fullmatch(name), name
        assert unit
        assert substrate in ("sim", "live", "any")


def test_benchmark_json_matches_catalogue():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert set(WORKLOADS) == set(sim.WORKLOADS) | set(live.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} \
        == {name: unit for name, (unit, _) in PER_LAYER.items()}
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", [False, True])
def test_result_line_names_every_metric(trace):
    measured = {"obs.trace_overhead": 1.1} if trace else {
        name: 1.0 for name in END_TO_END}
    line = json.loads(result_line(True, 10, 0, measured, trace))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    expected = PER_LAYER if trace else END_TO_END
    assert set(line["metrics"]) == set(expected)
    for value in line["metrics"].values():
        assert set(value) == {"value", "unit"}
    with pytest.raises(ValueError):
        result_line(True, 1, 0, {"not-a-metric": 1.0}, trace)


SMALL = sim.SimPoint("UCB", p=8, inv_r=40, utilization=0.75, duration=1.0)


def _counted_replay(seed: int):
    probes = sim.Probes()
    rep = sim.replay_once(SMALL, seed, instrument=probes.patches)
    return rep.stretch, sim.counts(rep.result, probes)


def test_sim_counts_and_stretch_repeat_exactly():
    stretch_a, counts_a = _counted_replay(3)
    stretch_b, counts_b = _counted_replay(3)
    assert stretch_a == stretch_b
    assert counts_a == counts_b
    assert counts_a["engine.events_per_req"] > 1.0
    assert counts_a["rsrc.candidates_per_route"] >= 1.0
    stretch_c, _ = _counted_replay(4)
    assert stretch_c != stretch_a           # the seed picks the trace


def test_live_inputs_have_distinct_ids_and_rebased_due_times():
    point = live.LivePoint(rounds=3)
    inputs = live.make_inputs(point, seed=0, seconds=3.0)
    batches = ([inputs.warmup] + inputs.saturation + inputs.single
               + inputs.fixed)
    ids = [q.req_id for batch in batches for q in batch]
    assert len(ids) == len(set(ids))
    _sat_s, _single_s, fixed_s = point.segment_seconds(3.0)
    for batch in inputs.fixed:
        due = [q.arrival_time for q in batch]
        assert due == sorted(due)
        assert 0.0 <= due[0] and due[-1] < fixed_s
        # Poisson arrivals at the fixed rate, give or take.
        assert abs(len(batch) - point.fixed_rate * fixed_s) \
            < 0.25 * point.fixed_rate * fixed_s


async def _trivial_responder(reader, writer):
    body = b'{"status":"ok"}'
    head = (b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body))
    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            while (await reader.readline()) not in (b"\r\n", b"\n", b""):
                pass
            writer.write(head + body)
            await writer.drain()
    finally:
        writer.close()


def test_loadgen_lag_is_small_against_a_trivial_responder():
    rate, seconds = 800.0, 1.5
    due = [i / rate for i in range(int(rate * seconds))]

    async def scenario():
        server = await asyncio.start_server(_trivial_responder,
                                            "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        job = {"host": "127.0.0.1", "port": port, "connections": 2,
               "phases": [
                   {"mode": "closed", "seconds": 0.3,
                    "targets": ["/w"] * 100_000},
                   {"mode": "closed", "seconds": 0.3, "connections": 1,
                    "targets": ["/s"] * 100_000},
                   {"mode": "open", "due": due,
                    "targets": ["/f"] * len(due)}]}
        try:
            return await live.run_loadgen(job, timeout=60.0)
        finally:
            server.close()
            await server.wait_closed()

    closed, single, fixed = asyncio.run(scenario())["phases"]
    assert all(closed["ok"]) and len(closed["ok"]) > 100
    # One connection: each request is sent after the previous answer.
    assert all(single["ok"]) and len(single["ok"]) > 100
    assert all(nxt >= done for done, nxt
               in zip(single["done"], single["sent"][1:]))
    assert all(fixed["ok"]) and len(fixed["ok"]) == len(due)
    lag_ms = [(s - d) * 1e3 for s, d in zip(fixed["sent"], due)]
    latency_ms = [(t - d) * 1e3 for t, d in zip(fixed["done"], due)]
    assert min(lag_ms) >= 0.0
    assert percentile(lag_ms, 50) < 0.5
    assert percentile(lag_ms, 99) < 5.0
    assert percentile(latency_ms, 50) < 2.0


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: exit non-zero and
    print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-ucb-p32",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"})
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
