"""Live-cluster tests: an in-process master and a full loopback cluster.

The integration test boots the real thing — one master in-process plus
two slave subprocesses — replays ~200 mixed requests over actual HTTP,
and then holds the emitted span stream to the same audit the simulator's
traces must pass: lifecycle, conservation, and the theta'_2 reservation
invariant.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.live.cluster import LiveCluster, LiveClusterConfig
from repro.live.loadgen import run_loadgen
from repro.live.master import MasterServer
from repro.live.validate import make_validation_trace
from repro.obs.audit import audit_spans

from tests.conftest import make_cgi, make_static


def test_single_node_master_serves_in_process():
    """A one-node master (no slaves, reservation off) executes statics
    and CGIs locally through serve_request, and its span stream audits."""

    async def scenario():
        master = MasterServer(node_id=0, num_nodes=1, workers=2)
        await master.start()
        try:
            results = []
            for i in range(6):
                if i % 2 == 0:
                    req = make_static(req_id=i, cpu=0.001)
                else:
                    req = make_cgi(req_id=i, cpu=0.002, io=0.005)
                results.append(await master.serve_request(req))
            return master, results
        finally:
            await master.stop()

    master, results = asyncio.run(scenario())
    assert all(r["status"] == "ok" for r in results)
    assert all(r["node"] == 0 and not r["remote"] for r in results)
    ledger = master.conservation()
    assert ledger["completed"] == 6 and ledger["in_flight"] == 0
    report = audit_spans(master.tracer.spans, conservation=ledger)
    assert report.ok, report.render()


def test_oversized_header_line_gets_431_and_server_keeps_serving():
    """A header line past the 64 KiB stream limit is refused with a 431
    (not a reset connection), and the listener still serves others."""

    async def get(port, extra_headers=b""):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                     + extra_headers + b"\r\n")
        await writer.drain()
        status = await reader.readline()
        body = await reader.read()      # until the server closes
        writer.close()
        return status, body

    async def scenario():
        master = MasterServer(node_id=0, num_nodes=1, workers=1)
        await master.start()
        try:
            big = await get(master.http_port,
                            b"X-Big: " + b"a" * 70_000 + b"\r\n")
            fresh = await get(master.http_port, b"Connection: close\r\n")
            return big, fresh
        finally:
            await master.stop()

    (big_status, big_body), (fresh_status, _) = asyncio.run(scenario())
    assert big_status.startswith(b"HTTP/1.1 431 "
                                 b"Request Header Fields Too Large")
    assert b"header line too long" in big_body
    assert fresh_status.startswith(b"HTTP/1.1 200 OK")


@pytest.mark.integration
def test_loopback_cluster_end_to_end():
    """1 master + 2 slave processes, ~200 mixed requests over real HTTP."""
    trace = make_validation_trace(rate=80.0, duration=2.5, mu_h=240.0,
                                  inv_r=12.0, seed=3)
    assert len(trace) >= 150

    async def scenario():
        cfg = LiveClusterConfig(num_slaves=2, seed=3)
        async with LiveCluster(cfg) as cluster:
            result = await run_loadgen(cluster.master.host,
                                       cluster.master.http_port, trace)
            # stop() clears the peer registry: snapshot the counters now.
            peer_stats = [(peer.submitted, peer.completed)
                          for peer in cluster.master.peers.values()]
            return cluster.master, result, peer_stats

    master, result, peer_stats = asyncio.run(scenario())

    # Every submitted request got a definite outcome, none errored.
    assert result.submitted == len(trace)
    assert result.errors == 0, result.error_messages[:5]
    assert result.ok + result.denied == result.submitted
    assert result.ok > 0.9 * result.submitted

    # The ledger drained and balances.
    ledger = master.conservation()
    assert ledger["submitted"] == len(trace)
    assert ledger["in_flight"] == 0
    assert ledger["completed"] == result.ok

    # Remote CGI really round-tripped through the slave processes.
    assert len(peer_stats) == 2
    assert sum(s for s, _ in peer_stats) > 0
    assert sum(c for _, c in peer_stats) > 0
    assert any(c[4] for c in result.completions)   # remote completions

    # The span stream passes the simulator's audit, including the
    # reservation invariant — and that check actually ran.
    report = audit_spans(master.tracer.spans, conservation=ledger)
    assert report.ok, report.render()
    assert report.checked.get("reservation_decisions", 0) > 0

    # The adaptive cap was live on the master (gate honesty per decision
    # is asserted span-by-span by the audit's reservation check above).
    res = master.policy.reservation
    assert res is not None
    assert 0.0 < res.effective_cap <= 1.0
    assert 0.0 <= res.master_fraction <= 1.0
