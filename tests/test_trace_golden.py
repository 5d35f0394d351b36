"""Golden-trace regression: the span stream of a small fixed-seed M/S
replay is committed to the repo; any silent change to dispatch order,
device interleaving, or timestamps fails here with a span-level diff.

Regenerate the golden file after an *intentional* scheduling change:

    PYTHONPATH=src python tests/test_trace_golden.py --regen
"""

from pathlib import Path

import pytest

from repro.core.caching import CachingMSPolicy, CGICache
from repro.core.policies import (
    POLICY_NAMES,
    FrontEndMSPolicy,
    HeteroMSPolicy,
    MSPolicy,
    make_policy,
)
from repro.obs import Tracer, load_jsonl, save_jsonl, span_digest
from repro.sim.config import SimConfig
from repro.workload.generator import generate_trace
from repro.workload.replay import pretrain_sampler, replay
from repro.workload.traces import KSU

GOLDEN = Path(__file__).parent / "data" / "golden_trace.jsonl"

#: Frozen run parameters.  Changing ANY of these invalidates the golden
#: file — regenerate it in the same commit.
PARAMS = dict(nodes=4, masters=2, rate=40.0, duration=3.0,
              trace_seed=9, sim_seed=11, policy_seed=3)


def _golden_run() -> Tracer:
    trace = generate_trace(KSU, rate=PARAMS["rate"],
                           duration=PARAMS["duration"],
                           seed=PARAMS["trace_seed"])
    policy = MSPolicy(num_nodes=PARAMS["nodes"],
                      num_masters=PARAMS["masters"],
                      seed=PARAMS["policy_seed"])
    tracer = Tracer()
    replay(SimConfig(num_nodes=PARAMS["nodes"], seed=PARAMS["sim_seed"]),
           policy, trace, tracer=tracer, audit=True)
    return tracer


def _span_line(span) -> str:
    t, kind, req, node, data = span
    return f"t={t:.9f} {kind} req={req} node={node} data={data!r}"


def _diff_message(got, want) -> str:
    """Human-readable first divergence between two span streams."""
    limit = min(len(got), len(want))
    at = next((i for i in range(limit)
               if span_digest([got[i]]) != span_digest([want[i]])), limit)
    lines = [f"span streams diverge at span #{at} "
             f"(got {len(got)} spans, golden has {len(want)}):"]
    for i in range(max(0, at - 2), min(limit, at + 3)):
        marker = ">>" if i == at else "  "
        lines.append(f"{marker} #{i} golden: {_span_line(want[i])}")
        lines.append(f"{marker} #{i} got:    {_span_line(got[i])}")
    lines.append("If this change to scheduling is intentional, regenerate "
                 "with: PYTHONPATH=src python tests/test_trace_golden.py "
                 "--regen")
    return "\n".join(lines)


def test_golden_trace_digest_is_stable():
    golden_spans, header = load_jsonl(GOLDEN)
    tracer = _golden_run()
    got = span_digest(tracer.spans)
    want = span_digest(golden_spans)
    assert header["meta"]["digest"] == want, (
        "golden file header digest does not match its own spans — the "
        "file was hand-edited; regenerate it")
    if got != want:
        raise AssertionError(_diff_message(tracer.spans, golden_spans))


#: The golden run at three times the rate (so the reservation gate both
#: opens and closes) under every member of the policy family, each pinned
#: by its span digest.  A refactor of the dispatchers must keep every
#: variant's decisions, and so every span, bit-identical.  Regenerate
#: with ``--family`` after an *intentional* scheduling change.
FAMILY = dict(PARAMS, rate=120.0)
FAMILY_DIGESTS = {
    "MS":
        "81d68a440aa03f862875f85371a852153f3b5458f50d67d524b01f9f90149a67",
    "MS-ns":
        "33051bc00cd1712f18aa4fcaf8ac5ba63fbaa82fd6c7524b6ebf771793eed5fe",
    "MS-nr":
        "88d628b3d2eb1e85b4f41d9f990888e39f3d9dd6c9418b687c0ab931a0f04411",
    "MS-1":
        "736e777909d1f9bb5767477b8388b85e2cb13e7ab554d970f683fdac0796015c",
    "Flat":
        "6859407816184e6f8dafe5d0dea936cfc957d4bb8b8833c728103a70aa32f7a4",
    "MSPrime":
        "25354ec4ae1da8d147dded28127518a69c0739c8e529dae8c32003da7ccf0e35",
    "RoundRobin":
        "78fa2f962236fcfd22c19aa0125967c5e87901e3fd1b2ad1675e8f4c37ba0319",
    "LeastActive":
        "bf50bc20fdbf46e1b43e9d862738cf299e02ccd6d4d1749c30a1ef84547841ec",
    "Redirect":
        "fd3305c0d9e8aa029f9dc74876cc7d149301a96d4c2bc42ef42173673b3d5bdf",
    "DNS":
        "78fa2f962236fcfd22c19aa0125967c5e87901e3fd1b2ad1675e8f4c37ba0319",
    "Hetero":
        "e1ef7990b3554b7264f551b94c36be4aa14bdc37e1baa7d6a8bad5e17d595691",
    "FrontEnd":
        "8acc73c5b0014e71fd39c6165ec6a53309883d4d2b75222c5e886242b373ff31",
    "Caching":
        "6a5fde098e3eca1558fec99b68f2d5abf8cc2515dead0c6268c48491cc5bc237",
}


def _family_policy(case: str, sampler):
    nodes, masters = FAMILY["nodes"], FAMILY["masters"]
    kwargs = dict(sampler=sampler, seed=FAMILY["policy_seed"])
    if case == "Hetero":
        return HeteroMSPolicy(nodes, masters,
                              cpu_speeds=(1.0, 2.5, 0.5, 1.5),
                              disk_speeds=(2.0, 1.0, 1.0, 0.5), **kwargs)
    if case == "FrontEnd":
        return FrontEndMSPolicy(nodes, masters, accept_node=1, **kwargs)
    if case == "Caching":
        return CachingMSPolicy(nodes, masters, CGICache(capacity=16),
                               **kwargs)
    return make_policy(case, nodes, masters, **kwargs)


def _family_run(case: str) -> Tracer:
    trace = generate_trace(KSU, rate=FAMILY["rate"],
                           duration=FAMILY["duration"],
                           seed=FAMILY["trace_seed"],
                           cacheable_fraction=0.6 if case == "Caching"
                           else 0.0,
                           distinct_queries=20)
    policy = _family_policy(case, pretrain_sampler(
        trace, seed=FAMILY["trace_seed"]))
    tracer = Tracer()
    replay(SimConfig(num_nodes=FAMILY["nodes"], seed=FAMILY["sim_seed"]),
           policy, trace, tracer=tracer, audit=True)
    return tracer


@pytest.mark.parametrize("case", sorted(FAMILY_DIGESTS))
def test_policy_family_digest_is_stable(case):
    assert span_digest(_family_run(case).spans) == FAMILY_DIGESTS[case]


def test_family_covers_every_policy_name():
    assert set(POLICY_NAMES) <= set(FAMILY_DIGESTS)


def test_golden_file_replays_through_auditor():
    """The committed stream itself passes the structural audit."""
    from repro.obs import audit_spans

    golden_spans, _ = load_jsonl(GOLDEN)
    report = audit_spans(golden_spans)
    assert report.ok, report.render()


if __name__ == "__main__":
    import sys

    if "--family" in sys.argv:
        for case in FAMILY_DIGESTS:
            print(f'    "{case}": "{span_digest(_family_run(case).spans)}",')
        raise SystemExit(0)
    if "--regen" not in sys.argv:
        raise SystemExit("refusing to regenerate without --regen "
                         "(or --family to print the family digests)")
    tracer = _golden_run()
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    save_jsonl(tracer.spans, GOLDEN,
               meta={**PARAMS, "digest": span_digest(tracer.spans)})
    print(f"wrote {len(tracer.spans)} spans to {GOLDEN}")
