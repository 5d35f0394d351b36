"""Benchmark entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload sim-ucb-p32 --seed 11 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with all tracing off;
``--trace 1`` makes the traced run and reports the per-layer metrics.
The seed picks the generated inputs; ``--held-out`` moves it into a
range reserved for confirming a claim on inputs not used while the
change was written.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
seed, ``nproc``, the Python version and a configuration fingerprint.  A
failed output check prints ``"correct": false`` with no metrics and
exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    CheckFailed,
    result_line,
    run_context,
    use_source_tree,
)

WORKLOADS = ("sim-ucb-p32", "sim-adl-p128", "live-adl-1m2s")

#: ``--held-out`` adds this to the seed: development runs never use
#: seeds this large.
HELD_OUT_OFFSET = 1_000_000


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="end-to-end and per-layer benchmark of repro")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: 11 for sim, 0 for live)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured seconds of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run with per-layer metrics")
    parser.add_argument("--held-out", action="store_true",
                        help=f"use seed + {HELD_OUT_OFFSET:,}")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    use_source_tree()
    # The environment must not turn tracing on behind a timed run.
    os.environ.pop("REPRO_AUDIT", None)
    if args.workload.startswith("sim-"):
        from perfbench import sim as bench
    else:
        from perfbench import live as bench
    point = bench.WORKLOADS[args.workload]
    seed = bench.DEFAULT_SEED if args.seed is None else args.seed
    if args.held_out:
        seed += HELD_OUT_OFFSET
    context = run_context(args.workload, seed, point.params())
    print("# context " + json.dumps(context), flush=True)
    run = bench.run_traced if args.trace else bench.run_timed
    try:
        metrics, attempted = run(point, seed, args.seconds)
    except CheckFailed as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        print(result_line(False, exc.attempted, exc.failed, {},
                          bool(args.trace)), flush=True)
        return 1
    print(result_line(True, attempted, 0, metrics, bool(args.trace)),
          flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
