"""``python -m perfbench {measure,run,compare}``."""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from perfbench.env import (
    DEFAULT_SEED,
    SCRATCH_DIR,
    add_source_path,
    pin_allocator,
    pin_environment,
    stop_child_processes,
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m perfbench", description=__doc__
    )
    commands = parser.add_subparsers(dest="command", required=True)

    measure = commands.add_parser(
        "measure", help="one workload in this interpreter"
    )
    measure.add_argument("--workload", required=True)
    measure.add_argument("--seed", type=int, default=DEFAULT_SEED)
    measure.add_argument("--seconds", type=float, required=True,
                         help="how long to keep timing jobs")
    measure.add_argument("--trace", type=int, choices=(0, 1), default=0,
                         help="0: end-to-end metrics; 1: per-layer metrics")
    measure.add_argument("--smoke", action="store_true",
                         help="tiny graphs, one job of each kind")
    measure.add_argument("--out", help="also write the full report here")
    measure.add_argument("--spans-out",
                         help="with --trace 1: dump the spans as JSONL")
    measure.add_argument("--scratch-dir", default=SCRATCH_DIR,
                         help="where temp stores go (default: %(default)s)")

    run = commands.add_parser(
        "run", help="every workload, each in a fresh child interpreter"
    )
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--smoke", action="store_true")
    run.add_argument("--out", help="write the result set here as JSON")
    run.add_argument("--scratch-dir", default=SCRATCH_DIR,
                     help="where temp stores go (default: %(default)s)")

    compare = commands.add_parser(
        "compare", help="two `run` outputs against BENCHMARK.json's bounds"
    )
    compare.add_argument("base")
    compare.add_argument("other")
    return parser


def _measure(args: argparse.Namespace) -> int:
    # Before numpy loads: BLAS reads its thread count at import.
    pin_environment(os.environ)
    pin_allocator()
    add_source_path()
    from perfbench.measure import measure
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print("error: unknown workload %r (have: %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    report = measure(
        args.workload, args.seed, args.seconds, args.trace,
        smoke=args.smoke, spans_out=args.spans_out,
        scratch_dir=args.scratch_dir,
    )
    print("workload %s  seed %d  |V|=%d |E|=%d  k=%d" % (
        report["workload"], report["seed"], report["graph"]["vertices"],
        report["graph"]["edges"], report["k"],
    ))
    for name, metric in report["metrics"].items():
        print("%-44s %.6g %s" % (name, metric["value"], metric["unit"]))
    print("jobs_failed %d of %d" % (report["failed"], report["attempted"]))
    for reason in report["failures"]:
        print("  failure: %s" % reason)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "measure":
        try:
            return _measure(args)
        finally:
            # On every path out: no process outlives this one.
            stop_child_processes()
    if args.command == "run":
        from perfbench.suite import run_suite

        return run_suite(args.seed, args.smoke, args.out, args.scratch_dir)
    from perfbench.compare import compare_files

    return compare_files(args.base, args.other)
