"""Perf-regression harness: modeled workload costs as a committed file.

``python -m repro.bench.regression --out BENCH_pr.json`` runs a small
workload matrix (SSSP/PR x two stand-in graphs x SLFE/Gemini by
default) and writes one JSON file mapping each workload to its
headline numbers::

    {
      "schema_version": 1,
      "scale_divisor": 4000,
      "num_nodes": 8,
      "workloads": {
        "SSSP/LJ/SLFE": {
          "modeled_seconds": 0.0031,   # cost-model execution seconds
          "edge_ops": 76931,
          "messages": 10694,
          "supersteps": 13
        },
        ...
      }
    }

When ``--baseline`` points at a previous file (typically the committed
``BENCH_pr.json`` from the last PR), the deterministic metrics —
``modeled_seconds``, ``edge_ops``, ``messages``, ``supersteps`` — are
compared within ``--tolerance`` (relative, default 10%) and the process
exits 1 if any workload regressed (2 for an unusable baseline).  Nothing
in the file comes from a clock, so it regenerates byte for byte; wall
clock is judged by ``perfbench`` alone.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Dict, List, Optional

from repro.bench import workloads
from repro.bench.runner import run_workload
from repro.graph.datasets import DATASETS

__all__ = [
    "SCHEMA_VERSION",
    "GATED_METRICS",
    "DEFAULT_APPS",
    "DEFAULT_GRAPHS",
    "DEFAULT_ENGINES",
    "run_matrix",
    "validate",
    "compare",
    "main",
]

SCHEMA_VERSION = 1

#: Metrics compared against the baseline; all are deterministic
#: functions of the workload.
GATED_METRICS = ("modeled_seconds", "edge_ops", "messages", "supersteps")

DEFAULT_APPS = ["SSSP", "PR"]
DEFAULT_GRAPHS = ["PK", "LJ"]
DEFAULT_ENGINES = ["SLFE", "Gemini"]
DEFAULT_SCALE = 4000
DEFAULT_TOLERANCE = 0.10

#: The canonical fault-tolerance workload the gate tracks: SSSP on LJ
#: under one crash, one lossy pair, and one straggler window, with
#: periodic checkpoints.  Deterministic like every other row; its
#: ``modeled_seconds`` (checkpoint + rollback + takeover included) is
#: gated, and ``recovery_seconds`` is recorded so recovery overhead is
#: visible in the diff of every PR.
FAULTS_KEY = "SSSP+faults/LJ/SLFE"
FAULTS_PLAN_SPEC = "crash@6:2,loss@2:0-1x2,slow@4:3x4+2"
FAULTS_CHECKPOINT_EVERY = 4
#: The spec above targets nodes up to index 3, and FaultPlan.parse now
#: validates coordinates against the cluster shape; smaller matrices
#: run the canonical faults row on this floor instead of failing.
FAULTS_MIN_NODES = 4

#: The RR-composition experiment: PR on PK under the async engine with
#: each round scheduler.  Informational like the other extra sections —
#: compare() never reads it — but committed so every PR's diff shows
#: whether lastIter-as-priority beats pure delta magnitude and FIFO on
#: updates-to-convergence.
ASYNC_SCHEDULING_APP = "PR"
ASYNC_SCHEDULING_GRAPH = "PK"


def _registry_snapshot(recorder) -> dict:
    """Deterministic counter snapshot of one workload's metrics registry.

    Recorded alongside the gated metrics (never gated itself: absent
    from older baselines, and the matrix tolerates extra fields) so
    every PR's diff shows how redundancy reduction and fault tolerance
    behaved, not just the headline totals.  Only count-valued series
    are snapshotted — anything measured in seconds is noise or already
    covered by ``modeled_seconds``.
    """
    from repro.obs import registry_from_trace

    registry = registry_from_trace(recorder)
    skipped = registry.total("repro_rr_skipped_edge_ops", by="rr")
    snapshot = {
        "rr_start_late_skipped_edge_ops": skipped.get("start_late", 0),
        "rr_finish_early_skipped_edge_ops": skipped.get("finish_early", 0),
    }
    for key, family in _SNAPSHOT_FAMILIES:
        snapshot[key] = registry.total(family)
    return {key: int(value) for key, value in snapshot.items()}


#: Snapshot key -> the registry family it totals.
_SNAPSHOT_FAMILIES = (
    ("rr_skipped_vertices", "repro_rr_skipped_vertices"),
    ("rr_catch_ups", "repro_rr_catch_ups"),
    ("ec_frozen_transitions", "repro_ec_frozen"),
    ("preprocessing_edge_ops", "repro_preprocessing_edge_ops"),
    ("checkpoints", "repro_checkpoints"),
    ("rollbacks", "repro_rollbacks"),
    ("recoveries", "repro_recoveries"),
    ("retried_messages", "repro_retried_messages"),
    ("guidance_reuses", "repro_guidance_reuses"),
)


def _faults_entry(scale_divisor: int, num_nodes: int) -> dict:
    from repro.cluster.faults import FaultPlan
    from repro.trace.recorder import TraceRecorder

    num_nodes = max(num_nodes, FAULTS_MIN_NODES)
    plan = FaultPlan.parse(FAULTS_PLAN_SPEC, num_nodes=num_nodes)
    recorder = TraceRecorder()
    outcome = run_workload(
        "SLFE",
        "SSSP",
        "LJ",
        num_nodes=num_nodes,
        scale_divisor=scale_divisor,
        fault_plan=plan,
        checkpoint_every=FAULTS_CHECKPOINT_EVERY,
        recorder=recorder,
    )
    metrics = outcome.result.metrics
    return {
        "modeled_seconds": outcome.runtime.execution_seconds,
        "edge_ops": metrics.total_edge_ops,
        "messages": metrics.total_messages,
        "supersteps": outcome.result.iterations,
        # Recorded, not gated (absent from older baselines).
        "recovery_seconds": outcome.runtime.fault_tolerance_seconds,
        "supersteps_replayed": metrics.supersteps_replayed,
        "retries": metrics.total_retries,
        "registry": _registry_snapshot(recorder),
    }


def _cache_amortization_entry(scale_divisor: int, num_nodes: int) -> dict:
    """Warm-vs-cold guidance reuse through the artifact store.

    Runs the canonical SSSP/LJ/SLFE workload twice against a throwaway
    store: the first (cold) run pays the Algorithm 1 guidance scan, the
    second (warm) run loads it back and reports zero preprocessing edge
    ops.  Recorded at the top level, outside ``workloads`` — it is
    informational, never gated: the row documents how much
    preprocessing the store saves the *next* job (the paper's Figure 8
    amortization argument), not a performance contract.
    """
    import tempfile

    from repro.runconfig import configured
    from repro.store import ArtifactStore
    from repro.trace.recorder import TraceRecorder

    def one_run() -> dict:
        recorder = TraceRecorder()
        outcome = run_workload(
            "SLFE",
            "SSSP",
            "LJ",
            num_nodes=num_nodes,
            scale_divisor=scale_divisor,
            recorder=recorder,
        )
        snapshot = _registry_snapshot(recorder)
        return {
            "preprocessing_edge_ops": snapshot["preprocessing_edge_ops"],
            "modeled_preprocessing_seconds": (
                outcome.runtime.preprocessing_seconds
            ),
        }

    with tempfile.TemporaryDirectory() as root:
        store = ArtifactStore(root)
        with configured(store=store):
            cold = one_run()
            warm = one_run()
    guidance = store.stats.by_kind.get("guidance", {})
    return {
        "workload": "SSSP/LJ/SLFE",
        "cold": cold,
        "warm": warm,
        "guidance_hits": guidance.get("hit", 0),
        "guidance_misses": guidance.get("miss", 0),
    }


def _async_scheduling_entry(scale_divisor: int, num_nodes: int) -> dict:
    """One row per async round scheduler on the same PR workload.

    The novel redundancy-reduction composition the async engine makes
    possible: SLFE's lastIter guidance reused as a *scheduling
    priority* (process shallow-convergence vertices first), compared
    against pure pending-delta magnitude and plain FIFO activation
    order.  The comparison metric is updates-to-convergence — how many
    vertex-value writes each discipline needs to drive the pending
    delta mass under the tolerance.
    """
    from repro.core.async_engine import SCHEDULERS
    from repro.obs import registry_from_trace
    from repro.trace.recorder import TraceRecorder

    rows: Dict[str, dict] = {}
    for scheduler in SCHEDULERS:
        recorder = TraceRecorder()
        outcome = run_workload(
            "Async",
            ASYNC_SCHEDULING_APP,
            ASYNC_SCHEDULING_GRAPH,
            num_nodes=num_nodes,
            scale_divisor=scale_divisor,
            recorder=recorder,
            scheduler=scheduler,
        )
        metrics = outcome.result.metrics
        registry = registry_from_trace(recorder)
        rows[scheduler] = {
            "rounds": outcome.result.iterations,
            "updates_to_convergence": metrics.total_updates,
            "edge_ops": metrics.total_edge_ops,
            "messages": metrics.total_messages,
            "scheduled_vertices": int(
                registry.total("repro_async_scheduled_vertices")
            ),
            "deferred_vertices": int(
                registry.total("repro_async_deferred_vertices")
            ),
            # The gauge holds the mass after the run's last round.
            "final_delta_mass": float(
                registry.total("repro_async_pending_mass")
            ),
        }
    return {
        "app": ASYNC_SCHEDULING_APP,
        "graph": ASYNC_SCHEDULING_GRAPH,
        "metric": "updates_to_convergence",
        "schedulers": rows,
        "fewest_updates": min(
            rows, key=lambda s: rows[s]["updates_to_convergence"]
        ),
    }


def run_matrix(
    apps: Optional[List[str]] = None,
    graphs: Optional[List[str]] = None,
    engines: Optional[List[str]] = None,
    scale_divisor: int = DEFAULT_SCALE,
    num_nodes: int = 8,
) -> dict:
    """Run the workload matrix and return the BENCH payload."""
    apps = apps or DEFAULT_APPS
    graphs = graphs or DEFAULT_GRAPHS
    engines = engines or DEFAULT_ENGINES
    entries: Dict[str, dict] = {}
    from repro.trace.recorder import TraceRecorder

    for app_name in apps:
        for graph_key in graphs:
            for engine_name in engines:
                recorder = TraceRecorder()
                outcome = run_workload(
                    engine_name,
                    app_name,
                    graph_key,
                    num_nodes=num_nodes,
                    scale_divisor=scale_divisor,
                    recorder=recorder,
                )
                key = "%s/%s/%s" % (app_name, graph_key, engine_name)
                metrics = outcome.result.metrics
                entries[key] = {
                    "modeled_seconds": outcome.runtime.execution_seconds,
                    "edge_ops": metrics.total_edge_ops,
                    "messages": metrics.total_messages,
                    "supersteps": outcome.result.iterations,
                    "registry": _registry_snapshot(recorder),
                }
    entries[FAULTS_KEY] = _faults_entry(scale_divisor, num_nodes)
    return {
        "schema_version": SCHEMA_VERSION,
        "scale_divisor": scale_divisor,
        "num_nodes": num_nodes,
        "workloads": entries,
        # Informational, never gated (compare() only reads "workloads").
        "cache_amortization": _cache_amortization_entry(
            scale_divisor, num_nodes
        ),
        "async_scheduling": _async_scheduling_entry(
            scale_divisor, num_nodes
        ),
    }


def validate(payload: dict) -> None:
    """Raise ``ValueError`` unless ``payload`` matches the schema."""
    if not isinstance(payload, dict):
        raise ValueError("BENCH payload must be an object")
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            "unsupported schema_version %r (expected %d)"
            % (payload.get("schema_version"), SCHEMA_VERSION)
        )
    for field in ("scale_divisor", "num_nodes"):
        if not isinstance(payload.get(field), int):
            raise ValueError("missing integer field %r" % field)
    workloads_obj = payload.get("workloads")
    if not isinstance(workloads_obj, dict) or not workloads_obj:
        raise ValueError("'workloads' must be a non-empty object")
    for key, entry in workloads_obj.items():
        if not isinstance(entry, dict):
            raise ValueError("workload %r is not an object" % key)
        for metric in GATED_METRICS:
            if not isinstance(entry.get(metric), (int, float)):
                raise ValueError(
                    "workload %r is missing numeric metric %r" % (key, metric)
                )


def compare(
    current: dict, baseline: dict, tolerance: float = DEFAULT_TOLERANCE
) -> List[str]:
    """Regression messages for gated metrics that grew past tolerance.

    Only *increases* count: doing less modeled work / sending fewer
    messages than the baseline is an improvement, not a regression.
    Workloads present in only one of the two files are skipped (the
    matrix is configurable) but noted.  Raises ``ValueError`` for a
    NaN, infinite or negative ``tolerance``.
    """
    _check_tolerance(tolerance)
    problems: List[str] = []
    base_workloads = baseline.get("workloads", {})
    for key, entry in current.get("workloads", {}).items():
        base = base_workloads.get(key)
        if base is None:
            continue
        for metric in GATED_METRICS:
            old = float(base[metric])
            new = float(entry[metric])
            limit = old * (1.0 + tolerance)
            if old == 0:
                # Any growth from a zero baseline is a regression.
                limit = 0.0
            if new > limit:
                problems.append(
                    "%s: %s regressed %s -> %s (tolerance %.0f%%)"
                    % (key, metric, base[metric], entry[metric],
                       tolerance * 100)
                )
    return problems


def _positive_int(name: str):
    """Argparse type: integer >= 1 (0 nodes would otherwise surface as
    an opaque numpy/ClusterConfig failure deep inside the run)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("%s must be an integer" % name)
        if value < 1:
            raise argparse.ArgumentTypeError(
                "%s must be >= 1 (got %d)" % (name, value)
            )
        return value

    return parse


def _check_tolerance(value: float) -> float:
    # `new > old * (1 + nan)` is never true: a non-finite or negative
    # tolerance would switch the gate off without saying so.
    if not (math.isfinite(value) and value >= 0):
        raise ValueError("tolerance must be finite and >= 0 (got %r)" % value)
    return value


def _tolerance(text: str) -> float:
    """Argparse type: the values :func:`compare` accepts."""
    try:
        return _check_tolerance(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.regression",
        description="Run the perf-regression workload matrix.",
    )
    parser.add_argument("--out", default="BENCH_pr.json",
                        help="output JSON path (default: BENCH_pr.json)")
    parser.add_argument("--baseline", default=None,
                        help="previous BENCH_pr.json to compare against")
    parser.add_argument("--tolerance", type=_tolerance,
                        default=DEFAULT_TOLERANCE,
                        help="relative growth allowed per gated metric "
                        "(default: 0.10)")
    parser.add_argument("--scale", type=_positive_int("scale"),
                        default=DEFAULT_SCALE,
                        help="graph scale divisor (default: 4000)")
    parser.add_argument("--nodes", type=_positive_int("nodes"), default=8,
                        help="cluster size (default: 8)")
    parser.add_argument("--apps", nargs="+", default=None,
                        choices=workloads.APP_ORDER, metavar="APP")
    parser.add_argument("--graphs", nargs="+", default=None,
                        choices=sorted(DATASETS), metavar="GRAPH")
    parser.add_argument("--engines", nargs="+", default=None,
                        choices=workloads.ENGINE_NAMES + ["SLFE-noRR"],
                        metavar="ENGINE")
    args = parser.parse_args(argv)

    # A broken baseline is diagnosed before the matrix runs, not after.
    baseline = None
    if args.baseline:
        baseline = _load_baseline(args.baseline)
        if baseline is None:
            return 2

    payload = run_matrix(
        apps=args.apps,
        graphs=args.graphs,
        engines=args.engines,
        scale_divisor=args.scale,
        num_nodes=args.nodes,
    )
    validate(payload)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s (%d workloads)" % (args.out, len(payload["workloads"])))

    async_section = payload.get("async_scheduling")
    if async_section is not None:
        rows = async_section["schedulers"]
        print(
            "async_scheduling (%s/%s): %s — fewest updates: %s"
            % (
                async_section["app"],
                async_section["graph"],
                ", ".join(
                    "%s=%d" % (name, rows[name]["updates_to_convergence"])
                    for name in rows
                ),
                async_section["fewest_updates"],
            )
        )

    if baseline is not None:
        missing = sorted(
            set(baseline.get("workloads", {}))
            - set(payload.get("workloads", {}))
        )
        extra = sorted(
            set(payload.get("workloads", {}))
            - set(baseline.get("workloads", {}))
        )
        if missing:
            print("note: baseline workloads not in this run (ungated): %s"
                  % ", ".join(missing))
        if extra:
            print("note: new workloads absent from baseline (ungated): %s"
                  % ", ".join(extra))
        problems = compare(payload, baseline, tolerance=args.tolerance)
        if problems:
            for line in problems:
                print("REGRESSION %s" % line, file=sys.stderr)
            return 1
        print("no regressions against %s" % args.baseline)
    return 0


def _load_baseline(path: str) -> Optional[dict]:
    """Load and validate a baseline file, or explain why it can't be.

    A missing, empty, truncated, or schema-less ``BENCH_pr.json`` is an
    operator mistake (wrong path, interrupted generation run), not a
    code path worth a traceback: print one actionable line to stderr and
    let :func:`main` exit with status 2, distinct from the regression
    exit status 1.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
    except OSError as exc:
        print("error: cannot read baseline %s: %s" % (path, exc),
              file=sys.stderr)
        return None
    except json.JSONDecodeError as exc:
        print("error: baseline %s is not valid JSON (%s); regenerate it "
              "with --out" % (path, exc), file=sys.stderr)
        return None
    try:
        validate(baseline)
    except ValueError as exc:
        print("error: baseline %s does not match the BENCH schema: %s"
              % (path, exc), file=sys.stderr)
        return None
    return baseline


if __name__ == "__main__":
    sys.exit(main())
