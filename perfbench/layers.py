"""Which callables each protocol step wraps, and what the spans mean.

The target lists name the layer boundaries (module = layer).  Each
target books its span's *self* time to one per-layer metric, so within
a traced job the ``*_s`` metrics of the main thread add up to the job's
wall clock — the part not inside any wrapped callee lands in
``core.engine.self_s`` (superstep loop, RR/EC masks, apply glue).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from repro import ooc as ooc_mod
from repro.apps import SSSP, ConnectedComponents, PageRank
from repro.apps.base import MinMaxApplication
from repro.bench.workloads import experiment_cluster
from repro.cluster.cluster import SimulatedCluster
from repro.cluster.costmodel import CostModel
from repro.cluster.metrics import MetricsCollector
from repro.core import engine as engine_mod
from repro.core import rrg as rrg_mod
from repro.core import runtime as runtime_mod
from repro.core.engine import RunResult, SLFEEngine
from repro.core.runtime import SerialDispatch
from repro.core.state import StabilityTracker
from repro.graph import generators
from repro.graph import shards as shards_mod
from repro.graph.csr import CSR
from repro.graph.graph import Graph
from repro.graph.shards import ShardSlice
from repro.ooc import ShardStreamDispatch
from repro.parallel import ParallelExecutor
from repro.partition.chunking import ChunkingPartitioner
from repro.store import ArtifactStore
from repro.trace.recorder import TraceRecorder

from perfbench.spans import Span, Target, self_ns

#: The harness opens this span around engine construction + run.
JOB_ROOT = "perfbench.job"
ENGINE_SELF = "core.engine.self_s"

_EXPAND_SOURCES = "repro.graph.csr.CSR.expand_sources"
_STREAM_GET = "repro.ooc._ShardStream.get"
_DECODE_SHARD = "repro.graph.shards.decode_shard"
_RECORDER_EMIT = "repro.trace.recorder.TraceRecorder.emit"


def modeled_exec_seconds(result: RunResult) -> float:
    """The cost model's execution time for a job run on ``run_job``'s
    cluster (preprocessing excluded, as the paper reports)."""
    config = experiment_cluster(num_nodes=8)
    return CostModel(config).evaluate(result.metrics).execution_seconds


# ----------------------------------------------------------------------
# count hooks: read at the same boundary the span times
# ----------------------------------------------------------------------
def _edges_expanded(args, result) -> Dict[str, float]:
    return {"edges": result[0].size}


def _blob_bytes(args, result) -> Dict[str, float]:
    return {"bytes": len(result)}


def _pool_stats(executor, stats) -> Dict[str, float]:
    counts = {"busy.%d" % entry["worker"]: entry["busy_seconds"]
              for entry in stats}
    counts["steals"] = sum(entry["steals"] for entry in stats)
    dispatch = executor.last_dispatch
    counts["messages"] = dispatch["messages"] if dispatch else 0
    return counts


def _pool_phase(args, result) -> Dict[str, float]:
    return _pool_stats(args[0], result)


def _pool_push(args, result) -> Dict[str, float]:
    return _pool_stats(args[0], result[3])


# ----------------------------------------------------------------------
# targets
# ----------------------------------------------------------------------
def setup_targets() -> List[Target]:
    build = "graph.generators.build_s"
    return [
        Target(generators, "social_network", build),
        Target(generators, "grid_2d", build),
        Target(generators, "random_weights", build),
        Target(CSR, "from_edges", "graph.csr.build_s"),
        Target(CSR, "transpose", "graph.csr.build_s"),
        Target(ArtifactStore, "put_sharded_graph", "ooc.spill_s"),
    ]


def preprocess_targets() -> List[Target]:
    return [Target(rrg_mod, "generate_guidance", "core.rrg.generate_s")]


def job_targets(backend: str) -> List[Target]:
    """Targets for one traced job on ``backend``.

    Pool workers are not instrumented: under ``fork`` they would
    inherit every wrapper, so the kernel-level targets (CSR expansion,
    edge kernels, grouped reduce) are left out on the parallel backend
    and ``parallel.*`` comes from the parent-side phase methods and the
    per-worker stats they return.
    """
    accounting = "cluster.accounting_s"
    targets = [
        Target(SLFEEngine, "__init__", ENGINE_SELF),
        Target(SLFEEngine, "run_arithmetic", ENGINE_SELF),
        Target(SLFEEngine, "run_minmax", ENGINE_SELF),
        Target(engine_mod, "choose_mode", "core.frontier.choose_mode_s"),
        Target(engine_mod, "segmented_improvements",
               "core.accounting.segmented_improvements_s"),
        Target(StabilityTracker, "observe", "core.state.observe_s"),
        Target(StabilityTracker, "thaw", "core.state.thaw_s"),
        Target(ChunkingPartitioner, "partition", "partition.chunking_s"),
        Target(SimulatedCluster, "__init__", "cluster.init_s"),
        Target(SimulatedCluster, "messages_for_changed", accounting),
        Target(SimulatedCluster, "ops_per_node_for_destinations", accounting),
        Target(SimulatedCluster, "ops_per_node_for_sources", accounting),
        Target(MinMaxApplication, "prepare", "apps.prepare_s"),
        Target(PageRank, "bind", "apps.prepare_s"),
        Target(Graph, "undirected_view", "graph.graph.undirected_view_s"),
        Target(PageRank, "apply", "apps.apply_s"),
        Target(MinMaxApplication, "better", "apps.apply_s"),
        Target(CSR, "degrees", "graph.csr.degrees_s"),
        Target(CSR, "from_edges", "graph.csr.job_build_s"),
        Target(CSR, "transpose", "graph.csr.job_build_s"),
        Target(TraceRecorder, "emit", "trace.emit_s"),
    ]
    targets += [
        Target(MetricsCollector, method, accounting)
        for method in (
            "begin_iteration", "end_iteration", "add_edge_ops",
            "add_vertex_ops", "add_updates", "add_messages", "set_frontier",
        )
    ]
    if backend != "parallel":
        kernel = "apps.edge_kernel_s"
        targets += [
            Target(CSR, "expand_sources", "graph.csr.expand_s",
                   _edges_expanded),
            Target(CSR, "expand_positions", "graph.csr.expand_s"),
            Target(runtime_mod, "grouped_reduce",
                   "core.runtime.grouped_reduce_s"),
            Target(PageRank, "edge_contributions", kernel),
            Target(SSSP, "edge_candidates", kernel),
            Target(ConnectedComponents, "edge_candidates", kernel),
        ]
    if backend == "serial":
        targets += [
            Target(SerialDispatch, "__init__", "core.runtime.dispatch_init_s"),
            Target(SerialDispatch, "gather", "core.runtime.gather_s"),
            Target(SerialDispatch, "pull_apply", "core.runtime.pull_apply_s"),
            Target(SerialDispatch, "push", "core.runtime.push_s"),
            Target(SerialDispatch, "expand_out_dsts",
                   "core.runtime.expand_out_dsts_s"),
        ]
    elif backend == "parallel":
        phase = "parallel.phase_s"
        targets += [
            Target(ParallelExecutor, "__init__", "parallel.pool_start_s"),
            Target(ParallelExecutor, "gather", phase, _pool_phase),
            Target(ParallelExecutor, "pull_apply", phase, _pool_phase),
            Target(ParallelExecutor, "push", phase, _pool_push),
            Target(ParallelExecutor, "expand_out_dsts",
                   "core.runtime.expand_out_dsts_s"),
            Target(ParallelExecutor, "close", "parallel.close_s"),
        ]
    else:
        phase = "ooc.phase_s"
        targets += [
            Target(ShardStreamDispatch, "__init__",
                   "core.runtime.dispatch_init_s"),
            Target(ShardStreamDispatch, "gather", phase),
            Target(ShardStreamDispatch, "pull_apply", phase),
            Target(ShardStreamDispatch, "push", phase),
            Target(ShardStreamDispatch, "expand_out_dsts", phase),
            # The stream is private, but it is the only boundary where
            # "blocked on a shard" and "cache hit" can be told apart.
            Target(ooc_mod._ShardStream, "get", phase),
            Target(shards_mod, "decode_shard", "graph.shards.decode_s"),
            Target(ShardSlice, "expand_sources", "graph.shards.expand_s"),
            Target(ArtifactStore, "get_shard_blob", "store.get_shard_blob_s",
                   _blob_bytes),
        ]
    return targets


# ----------------------------------------------------------------------
# spans -> metrics
# ----------------------------------------------------------------------
def self_seconds_by_metric(spans: List[Span]) -> Dict[str, float]:
    """Self time summed per metric, over every thread."""
    totals: Dict[str, float] = defaultdict(float)
    for span, own in self_ns(spans).items():
        totals[span.metric] += own / 1e9
    return dict(totals)


def _count_totals(spans: List[Span]) -> Dict[str, float]:
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        for key, value in (span.counts or {}).items():
            totals[key] += value
    return totals


def traced_job_metrics(
    spans: List[Span], result: RunResult, num_workers: int
) -> Dict[str, float]:
    """Every per-layer metric one traced job yields by itself.

    ``spans[0]`` is the job's root span (the harness opens it first).
    """
    root = spans[0]
    metrics = self_seconds_by_metric(spans)
    counts = _count_totals(spans)
    modes = result.metrics.mode_counts()
    supersteps = result.iterations
    metrics.update({
        "perfbench.traced_job_s": root.duration_ns / 1e9,
        "perfbench.spans": len(spans),
        "graph.csr.expand_calls": sum(
            1 for span in spans if span.name == _EXPAND_SOURCES
        ),
        "graph.csr.expand_edges": counts["edges"],
        "core.engine.supersteps": supersteps,
        "core.engine.pull_supersteps": modes.get("pull", 0),
        "core.engine.push_supersteps": modes.get("push", 0),
        "core.engine.self_per_superstep_us": (
            metrics.get(ENGINE_SELF, 0.0) / supersteps * 1e6
            if supersteps else 0.0
        ),
        "core.engine.edge_ops": result.metrics.total_edge_ops,
        "core.rrg.skipped_computations": result.metrics.total_skipped,
        "cluster.messages": result.metrics.total_messages,
        "cluster.modeled_exec_s": modeled_exec_seconds(result),
        "trace.events": sum(
            1 for span in spans if span.name == _RECORDER_EMIT
        ),
    })

    phase_s = metrics.get("parallel.phase_s", 0.0)
    if phase_s:
        busy = [value for key, value in counts.items()
                if key.startswith("busy.")]
        total_busy = sum(busy)
        metrics.update({
            "parallel.worker_busy_s": total_busy,
            "parallel.wait_frac": 1.0 - total_busy / (num_workers * phase_s),
            "parallel.imbalance": (
                max(busy) * len(busy) / total_busy if total_busy else 0.0
            ),
            "parallel.steals": counts["steals"],
            "parallel.control_messages": counts["messages"],
        })

    gets = {span for span in spans if span.name == _STREAM_GET}
    if gets:
        misses = sum(
            1 for span in spans
            if span.name == _DECODE_SHARD and span.parent in gets
        )
        metrics.update({
            # Inclusive, unlike the self times: the main thread waits
            # for the fetch and the decode it triggers.
            "ooc.stall_s": sum(span.duration_ns for span in gets) / 1e9,
            "ooc.cache_hit_frac": 1.0 - misses / len(gets),
            "graph.shards.decode_calls": sum(
                1 for span in spans if span.name == _DECODE_SHARD
            ),
            "store.shard_bytes_read": counts["bytes"],
        })
    return metrics
