"""One ``run`` over every backend, and the knobs each backend draws.

A :class:`Case` is everything one engine run depends on: graph, app,
root, RR setting, backend, fault plan and the backend's knobs.  ``ooc``
draws a shard size giving at least three shards per direction where the
graph's rows allow it, and a cache of 1, 2, S or S + 1 shards (S the
in-direction's shard count: the serpentine scan reverses at every
turn-around, at some of them, or never); ``parallel`` runs two workers
and draws a block size of 1-8 task positions or the shipped one (which
floors blocks at the 256-vertex mini-chunk, so on a drawn graph every
phase would be a single block: no block boundaries, no steals).
"""

import dataclasses
from dataclasses import dataclass
from typing import Optional
from unittest import mock

from hypothesis import strategies as st

from repro.bench import workloads
from repro.bench.regression import _registry_snapshot
from repro.cluster.config import ClusterConfig
from repro.core.engine import SLFEEngine
from repro.core.frontier import DEFAULT_DENSE_DENOMINATOR
from repro.graph.graph import Graph
from repro.graph.shards import EDGE_BYTES, plan_shards
from repro.parallel import ParallelExecutor
from repro.runconfig import configured
from repro.trace.recorder import TraceRecorder

from tests.strategies import apps
from tests.strategies.apps import APPS
from tests.strategies.faults import NO_FAULTS, Plan
from tests.strategies.graphs import graphs

BACKENDS = ("serial", "ooc", "parallel")
#: Simulated nodes: enough for a crash to leave two survivors.
NODES = 3


@dataclass(frozen=True)
class Case:
    graph: Graph
    app: str
    root: Optional[int] = None
    rr: bool = True
    backend: str = "serial"
    plan: Plan = NO_FAULTS
    num_nodes: int = NODES
    #: The push/pull switch: pull past |E| / denominator active edges.
    denominator: int = DEFAULT_DENSE_DENOMINATOR
    workers: int = 2
    #: Task positions per pool block; ``None`` is the shipped rule.
    block: Optional[int] = None
    shard_mb: Optional[float] = None
    shard_cache: Optional[int] = None

    def but(self, **changes) -> "Case":
        return dataclasses.replace(self, **changes)


def stand_in(app, scale_divisor=workloads.DEFAULT_SCALE_DIVISOR, key="PK",
             **fields):
    """``app`` on a dataset stand-in, as ``run_workload`` loads it:
    weighted for SSSP and WP, rooted at the top out-degree vertex."""
    graph = workloads.load_graph(
        key, scale_divisor, weighted=workloads.app_needs_weights(app)
    )
    root = workloads.default_root(graph) if APPS[app].rooted else None
    return Case(graph, app, root, **fields)


def run(case):
    """``(result, recorder)`` of one traced run of ``case``."""
    app = APPS[case.app].factory()
    recorder = TraceRecorder()
    engine = SLFEEngine(
        case.graph, config=ClusterConfig(num_nodes=case.num_nodes),
        enable_rr=case.rr, dense_denominator=case.denominator,
        recorder=recorder, fault_plan=case.plan.faults,
        checkpoint_every=case.plan.checkpoint_every, backend=case.backend,
        num_workers=case.workers if case.backend == "parallel" else None,
    )
    knobs = {}
    if case.backend == "ooc":
        knobs = {"shard_mb": case.shard_mb, "shard_cache": case.shard_cache}
    blocks = mock.patch.object(
        ParallelExecutor, "_block_size",
        ParallelExecutor._block_size if case.block is None
        else lambda executor, count: case.block,
    )
    with configured(**knobs), blocks:
        if APPS[case.app].family == "arithmetic":
            result = engine.run_arithmetic(app)
        else:
            result = engine.run_minmax(app, root=case.root)
    return result, recorder


def fingerprint(result, recorder):
    """Everything a backend must reproduce byte for byte."""
    metrics = result.metrics
    return {
        "values": result.values.tobytes(),
        "iterations": result.iterations,
        "edge_ops": metrics.total_edge_ops,
        "messages": metrics.total_messages,
        "updates": metrics.total_updates,
        "retries": metrics.total_retries,
        "edge_ops_by_node": metrics.edge_ops_by_node().tolist(),
        "registry": _registry_snapshot(recorder),
    }


def _shard_mb(edges, unit):
    """A shard size of ``edges`` edges (0: one row and its zero-degree
    followers per shard)."""
    return (edges * (8 if unit else EDGE_BYTES) + 1) / 2**20


@st.composite
def ooc_knobs(draw, run_graph):
    """``{"shard_mb", "shard_cache"}`` for a run over ``run_graph``."""
    directions = (run_graph.in_csr, run_graph.out_csr)
    unit = run_graph.in_csr.unit_weights
    shard_mb = _shard_mb(
        draw(st.integers(0, max(run_graph.num_edges // 3, 0))), unit
    )
    if min(len(plan_shards(c, shard_mb)) for c in directions) < 3:
        shard_mb = _shard_mb(0, unit)
    shards = len(plan_shards(run_graph.in_csr, shard_mb))
    cache = draw(st.sampled_from(sorted({1, 2, max(shards, 1), shards + 1})))
    return {"shard_mb": shard_mb, "shard_cache": cache}


@st.composite
def cases(draw, backend, family):
    """A clean case on ``backend``: a graph from
    :func:`~tests.strategies.graphs.graphs`, an app of ``family`` that
    can run on it, its root, RR on or off, a push/pull switch and the
    backend's knobs."""
    graph = draw(graphs())
    name = draw(apps.names(family, graph))
    case = Case(graph, name, draw(apps.roots(name, graph)),
                draw(st.booleans()), backend,
                denominator=draw(st.sampled_from([2, 20, 1000])))
    if backend == "ooc":
        run_graph = (graph if family == "arithmetic"
                     else APPS[name].factory().prepare(graph))
        case = case.but(**draw(ooc_knobs(run_graph)))
    if backend == "parallel":
        case = case.but(block=draw(st.one_of(st.none(), st.integers(1, 8))))
    return case
