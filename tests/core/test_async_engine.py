"""Async delta-accumulative engine: pinned oracle cases + unit tests.

The differential contract (``tests/test_oracle.py``, point 5): under
every scheduler, ``AsyncEngine`` reaches :mod:`repro.apps.reference`'s
fixed point — min/max apps byte for byte, PageRank within the oracle's
reference tolerance.  The cases here pin it on seeded random graphs.
"""

import numpy as np
import pytest

from repro.apps import PageRank, SSSP, TunkRank
from repro.cluster.faults import FaultPlan
from repro.core.async_engine import SCHEDULERS, AsyncEngine
from repro.errors import EngineError
from repro.trace import recorder as trace_events
from repro.trace.recorder import TraceRecorder
from tests.conftest import make_random_graph
from tests.test_oracle import check_async

SEEDS = (0, 3, 11)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("seed", SEEDS)
class TestAsyncMatchesSerialFixedPoint:
    def test_pagerank(self, scheduler, seed):
        g = make_random_graph(80, 400, seed=seed, weighted=False)
        check_async(g, "PR", None, scheduler=scheduler)

    def test_sssp(self, scheduler, seed):
        g = make_random_graph(80, 400, seed=seed, weighted=True)
        root = int(np.argmax(g.out_degrees()))
        check_async(g, "SSSP", root, scheduler=scheduler)

    def test_connected_components(self, scheduler, seed):
        g = make_random_graph(80, 400, seed=seed, weighted=False)
        check_async(g, "CC", None, scheduler=scheduler)


def test_sssp_figure1_exact(figure1):
    graph, root = figure1
    result = AsyncEngine(graph).run_minmax(SSSP(), root=root)
    assert result.values.tolist() == [0.0, 1.0, 2.0, 2.0, 3.0, 4.0]


def test_unreachable_vertices_stay_infinite():
    from repro.graph.graph import Graph

    g = Graph.from_edges(4, [[0, 1]], np.array([2.0]))
    result = AsyncEngine(g).run_minmax(SSSP(), root=0)
    assert result.values.tolist() == [0.0, 2.0, np.inf, np.inf]


# ----------------------------------------------------------------------
# typed rejections
# ----------------------------------------------------------------------
class TestAsyncRejections:
    def test_non_accumulative_app_is_rejected(self):
        g = make_random_graph(30, 120, seed=1, weighted=False)
        with pytest.raises(EngineError, match="accumulative"):
            AsyncEngine(g).run_arithmetic(TunkRank())

    def test_parallel_backend_is_rejected(self):
        g = make_random_graph(30, 120, seed=1, weighted=False)
        with pytest.raises(EngineError, match="serial-only"):
            AsyncEngine(g, backend="parallel")

    def test_fault_plan_is_rejected(self):
        g = make_random_graph(30, 120, seed=1, weighted=True)
        plan = FaultPlan.parse("crash@2:1", num_nodes=8)
        engine = AsyncEngine(g, fault_plan=plan)
        with pytest.raises(EngineError, match="no superstep clock"):
            engine.run_minmax(SSSP(), root=0)

    def test_lastiter_without_rr_is_rejected(self):
        g = make_random_graph(30, 120, seed=1, weighted=True)
        engine = AsyncEngine(g, scheduler="lastiter", enable_rr=False)
        with pytest.raises(EngineError, match="lastiter"):
            engine.run_minmax(SSSP(), root=0)

    def test_unknown_scheduler_is_rejected(self):
        g = make_random_graph(10, 20, seed=1, weighted=False)
        with pytest.raises(EngineError, match="unknown async scheduler"):
            AsyncEngine(g, scheduler="random")

    def test_policy_kwargs_validated(self):
        g = make_random_graph(10, 20, seed=1, weighted=False)
        with pytest.raises(EngineError, match="batch_fraction"):
            AsyncEngine(g, batch_fraction=0.0)
        with pytest.raises(EngineError, match="min_batch"):
            AsyncEngine(g, min_batch=0)

    # Options anchored on the superstep clock are refused at run start,
    # not silently dropped from the result.
    def test_checkpoint_every_is_rejected(self):
        g = make_random_graph(30, 120, seed=1, weighted=False)
        engine = AsyncEngine(g, checkpoint_every=2)
        with pytest.raises(EngineError, match="no superstep clock.*checkpoint"):
            engine.run_arithmetic(PageRank())

    def test_rebalancer_is_rejected(self):
        from repro.cluster.rebalance import DynamicRebalancer

        g = make_random_graph(30, 120, seed=1, weighted=True)
        engine = AsyncEngine(g, rebalancer=DynamicRebalancer())
        with pytest.raises(EngineError, match="no superstep clock.*rebalancer"):
            engine.run_minmax(SSSP(), root=0)

    def test_record_per_vertex_ops_is_rejected(self):
        g = make_random_graph(30, 120, seed=1, weighted=False)
        engine = AsyncEngine(g, record_per_vertex_ops=True)
        with pytest.raises(EngineError, match="no superstep clock.*per-vertex"):
            engine.run_arithmetic(PageRank())


# ----------------------------------------------------------------------
# round trace + engine surface
# ----------------------------------------------------------------------
class TestAsyncTrace:
    def test_rounds_are_traced_with_scheduler_label(self):
        g = make_random_graph(60, 300, seed=2, weighted=False)
        rec = TraceRecorder()
        engine = AsyncEngine(g, scheduler="delta", recorder=rec)
        result = engine.run_arithmetic(PageRank())
        rounds = rec.events_named(trace_events.ASYNC_ROUND)
        assert len(rounds) == result.iterations > 0
        last = rounds[-1].payload
        assert last["scheduler"] == "delta"
        assert last["delta_mass"] <= PageRank().default_tolerance
        assert all(
            e.payload["scheduled"] + e.payload["skipped"] > 0
            for e in rounds
        )

    def test_engine_exposes_scheduler(self):
        g = make_random_graph(10, 20, seed=1, weighted=False)
        assert AsyncEngine(g, scheduler="fifo").scheduler == "fifo"
        assert AsyncEngine(g).scheduler == "delta"

    def test_lastiter_run_pays_preprocessing(self):
        g = make_random_graph(60, 300, seed=2, weighted=False)
        rec = TraceRecorder()
        engine = AsyncEngine(g, scheduler="lastiter", recorder=rec)
        engine.run_arithmetic(PageRank())
        pre = rec.events_named(trace_events.PREPROCESSING)
        assert pre and pre[-1].payload["edge_ops"] > 0

    def test_other_schedulers_skip_preprocessing(self):
        g = make_random_graph(60, 300, seed=2, weighted=False)
        rec = TraceRecorder()
        AsyncEngine(g, scheduler="delta", recorder=rec).run_arithmetic(
            PageRank()
        )
        pre = rec.events_named(trace_events.PREPROCESSING)
        assert pre and pre[-1].payload["edge_ops"] == 0
