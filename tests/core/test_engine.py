"""Integration tests for the SLFE engine against sequential oracles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps import (
    BFS,
    ConnectedComponents,
    HeatSimulation,
    NumPaths,
    PageRank,
    SpMV,
    SSSP,
    TunkRank,
    WidestPath,
    reference,
)
from repro.bench.workloads import ARITH_TOLERANCE, experiment_cluster
from repro.cluster.config import ClusterConfig
from repro.core.engine import SLFEEngine
from repro.core.rrg import generate_guidance
from repro.errors import EngineError
from repro.graph import datasets, generators
from repro.graph.graph import Graph
from repro.partition import HashPartitioner, RandomVertexCutPartitioner
from repro.trace import recorder as trace_events
from repro.trace.recorder import TraceRecorder

from tests.strategies.graphs import seeded_digraphs
from tests.strategies.backends import Case
from tests.test_oracle import check


@pytest.fixture(scope="module")
def social():
    return datasets.load("LJ", scale_divisor=8000, weighted=True)


@pytest.fixture(scope="module", params=[True, False], ids=["rr", "norr"])
def engine_factory(request):
    def make(graph, **kwargs):
        return SLFEEngine(graph, enable_rr=request.param, **kwargs)

    make.enable_rr = request.param
    return make


class TestMinMaxCorrectness:
    def test_sssp_figure1(self, figure1, engine_factory):
        graph, root = figure1
        result = engine_factory(graph).run_minmax(SSSP(), root=root)
        assert result.values.tolist() == [0.0, 1.0, 2.0, 2.0, 3.0, 4.0]

    def test_sssp_matches_dijkstra(self, social, engine_factory):
        root = int(np.argmax(social.out_degrees()))
        result = engine_factory(social).run_minmax(SSSP(), root=root)
        assert np.allclose(result.values, reference.dijkstra(social, root))

    def test_sssp_unreachable_stay_infinite(self, engine_factory):
        g = Graph.from_edges(4, [[0, 1]], np.array([2.0]))
        result = engine_factory(g).run_minmax(SSSP(), root=0)
        assert result.values.tolist() == [0.0, 2.0, np.inf, np.inf]

    def test_sssp_from_a_sink_reaches_nothing(self, engine_factory):
        # path 0 -> 1 -> 2 rooted at its sink: no edge leaves vertex 2.
        g = generators.path_graph(3)
        result = engine_factory(g).run_minmax(SSSP(), root=2)
        assert result.values.tolist() == [np.inf, np.inf, 0.0]

    def test_bfs_matches_levels(self, social, engine_factory):
        root = int(np.argmax(social.out_degrees()))
        result = engine_factory(social).run_minmax(BFS(), root=root)
        assert np.array_equal(result.values, reference.bfs_distances(social, root))

    def test_cc_matches_union_find(self, social, engine_factory):
        result = engine_factory(social).run_minmax(ConnectedComponents())
        expected = reference.connected_components(social)
        assert np.array_equal(result.values.astype(np.int64), expected)

    def test_cc_two_islands(self, two_islands, engine_factory):
        result = engine_factory(two_islands).run_minmax(ConnectedComponents())
        assert result.values.astype(int).tolist() == [0, 0, 0, 3, 3, 3]

    def test_widest_path_matches_reference(self, social, engine_factory):
        root = int(np.argmax(social.out_degrees()))
        result = engine_factory(social).run_minmax(WidestPath(), root=root)
        assert np.allclose(result.values, reference.widest_path(social, root))

    def test_sssp_requires_root(self, diamond, engine_factory):
        with pytest.raises(EngineError):
            engine_factory(diamond).run_minmax(SSSP())

    def test_sssp_rejects_negative_weights(self, engine_factory):
        g = Graph.from_edges(2, [[0, 1]], np.array([-1.0]))
        with pytest.raises(EngineError):
            engine_factory(g).run_minmax(SSSP(), root=0)

    def test_empty_graph(self, engine_factory):
        g = Graph.from_edges(3, [])
        result = engine_factory(g).run_minmax(ConnectedComponents())
        assert result.values.tolist() == [0.0, 1.0, 2.0]


class TestArithmeticCorrectness:
    def test_pagerank_close_to_power_iteration(self, social, engine_factory):
        result = engine_factory(social).run_arithmetic(
            PageRank(), tolerance=1e-10
        )
        expected = reference.pagerank(social, tolerance=1e-12)
        assert np.allclose(result.values, expected, atol=5e-4, rtol=1e-3)
        assert result.converged

    def test_pagerank_exact_without_rr(self, social):
        engine = SLFEEngine(social, enable_rr=False, stability_epsilon=0.0)
        result = engine.run_arithmetic(PageRank(), tolerance=1e-12)
        expected = reference.pagerank(social, tolerance=1e-12)
        assert np.allclose(result.values, expected, atol=1e-9)

    def test_tunkrank(self, social, engine_factory):
        result = engine_factory(social).run_arithmetic(
            TunkRank(), tolerance=1e-10
        )
        expected = reference.tunkrank(social, tolerance=1e-12)
        assert np.allclose(result.values, expected, atol=5e-4, rtol=1e-3)

    def test_spmv_single_round(self, diamond, engine_factory):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        result = engine_factory(diamond).run_arithmetic(SpMV(x))
        assert np.allclose(result.values, reference.spmv(diamond, x))
        assert result.iterations == 1

    def test_heat_simulation(self, social, engine_factory):
        initial = np.zeros(social.num_vertices)
        initial[0] = 100.0
        # Run a fixed number of explicit steps on both sides.
        result = engine_factory(social).run_arithmetic(
            HeatSimulation(initial.copy(), conductivity=0.3),
            max_iterations=10,
            tolerance=0.0,
        )
        expected = reference.heat_simulation(
            social, initial, conductivity=0.3, iterations=10
        )
        if engine_factory.enable_rr:
            assert np.allclose(result.values, expected, atol=1e-5)
        else:
            assert np.allclose(result.values, expected)

    def test_numpaths(self, engine_factory):
        g = generators.random_dag(40, 160, seed=3)
        result = engine_factory(g).run_arithmetic(NumPaths(root=0))
        assert np.allclose(result.values, reference.num_paths(g, 0))

    def test_nonconvergence_reported(self, social):
        engine = SLFEEngine(social, enable_rr=False)
        result = engine.run_arithmetic(PageRank(), max_iterations=2, tolerance=0.0)
        assert not result.converged
        assert result.iterations == 2


class TestRedundancyReduction:
    def test_rr_reduces_minmax_work_when_windows_exist(self):
        # Chain with a long skip edge: vertex windows are wide, so
        # start-late must strictly reduce gathers.
        edges = [[i, i + 1] for i in range(30)] + [[0, 30], [0, 15]]
        g = Graph.from_edges(31, edges)
        base = SLFEEngine(g, enable_rr=False).run_minmax(SSSP(), root=0)
        rr = SLFEEngine(g, enable_rr=True).run_minmax(SSSP(), root=0)
        assert np.array_equal(base.values, rr.values)
        assert rr.metrics.total_edge_ops <= base.metrics.total_edge_ops

    def test_rr_reduces_pagerank_work(self):
        g = datasets.load("LJ", scale_divisor=8000)
        base = SLFEEngine(g, enable_rr=False).run_arithmetic(
            PageRank(), tolerance=1e-10
        )
        rr = SLFEEngine(g, enable_rr=True).run_arithmetic(
            PageRank(), tolerance=1e-10
        )
        assert rr.metrics.total_edge_ops < base.metrics.total_edge_ops

    def test_rr_records_skipped_vertices(self):
        g = datasets.load("LJ", scale_divisor=8000)
        rr = SLFEEngine(g, enable_rr=True).run_arithmetic(
            PageRank(), tolerance=1e-10
        )
        assert rr.metrics.total_skipped > 0

    def test_a_fully_frozen_run_counts_only_supersteps_it_ran(self):
        """Finish-early can freeze every vertex; the superstep that finds
        nothing live never runs, so the result, the collector and the
        trace all count the same supersteps."""
        g = generators.social_network(
            300, avg_degree=10, shortcut_density=0.05, hub_bias=1.5, seed=3
        )
        recorder = TraceRecorder()
        result = SLFEEngine(
            g, config=experiment_cluster(num_nodes=4), recorder=recorder
        ).run_arithmetic(PageRank(), tolerance=ARITH_TOLERANCE)
        transitions = recorder.events_named(trace_events.EC_TRANSITION)
        assert transitions[-1].payload["live"] == 0  # it fully froze
        supersteps = len(recorder.events_named(trace_events.SUPERSTEP_END))
        assert result.iterations == len(result.metrics.records) == supersteps

    def test_guidance_attached_to_result(self, social):
        result = SLFEEngine(social, enable_rr=True).run_minmax(
            SSSP(), root=0
        )
        assert result.guidance is not None
        assert result.metrics.preprocessing_ops == result.guidance.edge_ops

    def test_no_guidance_without_rr(self, social):
        result = SLFEEngine(social, enable_rr=False).run_minmax(SSSP(), root=0)
        assert result.guidance is None
        assert result.metrics.preprocessing_ops == 0

    def test_precomputed_guidance_reused(self, social):
        guid = generate_guidance(social, [0])
        result = SLFEEngine(social, enable_rr=True).run_minmax(
            SSSP(), root=0, guidance=guid
        )
        assert result.guidance is guid

    def test_guidance_shape_validated(self, social, diamond):
        guid = generate_guidance(diamond, [0])
        with pytest.raises(EngineError):
            SLFEEngine(social, enable_rr=True).run_minmax(
                SSSP(), root=0, guidance=guid
            )


class TestDistributedAccounting:
    def test_multi_node_messages_recorded(self, social):
        cfg = ClusterConfig(num_nodes=4)
        result = SLFEEngine(social, config=cfg).run_minmax(SSSP(), root=0)
        assert result.metrics.total_messages > 0
        assert result.metrics.total_message_bytes > 0

    def test_single_node_never_messages(self, social):
        result = SLFEEngine(social).run_minmax(SSSP(), root=0)
        assert result.metrics.total_messages == 0

    def test_results_independent_of_node_count(self, social):
        root = int(np.argmax(social.out_degrees()))
        single = SLFEEngine(social).run_minmax(SSSP(), root=root)
        multi = SLFEEngine(
            social, config=ClusterConfig(num_nodes=8)
        ).run_minmax(SSSP(), root=root)
        assert np.array_equal(single.values, multi.values)

    def test_results_independent_of_partitioner(self, social):
        root = int(np.argmax(social.out_degrees()))
        cfg = ClusterConfig(num_nodes=4)
        chunked = SLFEEngine(social, config=cfg).run_minmax(SSSP(), root=root)
        hashed = SLFEEngine(
            social, config=cfg, partitioner=HashPartitioner()
        ).run_minmax(SSSP(), root=root)
        assert np.array_equal(chunked.values, hashed.values)

    def test_edge_partitioner_rejected(self, social):
        with pytest.raises(EngineError):
            SLFEEngine(social, partitioner=RandomVertexCutPartitioner())

    def test_per_vertex_ops_recording(self, social):
        engine = SLFEEngine(social, record_per_vertex_ops=True)
        result = engine.run_minmax(SSSP(), root=0)
        assert result.per_vertex_ops is not None
        assert len(result.per_vertex_ops) == result.iterations
        total = sum(int(ops.sum()) for _, ops in result.per_vertex_ops)
        assert total == result.metrics.total_edge_ops

    def test_mode_accounting_covers_all_iterations(self, social):
        result = SLFEEngine(social).run_minmax(SSSP(), root=0)
        counts = result.metrics.mode_counts()
        assert counts["push"] + counts["pull"] == result.iterations


# The differential oracle (tests/test_oracle.py) over small weighted
# digraphs on the serial backend, rooted at vertex 0.
_GRAPHS = seeded_digraphs(min_vertices=2, max_vertices=25, min_edges=1,
                          max_edges=80, weighted=True)


@given(_GRAPHS, st.booleans())
def test_sssp_always_matches_dijkstra(graph, enable_rr):
    check(Case(graph, "SSSP", 0, rr=enable_rr))


@given(_GRAPHS, st.booleans())
def test_cc_always_matches_union_find(graph, enable_rr):
    check(Case(graph, "CC", rr=enable_rr))


@given(_GRAPHS, st.booleans())
def test_widest_path_always_matches_reference(graph, enable_rr):
    check(Case(graph, "WP", 0, rr=enable_rr))


@given(_GRAPHS)
def test_pagerank_rr_close_to_reference(graph):
    check(Case(graph, "PR"))
