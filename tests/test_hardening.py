"""Failure-injection and adversarial-input tests.

A library release has to fail loudly and predictably on the inputs
users actually produce: NaN weights, empty graphs, degenerate clusters,
single vertices, all-identical weights, and graphs that are one giant
multi-edge.
"""

import numpy as np
import pytest

from repro.apps import (
    ConnectedComponents,
    PageRank,
    SSSP,
    WidestPath,
    reference,
)
from repro.baselines import GeminiEngine, OrderedEngine, PowerGraphEngine
from repro.cluster.config import ClusterConfig
from repro.core.engine import SLFEEngine
from repro.core.rrg import generate_guidance
from repro.errors import EngineError
from repro.graph.graph import Graph


def all_minmax_engines(graph, nodes=2):
    cfg = ClusterConfig(num_nodes=nodes)
    return [
        SLFEEngine(graph, config=cfg),
        GeminiEngine(graph, config=cfg),
        PowerGraphEngine(graph, config=cfg),
        OrderedEngine(graph),
    ]


class TestDegenerateGraphs:
    def test_single_vertex(self):
        g = Graph.from_edges(1, [])
        for engine in all_minmax_engines(g, nodes=1):
            result = engine.run_minmax(SSSP(), root=0)
            assert result.values.tolist() == [0.0]

    def test_single_edge(self):
        g = Graph.from_edges(2, [[0, 1]], np.array([2.5]))
        for engine in all_minmax_engines(g):
            result = engine.run_minmax(SSSP(), root=0)
            assert result.values.tolist() == [0.0, 2.5]

    def test_massive_multi_edge(self):
        # 500 parallel edges between two vertices, different weights.
        srcs = np.zeros(500, dtype=np.int64)
        dsts = np.ones(500, dtype=np.int64)
        weights = np.linspace(5.0, 1.0, 500)
        g = Graph.from_edges(2, (srcs, dsts), weights)
        for engine in all_minmax_engines(g):
            result = engine.run_minmax(SSSP(), root=0)
            assert result.values[1] == pytest.approx(1.0), engine.name

    def test_all_equal_weights(self):
        from repro.graph import generators

        g = generators.erdos_renyi(60, 300, seed=1).with_weights(
            np.full(
                generators.erdos_renyi(60, 300, seed=1).num_edges, 3.0
            )
        )
        expected = reference.dijkstra(g, 0)
        for engine in all_minmax_engines(g):
            assert np.allclose(
                engine.run_minmax(SSSP(), root=0).values, expected
            ), engine.name

    def test_isolated_root(self):
        g = Graph.from_edges(3, [[1, 2]])
        result = SLFEEngine(g).run_minmax(SSSP(), root=0)
        assert result.values.tolist() == [0.0, np.inf, np.inf]

    def test_empty_graph_arithmetic(self):
        g = Graph.from_edges(0, [])
        result = SLFEEngine(g).run_arithmetic(PageRank())
        assert result.values.size == 0


class TestHostileWeights:
    def test_nan_weights_rejected_or_contained(self):
        g = Graph.from_edges(2, [[0, 1]], np.array([np.nan]))
        # Rejected up front: a NaN never beats an incumbent under the
        # engines' strict comparisons, so running on would silently
        # leave vertex 1 unreached where no shortest path is defined.
        for app in (SSSP(), WidestPath()):
            with pytest.raises(EngineError, match="NaN"):
                SLFEEngine(g).run_minmax(app, root=0)

    def test_infinite_weight_is_unreachable_in_practice(self):
        g = Graph.from_edges(2, [[0, 1]], np.array([np.inf]))
        result = SLFEEngine(g).run_minmax(SSSP(), root=0)
        assert result.values[1] == np.inf

    def test_zero_weights_fine(self):
        g = Graph.from_edges(3, [[0, 1], [1, 2]], np.zeros(2))
        result = SLFEEngine(g).run_minmax(SSSP(), root=0)
        assert result.values.tolist() == [0.0, 0.0, 0.0]

    def test_widest_path_with_zero_capacity_edge(self):
        g = Graph.from_edges(2, [[0, 1]], np.array([0.0]))
        result = SLFEEngine(g).run_minmax(WidestPath(), root=0)
        # A zero-capacity link is as good as no link.
        assert result.values[1] == 0.0


class TestClusterEdgeCases:
    def test_more_nodes_than_vertices(self):
        g = Graph.from_edges(3, [[0, 1], [1, 2]])
        cfg = ClusterConfig(num_nodes=8)
        result = SLFEEngine(g, config=cfg).run_minmax(ConnectedComponents())
        assert result.values.astype(int).tolist() == [0, 0, 0]

    def test_guidance_on_disconnected_forest(self):
        g = Graph.from_edges(9, [[0, 1], [3, 4], [6, 7]])
        guidance = generate_guidance(g)
        # three roots with out-edges plus isolated vertices
        assert guidance.last_iter.max() == 1
        result = SLFEEngine(g).run_minmax(
            ConnectedComponents(), guidance=None
        )
        assert np.array_equal(
            result.values.astype(np.int64),
            reference.connected_components(g),
        )

    def test_rerunning_engine_is_stateless(self):
        from repro.graph import datasets

        g = datasets.load("PK", scale_divisor=16000, weighted=True)
        engine = SLFEEngine(g)
        root = int(np.argmax(g.out_degrees()))
        first = engine.run_minmax(SSSP(), root=root)
        second = engine.run_minmax(SSSP(), root=root)
        assert np.array_equal(first.values, second.values)
        assert (
            first.metrics.total_edge_ops == second.metrics.total_edge_ops
        )
