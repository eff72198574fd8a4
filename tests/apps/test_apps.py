"""Unit tests for the application definitions themselves."""

import numpy as np
import pytest

from repro.apps import (
    ApproximateDiameter,
    BFS,
    ConnectedComponents,
    HeatSimulation,
    NumPaths,
    PageRank,
    SpMV,
    SSSP,
    TunkRank,
    WidestPath,
)
from repro.baselines import GeminiEngine
from repro.core.async_engine import AsyncEngine
from repro.core.engine import SLFEEngine
from repro.errors import EngineError
from repro.graph import datasets, generators, io
from repro.graph.graph import Graph


class TestTaxonomy:
    def test_minmax_apps_declare_aggregation(self):
        assert SSSP.aggregation == "min"
        assert BFS.aggregation == "min"
        assert ConnectedComponents.aggregation == "min"
        assert WidestPath.aggregation == "max"

    def test_identity_elements(self):
        assert SSSP().identity == np.inf
        assert WidestPath().identity == -np.inf

    def test_cc_runs_undirected(self, diamond):
        run_graph = ConnectedComponents().prepare(diamond)
        assert run_graph.num_edges == 2 * diamond.num_edges

    def test_sssp_runs_directed(self, diamond):
        assert SSSP().prepare(diamond) is diamond

    def test_better_semantics(self):
        sssp = SSSP()
        assert sssp.better(np.array([1.0]), np.array([2.0])).tolist() == [True]
        wp = WidestPath()
        assert wp.better(np.array([2.0]), np.array([1.0])).tolist() == [True]


class TestInitialState:
    def test_sssp_initial(self, diamond):
        values = SSSP().initial_values(diamond, 1)
        assert values.tolist() == [np.inf, 0.0, np.inf, np.inf]
        assert SSSP().initial_frontier(diamond, 1).tolist() == [1]

    def test_cc_initial(self, diamond):
        values = ConnectedComponents().initial_values(diamond, None)
        assert values.tolist() == [0, 1, 2, 3]
        assert ConnectedComponents().initial_frontier(diamond, None).size == 4

    def test_wp_initial(self, diamond):
        values = WidestPath().initial_values(diamond, 0)
        assert values[0] == np.inf
        assert values[1:].tolist() == [0, 0, 0]

    def test_root_validation(self, diamond):
        for app in (SSSP(), BFS(), WidestPath()):
            with pytest.raises(EngineError):
                app.initial_values(diamond, 9)
            with pytest.raises(EngineError):
                app.initial_values(diamond, None)


class TestNaNWeights:
    """A NaN weight used to leave SSSP's vertex 1 at ``inf`` (Dijkstra
    says 3.0) and WidestPath running on: ``nan < 0`` is False, so the
    negative-weight check let it through."""

    @pytest.fixture
    def nan_grid(self):
        graph = generators.grid_2d(4, 4)
        weights = np.ones(graph.num_edges)
        weights[0] = np.nan
        return graph.with_weights(weights)

    @pytest.mark.parametrize(
        "engine_cls", [SLFEEngine, GeminiEngine, AsyncEngine],
        ids=["slfe", "gemini", "async"],
    )
    @pytest.mark.parametrize(
        "app, message",
        [(SSSP(), "SSSP requires non-negative, non-NaN"),
         (WidestPath(), "WidestPath requires non-NaN")],
        ids=["sssp", "wp"],
    )
    def test_engines_reject_a_nan_weight(self, nan_grid, engine_cls, app,
                                         message):
        with pytest.raises(EngineError, match=message):
            engine_cls(nan_grid).run_minmax(app, root=0)

    def test_a_nan_read_from_an_edge_list_is_rejected(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("0 1 2.0\n1 2 nan\n")
        graph = io.read_edge_list(str(path))
        assert np.isnan(graph.out_csr.weights).sum() == 1
        for app in (SSSP(), WidestPath()):
            with pytest.raises(EngineError, match="NaN"):
                SLFEEngine(graph).run_minmax(app, root=0)

    def test_infinite_weights_stay_legal(self):
        graph = generators.path_graph(3).with_weights(np.array([np.inf, 1.0]))
        assert SLFEEngine(graph).run_minmax(SSSP(), root=0).values.tolist() == [
            0.0, np.inf, np.inf
        ]
        assert SLFEEngine(graph).run_minmax(
            WidestPath(), root=0
        ).values.tolist() == [np.inf, np.inf, 1.0]


class TestCandidates:
    def test_sssp_adds_weights(self, diamond):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        cands = SSSP().edge_candidates(
            values, np.array([0, 1]), np.array([5.0, 7.0])
        )
        assert cands.tolist() == [6.0, 9.0]

    def test_bfs_ignores_weights(self):
        cands = BFS().edge_candidates(
            np.array([3.0]), np.array([0]), np.array([99.0])
        )
        assert cands.tolist() == [4.0]

    def test_cc_propagates_labels(self):
        cands = ConnectedComponents().edge_candidates(
            np.array([7.0, 3.0]), np.array([1, 0]), np.array([2.0, 2.0])
        )
        assert cands.tolist() == [3.0, 7.0]

    def test_wp_bottleneck(self):
        cands = WidestPath().edge_candidates(
            np.array([5.0]), np.array([0, 0]), np.array([3.0, 9.0])
        )
        assert cands.tolist() == [3.0, 5.0]


class TestGuidanceRoots:
    def test_rooted_apps_use_root(self, diamond):
        assert SSSP().guidance_roots(diamond, 2).tolist() == [2]

    def test_rootless_apps_use_default(self, diamond):
        assert ConnectedComponents().guidance_roots(diamond, None).tolist() == [0]


class TestArithmeticApps:
    def test_pagerank_validation(self):
        with pytest.raises(ValueError):
            PageRank(damping=1.0)

    def test_tunkrank_validation(self):
        with pytest.raises(ValueError):
            TunkRank(retweet_probability=-0.1)

    def test_heat_validation(self):
        with pytest.raises(ValueError):
            HeatSimulation(np.ones(3), conductivity=0.0)

    def test_spmv_shape_check(self, diamond):
        app = SpMV(np.ones(3))
        with pytest.raises(ValueError):
            app.initial_values(diamond)

    def test_numpaths_root_check(self, diamond):
        app = NumPaths(root=9)
        with pytest.raises(EngineError):
            app.bind(diamond)

    def test_pagerank_contributions_divide_by_out_degree(self, diamond):
        app = PageRank()
        app.bind(diamond)
        contrib = app.edge_contributions(
            np.array([2.0, 1.0, 1.0, 1.0]),
            np.array([0, 1]),
            np.array([1, 3]),
            np.ones(2),
        )
        # vertex 0 has out-degree 2, vertex 1 has out-degree 1
        assert contrib.tolist() == [1.0, 1.0]

    def test_dangling_contribution_undivided(self):
        g = generators.path_graph(2)  # vertex 1 dangles
        app = PageRank()
        app.bind(g)
        contrib = app.edge_contributions(
            np.array([1.0, 4.0]), np.array([1]), np.array([0]), np.ones(1)
        )
        assert contrib.tolist() == [4.0]


class TestApproximateDiameter:
    def test_estimates_on_path(self):
        g = generators.path_graph(12)
        engine = SLFEEngine(g)
        estimate = ApproximateDiameter(num_samples=12, seed=0).run(engine)
        assert 0 < estimate.diameter <= 11
        assert len(estimate.eccentricities) == len(estimate.roots)

    def test_diameter_lower_bounds_truth(self):
        g = datasets.load("PK", scale_divisor=8000)
        from repro.graph.analysis import estimate_diameter

        est = ApproximateDiameter(num_samples=6, seed=3).run(SLFEEngine(g))
        # BFS eccentricity can never exceed the largest BFS depth.
        truth_bound = estimate_diameter(g, num_samples=32, seed=99)
        assert est.diameter <= max(truth_bound, est.diameter)

    def test_deterministic_roots(self, diamond):
        a = ApproximateDiameter(num_samples=3, seed=1).sample_roots(diamond)
        b = ApproximateDiameter(num_samples=3, seed=1).sample_roots(diamond)
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            ApproximateDiameter(num_samples=0)

    def test_empty_graph(self):
        engine = SLFEEngine(Graph.from_edges(0, []))
        estimate = ApproximateDiameter(num_samples=2).run(engine)
        assert estimate.diameter == 0
