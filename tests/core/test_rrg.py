"""Unit and property tests for RR guidance generation (Algorithm 1)."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rrg import default_roots, generate_guidance
from repro.graph import generators
from repro.graph.analysis import UNREACHED
from repro.graph.graph import Graph

from tests.strategies.graphs import seeded_digraphs


class TestDefaultRoots:
    def test_in_degree_zero_vertices(self, diamond):
        assert default_roots(diamond).tolist() == [0]

    def test_fallback_to_vertex_zero(self):
        g = generators.cycle_graph(5)
        assert default_roots(g).tolist() == [0]

    def test_empty_graph(self):
        assert default_roots(Graph.from_edges(0, [])).size == 0

    def test_multiple_roots(self):
        g = Graph.from_edges(4, [[0, 2], [1, 2], [2, 3]])
        assert default_roots(g).tolist() == [0, 1]


class TestGenerateGuidance:
    def test_path_graph_levels(self):
        g = generators.path_graph(5)
        guid = generate_guidance(g, [0])
        # Linear chain: each vertex's only in-neighbour is one level up.
        assert guid.last_iter.tolist() == [0, 1, 2, 3, 4]
        assert guid.visited.all()
        assert guid.num_iterations == 4

    def test_diamond_last_iter_is_max_in_level_plus_one(self, diamond):
        guid = generate_guidance(diamond, [0])
        # vertex 3 hears from 1 and 2, both level 1 -> last level 2
        assert guid.last_iter.tolist() == [0, 1, 1, 2]

    def test_figure1_guidance(self, figure1):
        graph, root = figure1
        guid = generate_guidance(graph, [root])
        # V4 hears from V3 (level 1) and V2 (level 2): lastIter = 3.
        # V5 hears from V2 (level 2) and V4 (level 2... V4 first visited
        # at level 2 via V3): lastIter = 3.
        assert guid.last_iter[4] == 3
        assert guid.bfs_dist[4] == 2

    def test_window_vertex(self):
        # 0 -> 1 -> 2 -> 3 -> 4; plus 0 -> 4: vertex 4 is first reached
        # at level 1 but keeps receiving until level 4.
        g = Graph.from_edges(5, [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]])
        guid = generate_guidance(g, [0])
        assert guid.bfs_dist[4] == 1
        assert guid.last_iter[4] == 4

    def test_unreached_vertices_keep_zero(self, two_islands):
        guid = generate_guidance(two_islands, [0])
        assert guid.last_iter[3:].tolist() == [0, 0, 0]
        assert not guid.visited[3:].any()

    def test_default_roots_used_when_omitted(self, diamond):
        assert generate_guidance(diamond).roots.tolist() == [0]

    def test_edge_ops_counted(self, diamond):
        guid = generate_guidance(diamond, [0])
        # frontier {0}: 2 edges; frontier {1,2}: 2 edges; frontier {3}: 0
        assert guid.edge_ops == 4

    def test_root_out_of_range(self, diamond):
        with pytest.raises(IndexError):
            generate_guidance(diamond, [17])

    def test_empty_graph(self):
        guid = generate_guidance(Graph.from_edges(0, []))
        assert guid.num_vertices == 0
        assert guid.max_last_iter == 0

    def test_cycle_terminates(self):
        g = generators.cycle_graph(6)
        guid = generate_guidance(g, [0])
        assert guid.visited.all()
        assert guid.num_iterations <= 7

    def test_start_iteration_helper(self, diamond):
        guid = generate_guidance(diamond, [0])
        assert guid.start_iteration(3) == 2


RANDOM_GRAPHS = seeded_digraphs(min_vertices=2, max_vertices=40,
                                max_edges=150, weighted=False)


def queue_bfs_levels(graph, root):
    """Textbook one-vertex-at-a-time BFS: shares nothing with the sweep
    ``generate_guidance`` and ``bfs_levels`` both run on."""
    levels = np.full(graph.num_vertices, UNREACHED, dtype=np.int64)
    levels[root] = 0
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in graph.out_csr.neighbors(u).tolist():
            if levels[v] == UNREACHED:
                levels[v] = levels[u] + 1
                queue.append(v)
    return levels


@given(RANDOM_GRAPHS, st.integers(0, 39))
@settings(max_examples=60, deadline=None)
def test_last_iter_bounds(graph, root_pick):
    root = root_pick % graph.num_vertices
    guid = generate_guidance(graph, [root])
    levels = queue_bfs_levels(graph, root)
    reached = levels != UNREACHED
    # Visited set matches BFS reachability (the root itself is visited
    # but gets last_iter only if it has a reachable in-neighbour).
    assert np.array_equal(guid.visited, reached)
    # A vertex's last_iter is at least its own BFS level (its final
    # in-edge message cannot arrive earlier than its first).
    nonroot = reached.copy()
    nonroot[root] = False
    assert np.all(guid.last_iter[nonroot] >= levels[nonroot])
    # ... and exactly 1 + max level over its *reached* in-neighbours.
    in_csr = graph.in_csr
    for v in np.nonzero(nonroot)[0]:
        preds = in_csr.neighbors(v)
        pred_levels = levels[preds]
        pred_levels = pred_levels[pred_levels != UNREACHED]
        if pred_levels.size:
            assert guid.last_iter[v] == pred_levels.max() + 1


@given(RANDOM_GRAPHS)
@settings(max_examples=40, deadline=None)
def test_guidance_deterministic(graph):
    a = generate_guidance(graph)
    b = generate_guidance(graph)
    assert np.array_equal(a.last_iter, b.last_iter)
    assert np.array_equal(a.visited, b.visited)
