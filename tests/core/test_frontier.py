"""Unit tests for frontiers and direction selection."""

import numpy as np
import pytest

from repro.core.frontier import PULL, PUSH, Frontier, choose_mode
from repro.graph import generators
from repro.graph.graph import Graph


class TestFrontier:
    def test_empty(self):
        f = Frontier(5)
        assert len(f) == 0
        assert not f
        assert f.ids.size == 0

    def test_initial_actives(self):
        f = Frontier(5, active=[1, 3])
        assert f.count == 2
        assert 1 in f and 3 in f and 0 not in f

    def test_all_vertices(self):
        f = Frontier.all_vertices(4)
        assert f.count == 4

    def test_from_mask_copies(self):
        mask = np.array([True, False, True])
        f = Frontier.from_mask(mask)
        mask[1] = True
        assert f.count == 2

    def test_activate_and_clear(self):
        f = Frontier(4)
        f.activate(np.array([0, 2]))
        assert f.ids.tolist() == [0, 2]
        f.clear()
        assert not f

    def test_activate_all(self):
        f = Frontier(3)
        f.activate_all()
        assert f.count == 3

    def test_replace_with(self):
        f = Frontier(5, active=[0, 1])
        f.replace_with(np.array([4]))
        assert f.ids.tolist() == [4]

    def test_caches_invalidate(self):
        f = Frontier(4, active=[0])
        assert f.count == 1
        f.activate(np.array([1]))
        assert f.count == 2
        assert f.ids.tolist() == [0, 1]

    def test_out_edge_count(self, diamond):
        f = Frontier(4, active=[0, 1])
        assert f.out_edge_count(diamond.out_degrees()) == 3  # deg(0)=2, deg(1)=1

    def test_repr(self):
        assert "2 / 5" in repr(Frontier(5, active=[0, 1]))


def _mode(g, f, **kwargs):
    active_edges = f.out_edge_count(g.out_degrees())
    return choose_mode(active_edges, g.num_edges, **kwargs)


class TestChooseMode:
    def test_sparse_frontier_pushes(self):
        g = generators.star_graph(100)
        f = Frontier(101, active=[5])  # a leaf: no out-edges
        assert _mode(g, f) == PUSH

    def test_dense_frontier_pulls(self):
        g = generators.star_graph(100)
        f = Frontier(101, active=[0])  # hub: all 100 out-edges active
        assert _mode(g, f) == PULL

    def test_threshold_boundary(self):
        # 20 edges; frontier with exactly |E|/20 = 1 active out-edge
        # does NOT exceed the threshold -> push.
        g = generators.path_graph(21)
        f = Frontier(21, active=[0])
        assert _mode(g, f, dense_denominator=20) == PUSH
        f2 = Frontier(21, active=[0, 1])
        assert _mode(g, f2, dense_denominator=20) == PULL

    def test_empty_graph_pushes(self):
        g = Graph.from_edges(3, [])
        assert _mode(g, Frontier(3, active=[0])) == PUSH

    def test_denominator_effect(self):
        g = generators.path_graph(100)
        f = Frontier(100, active=list(range(10)))
        assert _mode(g, f, dense_denominator=20) == PULL
        assert _mode(g, f, dense_denominator=5) == PUSH


class TestPendingSet:
    def test_sum_kind_accumulates_repeated_vertices(self):
        from repro.core.frontier import PendingSet

        pending = PendingSet(4, kind="sum")
        pending.accumulate(np.array([1, 1, 2]), np.array([0.5, 0.25, 1.0]))
        assert pending.ids.tolist() == [1, 2]
        assert pending.delta[1] == 0.75
        assert pending.mass() == 1.75
        assert pending.count == 2 and bool(pending)

    def test_priority_kind_keeps_max_magnitude(self):
        from repro.core.frontier import PendingSet

        pending = PendingSet(4, kind="priority")
        pending.accumulate(np.array([1, 1]), np.array([0.5, -2.0]))
        assert pending.delta[1] == 2.0

    def test_take_drains_and_deactivates(self):
        from repro.core.frontier import PendingSet

        pending = PendingSet(4, kind="sum")
        pending.accumulate(np.array([0, 3]), np.array([1.0, 2.0]))
        taken = pending.take(np.array([3]))
        assert taken.tolist() == [2.0]
        assert pending.ids.tolist() == [0]
        assert pending.delta[3] == 0.0

    def test_fifo_seq_stamps_batches_not_vertices(self):
        from repro.core.frontier import PendingSet

        pending = PendingSet(6, kind="sum")
        pending.accumulate(np.array([4, 2]), np.array([1.0, 1.0]))
        pending.accumulate(np.array([5, 2]), np.array([1.0, 1.0]))
        # Batch 0: {2, 4} share a seq; batch 1 stamps only the newly
        # active vertex 5 (2 keeps its original arrival order).
        assert pending.seq[2] == pending.seq[4]
        assert pending.seq[5] > pending.seq[2]

    def test_empty_accumulate_is_noop(self):
        from repro.core.frontier import PendingSet

        pending = PendingSet(3, kind="sum")
        pending.accumulate(np.array([], dtype=np.int64), np.array([]))
        assert not pending and pending.mass() == 0.0

    def test_unknown_kind_rejected(self):
        from repro.core.frontier import PendingSet

        with pytest.raises(ValueError):
            PendingSet(3, kind="avg")
