"""Unit tests for the CSR adjacency structure."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.csr import CSR


def simple_csr():
    # 0 -> 1, 0 -> 2, 1 -> 2, 2 -> 0  (weights 1..4)
    return CSR.from_edges(
        3,
        np.array([0, 0, 1, 2]),
        np.array([1, 2, 2, 0]),
        np.array([1.0, 2.0, 3.0, 4.0]),
    )


class TestConstruction:
    def test_from_edges_groups_by_source(self):
        csr = simple_csr()
        assert csr.num_vertices == 3
        assert csr.num_edges == 4
        assert list(csr.neighbors(0)) == [1, 2]
        assert list(csr.neighbors(1)) == [2]
        assert list(csr.neighbors(2)) == [0]

    def test_from_edges_preserves_weights_alignment(self):
        csr = simple_csr()
        assert list(csr.neighbor_weights(0)) == [1.0, 2.0]
        assert list(csr.neighbor_weights(2)) == [4.0]

    def test_from_edges_is_stable_for_parallel_edges(self):
        csr = CSR.from_edges(
            2, np.array([0, 0]), np.array([1, 1]), np.array([5.0, 7.0])
        )
        assert list(csr.neighbor_weights(0)) == [5.0, 7.0]

    def test_default_weights_are_one(self):
        csr = CSR.from_edges(2, np.array([0]), np.array([1]))
        assert csr.weights.tolist() == [1.0]

    def test_empty_graph(self):
        csr = CSR.from_edges(0, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert csr.num_vertices == 0
        assert csr.num_edges == 0

    def test_isolated_vertices_allowed(self):
        csr = CSR.from_edges(5, np.array([0]), np.array([4]))
        assert csr.degree(1) == 0
        assert csr.degree(0) == 1

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(GraphFormatError):
            CSR.from_edges(2, np.array([0]), np.array([2]))
        with pytest.raises(GraphFormatError):
            CSR.from_edges(2, np.array([-1]), np.array([0]))

    def test_rejects_misaligned_weights(self):
        with pytest.raises(GraphFormatError):
            CSR.from_edges(2, np.array([0]), np.array([1]), np.array([1.0, 2.0]))

    def test_rejects_bad_indptr(self):
        with pytest.raises(GraphFormatError):
            CSR(np.array([1, 2]), np.array([0]))
        with pytest.raises(GraphFormatError):
            CSR(np.array([0, 2, 1]), np.array([0, 0, 0]))
        with pytest.raises(GraphFormatError):
            CSR(np.array([0, 1]), np.array([0, 0]))  # indptr[-1] != num_edges

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(GraphFormatError):
            CSR.from_edges(-1, np.array([], dtype=np.int64), np.array([], dtype=np.int64))


class TestAccessors:
    def test_degrees(self):
        csr = simple_csr()
        assert csr.degrees().tolist() == [2, 1, 1]

    def test_row_of_edge_inverts_compression(self):
        csr = simple_csr()
        assert csr.row_of_edge().tolist() == [0, 0, 1, 2]

    def test_edge_slice_matches_neighbors(self):
        csr = simple_csr()
        sl = csr.edge_slice(0)
        assert csr.indices[sl].tolist() == list(csr.neighbors(0))

    def test_iter_edges_yields_all_triples(self):
        csr = simple_csr()
        triples = set(csr.iter_edges())
        assert triples == {(0, 1, 1.0), (0, 2, 2.0), (1, 2, 3.0), (2, 0, 4.0)}


class TestExpandSources:
    def test_expand_single_vertex(self):
        csr = simple_csr()
        srcs, dsts, weights = csr.expand_sources(np.array([0]))
        assert srcs.tolist() == [0, 0]
        assert dsts.tolist() == [1, 2]
        assert weights.tolist() == [1.0, 2.0]

    def test_expand_multiple_vertices(self):
        csr = simple_csr()
        srcs, dsts, weights = csr.expand_sources(np.array([2, 0]))
        assert srcs.tolist() == [2, 0, 0]
        assert dsts.tolist() == [0, 1, 2]
        assert weights.tolist() == [4.0, 1.0, 2.0]

    def test_expand_with_repeats_keeps_multiplicity(self):
        csr = simple_csr()
        srcs, _, _ = csr.expand_sources(np.array([1, 1]))
        assert srcs.tolist() == [1, 1]

    def test_expand_empty_and_degree_zero(self):
        csr = CSR.from_edges(3, np.array([0]), np.array([1]))
        for sel in (np.array([], dtype=np.int64), np.array([2])):
            srcs, dsts, weights = csr.expand_sources(sel)
            assert srcs.size == dsts.size == weights.size == 0


class TestReadOnlyStorage:
    """Run expansion hands out views of CSR storage, so the storage is
    read-only: a kernel that writes into what it was handed must raise,
    never silently edit the graph."""

    def test_kernel_writing_into_expansion_raises(self):
        from repro.apps import SSSP
        from repro.core.runtime import pull_apply_block

        class Scribbler(SSSP):
            def edge_candidates(self, values, srcs, weights):
                weights += 1.0
                srcs[...] = 0
                return values[srcs] + weights

        csr = simple_csr()
        before = (csr.indices.copy(), csr.weights.copy())
        ids = np.arange(csr.num_vertices)
        with pytest.raises(ValueError, match="read-only"):
            pull_apply_block(
                Scribbler(), csr, csr.degrees(), np.zeros(3), ids, "min",
                np.zeros(3), np.zeros(3, dtype=bool),
            )
        assert np.array_equal(csr.indices, before[0])
        assert np.array_equal(csr.weights, before[1])

    def test_arrays_are_frozen_views_not_the_callers_array(self):
        indptr = np.array([0, 1, 2], dtype=np.int64)
        indices = np.array([1, 0], dtype=np.int64)
        weights = np.array([1.0, 2.0])
        csr = CSR(indptr, indices, weights)
        for mine, theirs in (
            (csr.indptr, indptr), (csr.indices, indices), (csr.weights, weights)
        ):
            assert not mine.flags.writeable
            assert theirs.flags.writeable
            assert np.shares_memory(mine, theirs)
        with pytest.raises(ValueError, match="read-only"):
            csr.expand_sources(np.array([0, 1]))[2][0] = 9.0


class TestTranspose:
    def test_transpose_reverses_edges(self):
        csr = simple_csr()
        rev = csr.transpose()
        assert set(rev.iter_edges()) == {
            (1, 0, 1.0),
            (2, 0, 2.0),
            (2, 1, 3.0),
            (0, 2, 4.0),
        }

    def test_double_transpose_restores_edge_set(self):
        csr = simple_csr()
        back = csr.transpose().transpose()
        assert set(back.iter_edges()) == set(csr.iter_edges())

    def test_transpose_of_empty(self):
        csr = CSR.from_edges(4, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        rev = csr.transpose()
        assert rev.num_vertices == 4
        assert rev.num_edges == 0


class TestMisc:
    def test_equality(self):
        assert simple_csr() == simple_csr()
        other = CSR.from_edges(3, np.array([0]), np.array([1]))
        assert simple_csr() != other

    def test_repr(self):
        assert "num_vertices=3" in repr(simple_csr())
