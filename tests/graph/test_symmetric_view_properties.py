"""``undirected_view`` shares one CSR between both directions, and the
shared CSR is a transpose in everything but row order.

E ∪ reverse(E) is its own transpose, so ``in_csr`` is ``out_csr`` and no
job pays the |E'| transpose sort.  What that must preserve: the in-view
describes the same ``(dst, src, weight)`` multiset as
``out_csr.transpose()`` would, and ConnectedComponents — the only app
that runs on the view — computes the reference labels on every backend.

The view is assembled row-wise (out-row then in-row, two scatters, no
sort, a block of edges at a time) and memoised on the graph; the stable
sort of ``E ++ reverse(E)`` it replaced is kept here as the oracle it
must equal byte for byte, whatever block size cuts the rows.
"""


import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.faults import FaultPlan
from repro.errors import EngineError
from repro.graph import csr as csr_module
from repro.graph.csr import CSR
from repro.graph.graph import Graph
from repro.ooc import SpilledGraph
from repro.runconfig import configured

from tests.conftest import HAS_SHM
from tests.strategies.backends import Case, run
from tests.strategies.faults import Plan
from tests.strategies.graphs import digraphs
from tests.test_oracle import check


def _incoming_edges(in_csr):
    """Sorted ``(dst, src, weight)`` triples of an in-adjacency."""
    return sorted(
        (dst, src, weight) for dst, src, weight in in_csr.iter_edges()
    )


#: Self-loops, duplicate and antiparallel edges and isolated vertices;
#: no edges at all is the empty graph.
GRAPHS = digraphs(min_vertices=1, max_vertices=16, max_edges=60,
                  weights=(st.sampled_from([0.5, 1.0, 2.0, 7.25]),))


@given(GRAPHS)
def test_shared_csr_is_the_transpose_up_to_row_order(graph):
    view = graph.undirected_view()
    assert view.in_csr is view.out_csr
    assert view.num_edges == 2 * graph.num_edges
    transposed = view.out_csr.transpose()
    assert _incoming_edges(view.in_csr) == _incoming_edges(transposed)
    assert view.in_degrees().tolist() == transposed.degrees().tolist()
    # The view is a copy: the directed graph keeps its own transpose.
    assert graph.in_csr is not graph.out_csr


def sorted_symmetrise(graph):
    """The view's CSR as the parent commit built it: a stable sort of
    ``E ++ reverse(E)`` by source."""
    srcs, dsts, w = graph.edge_arrays()
    return CSR.from_edges(
        graph.num_vertices,
        np.concatenate([srcs, dsts]),
        np.concatenate([dsts, srcs]),
        np.concatenate([w, w]),
    )


def _assert_byte_equal(csr, expected):
    for name in ("indptr", "indices", "weights"):
        got, want = getattr(csr, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


@given(GRAPHS)
def test_sort_free_view_is_byte_equal_to_the_stable_sort(graph):
    _assert_byte_equal(graph.undirected_view().out_csr,
                       sorted_symmetrise(graph))


@given(GRAPHS, st.integers(1, 7), st.booleans())
def test_view_built_in_small_blocks_is_byte_equal_to_the_stable_sort(
        graph, block, unit):
    """The view writes each half a block of edges at a time; blocks that
    cut rows anywhere (empty rows, self-loops, duplicate edges, a row
    wider than a block, no edges at all) change no byte."""
    if unit:
        graph = graph.with_unit_weights()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(csr_module, "_BLOCK", block)
        view = graph.undirected_view().out_csr
    assert view.unit_weights == graph.out_csr.unit_weights
    _assert_byte_equal(view, sorted_symmetrise(graph))


def test_sort_free_view_of_a_single_vertex():
    loops = np.zeros(3, dtype=np.int64)
    for edges in ((loops, loops), (loops[:0], loops[:0])):
        graph = Graph.from_edges(1, edges)
        _assert_byte_equal(graph.undirected_view().out_csr,
                           sorted_symmetrise(graph))


@given(GRAPHS)
def test_view_is_built_once_per_graph_and_is_read_only(graph):
    view = graph.undirected_view()
    assert graph.undirected_view() is view
    for array in (view.out_csr.indptr, view.out_csr.indices,
                  view.out_csr.weights):
        assert not array.flags.writeable
    # Same topology under new weights is a new graph with its own memo.
    doubled = graph.out_csr.weights * 2.0
    reweighted = graph.with_weights(doubled)
    assert reweighted.undirected_view() is not view
    _assert_byte_equal(reweighted.undirected_view().out_csr,
                       sorted_symmetrise(reweighted))
    assert graph.undirected_view() is view
    assert graph.with_unit_weights().undirected_view() is not view


def test_spilled_graph_refuses_the_view_and_keeps_no_partial_memo():
    indptr = np.array([0, 2, 3, 3], dtype=np.int64)
    spilled = SpilledGraph(indptr, indptr, "0" * 64)
    for _ in range(2):  # the second call must not find a half-built view
        with pytest.raises(EngineError, match="edge arrays are not resident"
                           ".*backend='ooc'"):
            spilled.undirected_view()


@given(GRAPHS)
def test_cc_on_the_shared_csr_matches_the_reference(graph):
    for enable_rr in (True, False):
        (result,) = check(Case(graph, "CC", rr=enable_rr, num_nodes=2))
        assert result.graph.in_csr is result.graph.out_csr


# One graph with every awkward feature: a dense random part (pull), a
# long tail hanging off it (push), and isolated vertices.
def _awkward_graph():
    rng = np.random.default_rng(23)
    n = 400
    srcs = rng.integers(0, 300, 1500)
    dsts = rng.integers(0, 300, 1500)
    tail = np.arange(299, 359)  # 299 -> 300 -> ... -> 359; 360.. isolated
    srcs = np.concatenate([srcs, dsts[:200], srcs[:100], np.arange(30), tail])
    dsts = np.concatenate([dsts, srcs[:200], dsts[:100], np.arange(30),
                           tail + 1])
    #                      ^ antiparallel   ^ duplicates  ^ self-loops
    weights = rng.uniform(1.0, 10.0, srcs.size)
    return Graph.from_edges(n, (srcs, dsts), weights, name="awkward")


def test_cc_is_bit_identical_on_serial_pool_and_ooc():
    # (SSSP and WidestPath too; the name is the one CI history knows.)
    # CC pulls through ``source_terms``, SSSP and WP through
    # ``edge_candidates``.
    graph = _awkward_graph()
    for name, root in (("CC", None), ("SSSP", 7), ("WP", 7)):
        case = Case(graph, name, root, num_nodes=4)
        modes = run(case)[0].metrics.mode_counts()
        assert modes.get("pull", 0) and modes.get("push", 0)
        # ~10 KiB shards: every phase streams.
        check(case, case.but(backend="ooc", shard_mb=0.01, shard_cache=2),
              *[case.but(backend="parallel")] * HAS_SHM)
        if HAS_SHM:
            # Respawn budget 0: the first phase loses a worker and every
            # later one runs on the parent's inline kernels.
            crash = "worker-crash@1:%s-0" % ("pull" if name == "CC" else "push")
            plan = Plan("worker", FaultPlan.parse(crash, num_nodes=4))
            with configured(max_respawns=0):
                (degraded,) = check(case.but(backend="parallel", plan=plan))
            assert degraded.degraded is True
