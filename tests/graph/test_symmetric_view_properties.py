"""``undirected_view`` shares one CSR between both directions, and the
shared CSR is a transpose in everything but row order.

E ∪ reverse(E) is its own transpose, so ``in_csr`` is ``out_csr`` and no
job pays the |E'| transpose sort.  What that must preserve: the in-view
describes the same ``(dst, src, weight)`` multiset as
``out_csr.transpose()`` would, and ConnectedComponents — the only app
that runs on the view — computes the reference labels on every backend.

The view is assembled row-wise (out-row then in-row, two scatters, no
sort) and memoised on the graph; the stable sort of ``E ++ reverse(E)``
it replaced is kept here as the oracle it must equal byte for byte.
"""

import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps import SSSP, ConnectedComponents, WidestPath, reference
from repro.bench.workloads import experiment_cluster
from repro.cluster.faults import FaultPlan
from repro.core.engine import SLFEEngine
from repro.errors import EngineError
from repro.graph.csr import CSR
from repro.graph.graph import Graph
from repro.ooc import SpilledGraph
from repro.runconfig import configured


def _incoming_edges(in_csr):
    """Sorted ``(dst, src, weight)`` triples of an in-adjacency."""
    return sorted(
        (dst, src, weight) for dst, src, weight in in_csr.iter_edges()
    )


@st.composite
def graphs(draw):
    """Self-loops, duplicate and antiparallel edges and isolated vertices
    all come out of unconstrained endpoint draws on a small vertex range;
    ``m == 0`` is the empty graph."""
    n = draw(st.integers(1, 16))
    m = draw(st.integers(0, 60))
    endpoint = st.integers(0, n - 1)
    srcs = draw(st.lists(endpoint, min_size=m, max_size=m))
    dsts = draw(st.lists(endpoint, min_size=m, max_size=m))
    weights = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 7.25]),
                            min_size=m, max_size=m))
    return Graph.from_edges(
        n,
        (np.asarray(srcs, dtype=np.int64), np.asarray(dsts, dtype=np.int64)),
        np.asarray(weights, dtype=np.float64),
        name="sym-case",
    )


@given(graphs())
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


@given(graphs())
def test_sort_free_view_is_byte_equal_to_the_stable_sort(graph):
    _assert_byte_equal(graph.undirected_view().out_csr,
                       sorted_symmetrise(graph))


def test_sort_free_view_of_a_single_vertex():
    loops = np.zeros(3, dtype=np.int64)
    for edges in ((loops, loops), (loops[:0], loops[:0])):
        graph = Graph.from_edges(1, edges)
        _assert_byte_equal(graph.undirected_view().out_csr,
                           sorted_symmetrise(graph))


@given(graphs())
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


@given(graphs())
def test_cc_on_the_shared_csr_matches_the_reference(graph):
    for enable_rr in (True, False):
        result = SLFEEngine(
            graph, config=experiment_cluster(num_nodes=2),
            enable_rr=enable_rr,
        ).run_minmax(ConnectedComponents())
        assert result.graph.in_csr is result.graph.out_csr
        assert np.array_equal(
            result.values,
            reference.connected_components(graph).astype(np.float64),
        )


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


#: app -> (factory, root, reference); CC pulls through ``source_terms``,
#: SSSP and WidestPath through ``edge_candidates``.
MINMAX_APPS = {
    "CC": (ConnectedComponents, None,
           lambda graph, root: reference.connected_components(graph)),
    "SSSP": (SSSP, 7, reference.dijkstra),
    "WP": (WidestPath, 7, reference.widest_path),
}


def _run(graph, name, backend, workers=None, spec=None):
    factory, root, _ = MINMAX_APPS[name]
    plan = FaultPlan.parse(spec, num_nodes=4) if spec else None
    return SLFEEngine(
        graph, config=experiment_cluster(num_nodes=4), backend=backend,
        num_workers=workers, fault_plan=plan,
    ).run_minmax(factory(), root=root)


def test_cc_is_bit_identical_on_serial_pool_and_ooc():
    # (SSSP and WidestPath too; the name is the one CI history knows.)
    for name in sorted(MINMAX_APPS):
        _assert_bit_identical_on_every_backend(name)


def _assert_bit_identical_on_every_backend(name):
    graph = _awkward_graph()
    _, root, oracle = MINMAX_APPS[name]
    expected = oracle(graph, root).astype(np.float64)
    serial = _run(graph, name, "serial")
    assert serial.values.tobytes() == expected.tobytes()
    modes = serial.metrics.mode_counts()
    assert modes.get("pull", 0) and modes.get("push", 0)
    runs = []
    if os.path.isdir("/dev/shm"):
        runs.append(_run(graph, name, "parallel", 2))
        # Respawn budget 0: the first phase loses a worker and every
        # later one runs on the parent's inline kernels.
        first = "pull" if name == "CC" else "push"
        with configured(max_respawns=0):
            degraded = _run(graph, name, "parallel", 2,
                            spec="worker-crash@1:%s-0" % first)
        assert degraded.degraded is True
        runs.append(degraded)
    # ~10 KiB shards: every phase streams.
    with configured(shard_mb=0.01, shard_cache=2):
        runs.append(_run(graph, name, "ooc"))
    for result in runs:
        assert result.values.tobytes() == expected.tobytes()
        assert result.iterations == serial.iterations
        assert result.metrics.total_edge_ops == serial.metrics.total_edge_ops
        assert result.metrics.total_updates == serial.metrics.total_updates
        assert result.metrics.total_messages == serial.metrics.total_messages
