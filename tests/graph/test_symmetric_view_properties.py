"""``undirected_view`` shares one CSR between both directions, and the
shared CSR is a transpose in everything but row order.

E ∪ reverse(E) is its own transpose, so ``in_csr`` is ``out_csr`` and no
job pays the |E'| transpose sort.  What that must preserve: the in-view
describes the same ``(dst, src, weight)`` multiset as
``out_csr.transpose()`` would, and ConnectedComponents — the only app
that runs on the view — computes the reference labels on every backend.
"""

import os

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.apps import ConnectedComponents, reference
from repro.bench.workloads import experiment_cluster
from repro.core.engine import SLFEEngine
from repro.graph.graph import Graph
from repro.ooc import install_ooc


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
    return Graph.from_edges(n, (srcs, dsts), name="awkward")


def _cc(graph, backend, workers=None):
    return SLFEEngine(
        graph, config=experiment_cluster(num_nodes=4), backend=backend,
        num_workers=workers,
    ).run_minmax(ConnectedComponents())


def test_cc_is_bit_identical_on_serial_pool_and_ooc():
    graph = _awkward_graph()
    expected = reference.connected_components(graph).astype(np.float64)
    serial = _cc(graph, "serial")
    assert serial.values.tobytes() == expected.tobytes()
    modes = serial.metrics.mode_counts()
    assert modes.get("pull", 0) and modes.get("push", 0)
    runs = []
    if os.path.isdir("/dev/shm"):
        runs.append(_cc(graph, "parallel", 2))
    previous = install_ooc(0.01, 2)  # ~10 KiB shards: every phase streams
    try:
        runs.append(_cc(graph, "ooc"))
    finally:
        install_ooc(*previous)
    for result in runs:
        assert result.values.tobytes() == expected.tobytes()
        assert result.iterations == serial.iterations
        assert result.metrics.total_edge_ops == serial.metrics.total_edge_ops
        assert result.metrics.total_updates == serial.metrics.total_updates
        assert result.metrics.total_messages == serial.metrics.total_messages
