"""Every graph a property test draws.

Three kinds of graph:

* :func:`digraphs` (over :func:`edge_lists`) — small directed
  multigraphs from unconstrained endpoint draws on a small vertex
  range, so self-loops, duplicate and antiparallel edges, isolated and
  zero-degree vertices all occur; ``n == 0`` is the empty graph.  One
  weight strategy per graph: unit, positive, or a few values with zero
  among them.
  :func:`seeded_digraphs` draws larger ones from a seed.
* :func:`social_graphs` — :func:`repro.graph.generators.social_network`
  graphs, where PageRank and label propagation take long cyclic runs
  to converge.
* :func:`tiny_graphs` — the empty graph and the one-vertex graph, with
  and without its self-loop.

:func:`core_and_tail` is a fourth, narrower kind: a dense core a
min/max run pulls in, then a path it pushes down.

:func:`graphs` is the three together, as the differential oracle draws
them.  The fused-kernel cases (:func:`kernel_cases`,
:func:`span_cases`) and the social generator's argument draw
(:func:`social_recipes`) live here too.
"""

import numpy as np
from hypothesis import strategies as st

from repro.graph import csr, generators
from repro.graph.graph import Graph

#: Per-edge weight strategies; ``None`` draws a unit-weight graph.
POSITIVE = st.floats(0.1, 100.0)
WITH_ZEROS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 7.25])
WEIGHTS = (None, POSITIVE, WITH_ZEROS)


@st.composite
def edge_lists(draw, min_vertices=0, max_vertices=30, max_edges=120,
               weights=WEIGHTS, min_edges=0):
    """``(n, srcs, dsts, weights)``: int64 endpoint arrays of one length
    and float64 weights, or ``None`` when the drawn weight strategy is
    ``None`` (unit weights)."""
    n = draw(st.integers(min_vertices, max_vertices))
    m = draw(st.integers(min_edges, max_edges)) if n else 0
    endpoint = st.integers(0, max(n - 1, 0))
    srcs = draw(st.lists(endpoint, min_size=m, max_size=m))
    dsts = draw(st.lists(endpoint, min_size=m, max_size=m))
    weight = draw(st.sampled_from(weights))
    if weight is not None:
        weight = np.asarray(
            draw(st.lists(weight, min_size=m, max_size=m)), dtype=np.float64
        )
    return (n, np.asarray(srcs, dtype=np.int64),
            np.asarray(dsts, dtype=np.int64), weight)


def _graph(case):
    n, srcs, dsts, weights = case
    return Graph.from_edges(n, (srcs, dsts), weights, name="drawn")


def digraphs(**kwargs):
    """:func:`edge_lists` (same keywords) built into a :class:`Graph`."""
    return edge_lists(**kwargs).map(_graph)


@st.composite
def seeded_digraphs(draw, min_vertices=1, max_vertices=60, min_edges=0,
                    max_edges=400, weighted=None):
    """A digraph of uniform random endpoints (self-loops and duplicates
    included) from a drawn seed: cheap at hundreds of edges, where
    :func:`digraphs` draws every endpoint, but it shrinks by seed only.
    Weights are uniform in ``[1, 10)`` when ``weighted`` (drawn when
    ``None``)."""
    n = draw(st.integers(min_vertices, max_vertices))
    m = draw(st.integers(min_edges, max_edges))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if weighted is None:
        weighted = draw(st.booleans())
    srcs, dsts = rng.integers(0, n, m), rng.integers(0, n, m)
    weights = rng.uniform(1.0, 10.0, m) if weighted else None
    return Graph.from_edges(n, (srcs, dsts), weights, name="seeded")


@st.composite
def social_graphs(draw, min_vertices=20, max_vertices=200, weighted=None):
    """A ``social_network`` graph of 2-8 average degree, with uniform
    weights in ``[1, 10)`` when ``weighted`` (drawn when ``None``)."""
    seed = draw(st.integers(0, 2**32 - 1))
    graph = generators.social_network(
        draw(st.integers(min_vertices, max_vertices)),
        avg_degree=draw(st.integers(2, 8)), seed=seed,
    )
    if weighted is None:
        weighted = draw(st.booleans())
    return generators.random_weights(graph, seed=seed) if weighted else graph


@st.composite
def core_and_tail(draw):
    """A dense random core of 20-60 vertices with a path of 8-30 hanging
    off it: min/max runs pull in the core, then push down the path."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    core, tail = draw(st.integers(20, 60)), draw(st.integers(8, 30))
    chain = np.arange(core - 1, core + tail - 1)
    srcs = np.concatenate([rng.integers(0, core, 6 * core), chain])
    dsts = np.concatenate([rng.integers(0, core, 6 * core), chain + 1])
    weights = rng.choice([0.5, 1.0, 2.0, 7.0], srcs.size)
    return Graph.from_edges(core + tail, (srcs, dsts), weights)


def tiny_graphs():
    """The empty graph, and one vertex with and without a self-loop."""
    loop = np.array([[0, 0]], dtype=np.int64)
    return st.sampled_from([
        Graph.from_edges(0, np.empty((0, 2), dtype=np.int64), name="empty"),
        Graph.from_edges(1, np.empty((0, 2), dtype=np.int64), name="one"),
        Graph.from_edges(1, loop, np.array([0.0]), name="one-loop"),
    ])


def graphs(max_social=60):
    """The oracle's draw: mostly small digraphs, some social graphs (up
    to ``max_social`` vertices: a failing social case shrinks slowly),
    and the tiny graphs."""
    return st.one_of(
        digraphs(), social_graphs(max_vertices=max_social), tiny_graphs()
    )


@st.composite
def social_recipes(draw):
    """Keyword arguments of one ``social_network`` call, extremes
    included: no vertices, the widest ring and wider, nothing or
    everything rewired."""
    n = draw(st.integers(0, 60))
    avg_degree = draw(st.one_of(
        st.integers(1, 16),
        st.just(max(n - 1, 1)),  # the widest ring
        st.integers(max(n, 1), n + 5),  # wider than the ring can be
    ))
    width = max(1, min(avg_degree, n - 1))
    shortcut_density = draw(st.one_of(
        st.just(0.0),                                   # nothing rewired
        st.floats(0.01, 2.0),
        st.floats(width, 4.0 * width),                  # everything rewired
    ))
    hub_bias = draw(st.one_of(st.floats(1.001, 1.05), st.floats(1.05, 3.0)))
    seed = draw(st.integers(0, 2**32 - 1))
    return dict(num_vertices=n, avg_degree=avg_degree,
                shortcut_density=shortcut_density, hub_bias=hub_bias,
                seed=seed)


def _draw_graph(draw, n, dsts):
    """A graph on ``n`` vertices whose edges point at ``dsts`` (the in-CSR
    rows, so they fix every in-degree), from drawn sources and weights."""
    m = len(dsts)
    srcs = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    weights = draw(st.lists(st.floats(0.1, 100.0), min_size=m, max_size=m))
    return Graph.from_edges(
        n,
        (np.asarray(srcs, dtype=np.int64), np.asarray(dsts, dtype=np.int64)),
        np.asarray(weights, dtype=np.float64),
        name="kernel-case",
    )


@st.composite
def kernel_cases(draw):
    """``(graph, ids, seed)`` for the fused-kernel property files: a graph
    with self-loops, duplicate and weighted edges, dangling sources,
    zero-in-degree rows, possibly no edges at all; a task list of every
    shape a dispatch hands a kernel; a seed for the values."""
    n = draw(st.integers(1, 24))
    endpoint = st.integers(0, n - 1)
    graph = _draw_graph(draw, n, draw(st.lists(endpoint, max_size=90)))
    kind = draw(st.sampled_from(["any", "full", "run", "single", "empty"]))
    if kind == "any":  # unsorted, duplicated
        ids = draw(st.lists(endpoint, max_size=2 * n))
    elif kind == "full":
        ids = list(range(n))
    elif kind == "run":
        lo = draw(endpoint)
        ids = list(range(lo, draw(st.integers(lo, n - 1)) + 1))
    elif kind == "single":
        ids = [draw(endpoint)]
    else:
        ids = []
    seed = draw(st.integers(0, 2**32 - 1))
    return graph, np.asarray(ids, dtype=np.int64), seed


@st.composite
def span_cases(draw):
    """``(graph, ids, seed)`` with strictly ascending, non-empty ``ids``
    for the covering-span properties: holes anywhere; holes made only of
    zero-in-degree rows, the span possibly starting or ending on one; a
    single id; or two ids whose span holds one edge fewer than, exactly,
    or one edge more than ``csr._SPAN_COST`` times their own."""
    kind = draw(st.sampled_from(["holes", "zero_holes", "single", "at_cost"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "at_cost":
        n = draw(st.integers(3, 16))
        lo = draw(st.integers(0, n - 3))
        hi = draw(st.integers(lo + 2, n - 1))
        k = draw(st.integers(1, 4))
        # Rows lo and hi own 2k edges; the holes between them the rest.
        in_holes = int((csr._SPAN_COST - 1) * 2 * k)
        in_holes += draw(st.sampled_from([-1, 0, 1]))
        holes = draw(st.lists(
            st.integers(lo + 1, hi - 1), min_size=in_holes, max_size=in_holes
        ))
        outside = [v for v in range(n) if not lo <= v <= hi]
        rest = draw(st.lists(st.sampled_from(outside), max_size=10)) if outside else []
        graph = _draw_graph(draw, n, [lo] * k + [hi] * k + holes + rest)
        return graph, np.asarray([lo, hi], dtype=np.int64), seed
    graph, _, _ = draw(kernel_cases())
    n = graph.num_vertices
    endpoint = st.integers(0, n - 1)
    if kind == "holes":
        ids = draw(st.lists(endpoint, min_size=1, max_size=n))
    elif kind == "zero_holes":
        lo = draw(endpoint)
        hi = draw(st.integers(lo, n - 1))
        deg = graph.in_degrees()
        ids = [lo, hi] + [v for v in range(lo + 1, hi) if deg[v] > 0]
    else:
        ids = [draw(endpoint)]
    return graph, np.unique(np.asarray(ids, dtype=np.int64)), seed
