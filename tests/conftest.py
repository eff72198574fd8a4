"""Shared fixtures and the tiered Hypothesis profiles for the test suite.

Property tests that carry no ``@settings`` of their own run under the
loaded profile.  Profiles trade coverage for wall clock: ``ci`` is the
default, ``dev`` is a quick smoke, ``nightly``/``thorough`` widen the
search.  Select with ``REPRO_HYPOTHESIS_PROFILE=nightly pytest ...``.
"""

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from repro.graph import csr
from repro.graph.generators import figure1_graph
from repro.graph.graph import Graph
from repro.graph.shards import ShardSlice

settings.register_profile("dev", max_examples=10, deadline=None)
settings.register_profile("ci", max_examples=25, deadline=None)
settings.register_profile("nightly", max_examples=100, deadline=None)
settings.register_profile("thorough", max_examples=500, deadline=None)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture
def figure1():
    """The paper's Figure 1 example graph and its SSSP root."""
    return figure1_graph()


@pytest.fixture
def diamond():
    """A 4-vertex diamond DAG: 0 -> {1, 2} -> 3, unit weights."""
    edges = np.array([[0, 1], [0, 2], [1, 3], [2, 3]], dtype=np.int64)
    return Graph.from_edges(4, edges, name="diamond")


@pytest.fixture
def two_islands():
    """Two disconnected directed triangles: {0,1,2} and {3,4,5}."""
    edges = np.array(
        [[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]], dtype=np.int64
    )
    return Graph.from_edges(6, edges, name="two-islands")


def make_random_graph(num_vertices=50, num_edges=200, seed=0, weighted=True):
    """Small random digraph helper for tests that need variety."""
    rng = np.random.default_rng(seed)
    srcs = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    dsts = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    keep = srcs != dsts
    srcs, dsts = srcs[keep], dsts[keep]
    weights = rng.uniform(1.0, 10.0, size=srcs.size) if weighted else None
    return Graph.from_edges(num_vertices, (srcs, dsts), weights, name="random")


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


def each_span_cost():
    """Yield three times, with ``csr._SPAN_COST`` patched so the fused
    kernels take per-row positions for strictly ascending ids (edgeless
    spans aside), then always the covering span, then the shipped
    choice."""
    for cost in (0.0, float("inf"), csr._SPAN_COST):
        with mock.patch.object(csr, "_SPAN_COST", cost):
            yield cost


def shard_blocks(graph, ids, cut, direction="in"):
    """``(adjacency, ids)`` pairs to run a fused kernel over: the whole
    in-CSR (or out-CSR) when ``cut`` is ``None``, else the ascending
    ``ids`` split at row ``cut`` between two shards (the upper one with a
    non-zero ``base``), as the ooc dispatch hands them out."""
    n = graph.num_vertices
    csr_ = graph.in_csr if direction == "in" else graph.out_csr
    if cut is None:
        return [(csr_, ids)]
    cut = min(cut, n)
    base = int(csr_.indptr[cut])
    return [
        (ShardSlice(0, cut, 0, csr_.indptr, csr_.indices[:base],
                    csr_.weights[:base]), ids[ids < cut]),
        (ShardSlice(cut, n, base, csr_.indptr, csr_.indices[base:],
                    csr_.weights[base:]), ids[ids >= cut]),
    ]


def ragged_pool_blocks(graph, seed):
    """The pool's 256-task blocks of a ragged live list (a random 90 % of
    the vertices, ascending), at least one of which the shipped selector
    reads as a covering span with holes."""
    rng = np.random.default_rng(seed)
    ids = np.flatnonzero(rng.random(graph.num_vertices) < 0.9)
    blocks = [ids[lo:lo + 256] for lo in range(0, ids.size, 256)]
    degrees = graph.in_degrees()
    assert any(
        csr.covering_span(graph.in_csr.indptr, degrees, block) is not None
        and block[-1] - block[0] + 1 > block.size
        for block in blocks
    )
    return [(graph.in_csr, block) for block in blocks]
