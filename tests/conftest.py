"""Shared fixtures and the tiered Hypothesis profiles for the test suite.

Property tests that carry no ``@settings`` of their own run under the
loaded profile.  Profiles trade coverage for wall clock: ``ci`` is the
default, ``dev`` is a quick smoke, ``nightly``/``thorough`` widen the
search.  Select with ``REPRO_HYPOTHESIS_PROFILE=nightly pytest ...``.
"""

import os

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from repro.graph.generators import figure1_graph
from repro.graph.graph import Graph

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


@st.composite
def kernel_cases(draw):
    """``(graph, ids, seed)`` for the fused-kernel property files: a graph
    with self-loops, duplicate and weighted edges, dangling sources,
    zero-in-degree rows, possibly no edges at all; a task list of every
    shape a dispatch hands a kernel; a seed for the values."""
    n = draw(st.integers(1, 24))
    m = draw(st.integers(0, 90))
    endpoint = st.integers(0, n - 1)
    srcs = draw(st.lists(endpoint, min_size=m, max_size=m))
    dsts = draw(st.lists(endpoint, min_size=m, max_size=m))
    weights = draw(st.lists(st.floats(0.1, 100.0), min_size=m, max_size=m))
    graph = Graph.from_edges(
        n,
        (np.asarray(srcs, dtype=np.int64), np.asarray(dsts, dtype=np.int64)),
        np.asarray(weights, dtype=np.float64),
        name="kernel-case",
    )
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
