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

from repro.graph.generators import figure1_graph
from repro.graph.graph import Graph

settings.register_profile("dev", max_examples=10, deadline=None)
settings.register_profile("ci", max_examples=25, deadline=None)
settings.register_profile("nightly", max_examples=100, deadline=None)
settings.register_profile("thorough", max_examples=500, deadline=None)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "ci"))

#: ``repro.bench.regression`` flags that switch off the sections whose
#: gates read a stopwatch (live-plane overhead budget, parallel
#: speedup).  Tier-1 CLI tests pass these and keep every deterministic
#: assertion; their ``bench``-marked twins run the same flow with the
#: gates armed (``pytest -m bench``).
WALL_CLOCK_OFF = ["--no-live-overhead", "--no-parallel-scaling"]


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
