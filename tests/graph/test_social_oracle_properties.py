"""``social_network`` builds the parent commit's graphs, byte for byte.

The generator draws ``random(E)``, ``permutation(n)``, ``zipf(k)`` and
``random(E')`` in that order; it builds no ``|E|``-sized temporaries
beyond its two edge arrays, tests only rewired positions for self-loops
and flips orientations in place.  The parent's generator is kept
verbatim below as the oracle (its edge list, before the build), and
Hypothesis draws cover:

* fewer than three vertices (no edges at all);
* a ring as wide as it can be (``avg_degree >= n - 1``);
* nothing rewired (``shortcut_density`` 0);
* every edge rewired (``shortcut_density >= width``), where self-loops
  are common;
* ``hub_bias`` near 1 (shortcut targets spread over many vertices);
* several seeds, and ``random_weights`` on top.

A moved RNG call changes the draws of every later one, and a surviving
self-loop adds an edge: either shows up as a byte difference.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.graph import generators
from repro.graph.csr import CSR
from repro.graph.graph import Graph

from tests.strategies.graphs import social_recipes


# ----------------------------------------------------------------------
# the parent commit's generator, kept verbatim as the oracle
# ----------------------------------------------------------------------
def parent_social_edges(
    num_vertices,
    avg_degree=14,
    shortcut_density=0.05,
    hub_bias=1.5,
    seed=0,
):
    """``(n, srcs, dsts)`` as the parent's ``social_network`` passed them
    to ``Graph.from_edges`` (argument checks left out)."""
    n = num_vertices
    if n < 3:
        return max(n, 0), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    rng = np.random.default_rng(seed)
    width = min(avg_degree, n - 1)
    rewire_p = min(1.0, shortcut_density / width)
    v = np.arange(n, dtype=np.int64)
    srcs = np.repeat(v, width)
    offsets = np.tile(np.arange(1, width + 1, dtype=np.int64), n)
    dsts = (srcs + offsets) % n
    rewired = np.nonzero(rng.random(srcs.size) < rewire_p)[0]
    if rewired.size:
        hub_rank = rng.permutation(n)
        zipf_draw = rng.zipf(hub_bias, size=rewired.size)
        dsts = dsts.copy()
        dsts[rewired] = hub_rank[np.minimum(zipf_draw - 1, n - 1)]
    keep = srcs != dsts
    srcs, dsts = srcs[keep], dsts[keep]
    # Random orientation: hubs collect both in- and out-edges, so rooted
    # traversals from a hub cover the graph (as in real follower graphs).
    flip = rng.random(srcs.size) < 0.5
    return n, np.where(flip, dsts, srcs), np.where(flip, srcs, dsts)


def parent_random_weights(num_edges, seed):
    return np.random.default_rng(seed).uniform(1.0, 10.0, size=num_edges)


def assert_same_csr(got, want):
    for name in CSR.__slots__:
        mine, theirs = getattr(got, name), getattr(want, name)
        assert mine.dtype == theirs.dtype
        assert mine.shape == theirs.shape
        assert np.ascontiguousarray(mine).tobytes() == np.ascontiguousarray(theirs).tobytes()


@given(social_recipes(), st.booleans())
def test_social_network_builds_the_parents_graph(recipe, weighted):
    graph = generators.social_network(**recipe)
    n, srcs, dsts = parent_social_edges(**recipe)
    want = Graph.from_edges(n, (srcs, dsts))
    assert not (srcs == dsts).any()
    out_srcs, out_dsts, _ = graph.edge_arrays()
    assert not (out_srcs == out_dsts).any()  # no self-loop survives
    if weighted:
        graph = generators.random_weights(graph, 1.0, 10.0, seed=recipe["seed"])
        want = want.with_weights(
            parent_random_weights(want.num_edges, recipe["seed"])
        )
    assert_same_csr(graph.out_csr, want.out_csr)
    assert_same_csr(graph.in_csr, want.in_csr)


def test_every_edge_rewired_drops_many_self_loops():
    """The all-rewired regime really exercises the self-loop drop."""
    recipe = dict(num_vertices=40, avg_degree=39, shortcut_density=100.0,
                  hub_bias=1.2, seed=7)
    n, srcs, dsts = parent_social_edges(**recipe)
    assert srcs.size < n * 39 - 10
    graph = generators.social_network(**recipe)
    assert graph.num_edges == srcs.size
    assert_same_csr(graph.out_csr, Graph.from_edges(n, (srcs, dsts)).out_csr)
