"""Building a graph holds about one edge array beyond what it returns.

Each build step's budget is its traced peak (``tracemalloc``) minus the
bytes of the CSR it returns, in edge arrays of ``|E| * 8`` bytes of
that CSR, on the benchmark's social recipe at 20 000 vertices (``|E| *
8`` is 2.1 MiB, so the O(|V|) arrays stay small beside it; a 65 536-edge
packing block is a quarter of one, and the per-block temporaries are
most of what the transforms below hold):

==========================================  ======  =======
step                                        was     budget
==========================================  ======  =======
``social_network`` with its from_edges       6.55    3.5
``CSR.transpose``, unit weights              2.07    0.5
``CSR.transpose``, weighted                  1.08    0.6
``Graph.undirected_view`` (of its 2|E|)      1.54    0.3
==========================================  ======  =======

``social_network`` keeps its two edge arrays while ``from_edges`` holds
the packed ``(source, position)`` sort beside its output; a unit-weight
transpose sorts ``(destination, source)`` into the in-indices
themselves; a weighted one gathers its weights from the sorted key's
low bits a block at a time, then shifts the key into the in-indices in
place; the symmetrised view scatters each half into its ``2|E|``
indices (and weights) a block of edges at a time.
"""

import tracemalloc

import numpy as np
import pytest

from repro.graph import generators
from repro.graph.graph import Graph

#: The benchmark's social recipe, at a size that builds in milliseconds.
RECIPE = dict(num_vertices=20_000, avg_degree=14, shortcut_density=0.05,
              hub_bias=1.5, seed=20180827)


def csr_bytes(csr):
    """What a CSR holds: a unit-weight view holds no weights."""
    weights = 0 if csr.unit_weights else csr.weights.nbytes
    return csr.indptr.nbytes + csr.indices.nbytes + weights


def spare_edge_arrays(build):
    """``(output, spare)``: ``build()``'s result and its traced peak
    beyond the CSR it returns, in edge arrays."""
    tracemalloc.start()
    try:
        out = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    csr = getattr(out, "out_csr", out)
    return out, (peak - csr_bytes(csr)) / (csr.num_edges * 8)


@pytest.fixture(scope="module")
def graph():
    # One small build first: numpy's first calls allocate caches of
    # their own, which are no part of a build's budget.
    generators.random_weights(generators.social_network(300), seed=1).in_csr
    graph, spare = spare_edge_arrays(lambda: generators.social_network(**RECIPE))
    assert graph.num_edges * 8 >= 2 * 2**20
    return graph, spare


def test_social_network_holds_at_most_3_5_edge_arrays(graph):
    assert graph[1] <= 3.5


def test_unit_transpose_holds_at_most_half_an_edge_array(graph):
    inc, spare = spare_edge_arrays(graph[0].out_csr.transpose)
    assert inc.unit_weights
    assert spare <= 0.5


@pytest.fixture(scope="module")
def weighted(graph):
    return generators.random_weights(graph[0], 1.0, 10.0, seed=RECIPE["seed"])


def test_weighted_transpose_holds_at_most_0_6_edge_arrays(weighted):
    inc, spare = spare_edge_arrays(weighted.out_csr.transpose)
    assert not inc.unit_weights
    assert spare <= 0.6
    assert np.array_equal(np.sort(inc.weights), np.sort(weighted.out_csr.weights))


@pytest.mark.parametrize("unit", [True, False], ids=["unit", "weighted"])
def test_undirected_view_holds_at_most_0_3_view_arrays(graph, weighted, unit):
    source = graph[0] if unit else weighted
    # A fresh graph over built CSRs: the view's own work, not the
    # transpose it reads, and no memo from another test.
    fresh = Graph(source.out_csr)
    fresh._in_csr = source.in_csr
    view, spare = spare_edge_arrays(fresh.undirected_view)
    assert view.out_csr.unit_weights == unit
    assert view.num_edges == 2 * source.num_edges
    assert spare <= 0.3
