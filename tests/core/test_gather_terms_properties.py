"""``gather_block`` through ``source_terms`` is byte-equal to the general
``edge_contributions`` path, and every phase owner takes it.

The terms path drops the per-edge ``rows``, the weights gather and one
of the two |E|-sized source gathers; what must not move is a single bit
of the gathered sums, for any task list a dispatch can hand the kernel.
"""

import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps import (
    BeliefPropagation,
    HeatSimulation,
    NumPaths,
    PageRank,
    SpMV,
    TunkRank,
)
from repro.bench.workloads import ARITH_TOLERANCE, experiment_cluster
from repro.core.engine import SLFEEngine
from repro.core.runtime import SerialDispatch, gather_block
from repro.graph import generators
from repro.graph.graph import Graph
from repro.graph.shards import ShardSlice

from tests.conftest import kernel_cases

#: name -> factory(graph, rng); bound by :func:`_bound_app`.
TERMS_APPS = {
    "PR": lambda graph, rng: PageRank(),
    "TR": lambda graph, rng: TunkRank(),
    "Heat": lambda graph, rng: HeatSimulation(rng.random(graph.num_vertices)),
}
GENERAL_APPS = {
    "SpMV": lambda graph, rng: SpMV(rng.random(graph.num_vertices)),
    "BP": lambda graph, rng: BeliefPropagation(),
    "NumPaths": lambda graph, rng: NumPaths(root=0),
}


def _bound_app(factory, graph, rng):
    app = factory(graph, rng)
    app.bind(graph)
    return app


def _gather(app, adjacency, graph, values, ids, terms):
    """One kernel call into a zeroed result; ``(bytes, edges)``."""
    result = np.zeros(graph.num_vertices)
    edges = gather_block(
        app, adjacency, graph.in_degrees(), values, ids, result, terms
    )
    return result.tobytes(), edges


@pytest.mark.parametrize("name", sorted(TERMS_APPS))
@given(case=kernel_cases())
def test_terms_path_is_byte_equal_to_edge_contributions(name, case):
    graph, ids, seed = case
    rng = np.random.default_rng(seed)
    app = _bound_app(TERMS_APPS[name], graph, rng)
    values = rng.uniform(-3.0, 3.0, graph.num_vertices)
    snapshot = values.copy()
    terms = app.source_terms(values)
    assert terms is not None and terms.shape == values.shape
    assert np.array_equal(values, snapshot)  # pure

    general = _gather(app, graph.in_csr, graph, values, ids, None)
    assert _gather(app, graph.in_csr, graph, values, ids, terms) == general
    assert general[1] == int(graph.in_degrees()[ids].sum())


@pytest.mark.parametrize("name", sorted(TERMS_APPS))
@given(case=kernel_cases(), cut=st.integers(0, 24))
def test_terms_path_across_a_shard_boundary(name, case, cut):
    """Sorted ids split at a row bound and gathered shard by shard (what
    the ooc dispatch does, one terms array for the whole phase) fill the
    same result as one pass over the whole CSR."""
    graph, ids, seed = case
    rng = np.random.default_rng(seed)
    app = _bound_app(TERMS_APPS[name], graph, rng)
    values = rng.uniform(-3.0, 3.0, graph.num_vertices)
    terms = app.source_terms(values)
    ids = np.unique(ids)
    n, in_csr = graph.num_vertices, graph.in_csr
    cut = min(cut, n)
    base = int(in_csr.indptr[cut])
    shards = [
        ShardSlice(0, cut, 0, in_csr.indptr, in_csr.indices[:base],
                   in_csr.weights[:base]),
        ShardSlice(cut, n, base, in_csr.indptr, in_csr.indices[base:],
                   in_csr.weights[base:]),
    ]
    result = np.zeros(n)
    edges = 0
    for shard in shards:
        group = ids[(ids >= shard.lo) & (ids < shard.hi)]
        edges += gather_block(
            app, shard, graph.in_degrees(), values, group, result, terms
        )
    assert (result.tobytes(), edges) == _gather(
        app, in_csr, graph, values, ids, None
    )


def test_terms_path_on_the_empty_graph():
    graph = Graph.from_edges(
        0, (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    )
    ids = np.empty(0, dtype=np.int64)
    for factory in TERMS_APPS.values():
        app = _bound_app(factory, graph, np.random.default_rng(0))
        values = np.empty(0)
        terms = app.source_terms(values)
        assert _gather(app, graph.in_csr, graph, values, ids, terms) == (
            b"", 0
        )


# ----------------------------------------------------------------------
# who takes which path
# ----------------------------------------------------------------------
class TermsOnlyPageRank(PageRank):
    """The general kernel booby-trapped: a run that still produces the
    right answer went through ``source_terms`` everywhere."""

    def edge_contributions(self, values, srcs, dsts, weights):
        raise AssertionError("the gather fell back to edge_contributions")


class GeneralOnlyPageRank(PageRank):
    """PageRank as the parent commit gathered it."""

    def source_terms(self, values):
        return None


class CountingSpMV(SpMV):
    calls = 0

    def edge_contributions(self, values, srcs, dsts, weights):
        type(self).calls += 1
        return super().edge_contributions(values, srcs, dsts, weights)


def _social(seed=3):
    return generators.social_network(
        300, avg_degree=10, shortcut_density=0.05, hub_bias=1.5, seed=seed
    )


@pytest.mark.parametrize("name", sorted(GENERAL_APPS))
def test_apps_without_terms_keep_the_general_path(name):
    graph = _social()
    app = _bound_app(GENERAL_APPS[name], graph, np.random.default_rng(1))
    values = app.initial_values(graph).astype(np.float64)
    assert app.source_terms(values) is None


def test_serial_dispatch_calls_edge_contributions_without_terms():
    graph = _social()
    app = CountingSpMV(np.random.default_rng(2).random(graph.num_vertices))
    app.bind(graph)
    CountingSpMV.calls = 0
    dispatch = SerialDispatch(graph, app)
    dispatch.values[...] = app.initial_values(graph)
    ids = np.arange(graph.num_vertices, dtype=np.int64)
    dispatch.gather(ids)
    assert CountingSpMV.calls == 1
    rows, srcs, weights = graph.in_csr.expand_sources(ids)
    expected = np.zeros(graph.num_vertices)
    np.add.at(expected, rows, weights * app.x[srcs])
    assert np.allclose(dispatch.result, expected)


@pytest.mark.parametrize("backend,workers", [
    ("serial", None),
    pytest.param(
        "parallel", 2,
        marks=pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                                 reason="the pool needs /dev/shm"),
    ),
    ("ooc", None),
])
@pytest.mark.parametrize("enable_rr", [True, False])
def test_every_phase_owner_takes_the_terms_path(backend, workers, enable_rr):
    """Serial dispatch, each pool worker and the shard stream gather
    PageRank without ever calling ``edge_contributions`` — and land on
    the bytes the general path produces."""
    graph = _social()
    config = experiment_cluster(num_nodes=4)

    def run(app, **kwargs):
        return SLFEEngine(
            graph, config=config, enable_rr=enable_rr, **kwargs
        ).run_arithmetic(app, tolerance=ARITH_TOLERANCE)

    reference = run(GeneralOnlyPageRank(), backend="serial")
    result = run(TermsOnlyPageRank(), backend=backend, num_workers=workers)
    assert result.values.tobytes() == reference.values.tobytes()
    assert result.iterations == reference.iterations
    assert result.metrics.total_edge_ops == reference.metrics.total_edge_ops
