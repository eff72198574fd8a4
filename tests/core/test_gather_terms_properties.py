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

from tests.conftest import (
    each_span_cost,
    kernel_cases,
    ragged_pool_blocks,
    shard_blocks,
    span_cases,
)

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
    return _gather_blocks(app, graph, values, [(adjacency, ids)], terms)


def _gather_blocks(app, graph, values, blocks, terms, sentinel=None):
    """Gather ``blocks`` one after another into one result (a copy of
    ``sentinel``, zeros by default); ``(bytes, edges)``."""
    result = np.zeros(graph.num_vertices) if sentinel is None else sentinel.copy()
    # inf + -inf sums are NaN on every path alike.
    with np.errstate(invalid="ignore"):
        edges = sum(
            gather_block(app, adjacency, graph.in_degrees(), values, ids,
                         result, terms)
            for adjacency, ids in blocks
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
    ids = np.unique(ids)
    assert _gather_blocks(
        app, graph, values, shard_blocks(graph, ids, cut),
        app.source_terms(values),
    ) == _gather(app, graph.in_csr, graph, values, ids, None)


# ----------------------------------------------------------------------
# covering span against per-row positions
# ----------------------------------------------------------------------
def _edge_values(graph, seed):
    """Values whose terms include -0.0 and both infinities."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(-3.0, 3.0, graph.num_vertices)
    for special, share in ((-0.0, 0.15), (np.inf, 0.1), (-np.inf, 0.05)):
        values[rng.random(graph.num_vertices) < share] = special
    return values


@pytest.mark.parametrize("name", sorted(TERMS_APPS) + ["SpMV"])
@given(case=span_cases(), cut=st.one_of(st.none(), st.integers(0, 24)))
def test_span_path_is_byte_equal_to_positions(name, case, cut):
    """Ascending ids with holes, on the whole CSR or split across a shard
    boundary, with terms and without (SpMV reads the weights): the span
    path writes the positions path's bytes into ``result[ids]``, leaves
    every other entry alone and counts only the edges of ``ids``."""
    graph, ids, seed = case
    rng = np.random.default_rng(seed)
    app = _bound_app({**TERMS_APPS, **GENERAL_APPS}[name], graph, rng)
    values = _edge_values(graph, seed)
    sentinel = rng.uniform(10.0, 20.0, graph.num_vertices)
    blocks = shard_blocks(graph, ids, cut)
    terms = app.source_terms(values)
    outcomes = {
        _gather_blocks(app, graph, values, blocks, terms, sentinel)
        for _ in each_span_cost()
    }
    assert len(outcomes) == 1
    (result, edges), = outcomes
    assert edges == int(graph.in_degrees()[ids].sum())
    outside = np.ones(graph.num_vertices, dtype=bool)
    outside[ids] = False
    assert np.frombuffer(result)[outside].tobytes() == sentinel[outside].tobytes()


@pytest.mark.parametrize("name", ["PR", "SpMV"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_span_path_in_pool_blocks(name, seed):
    """A ragged live list cut into the pool's 256-task blocks: per block,
    whichever path the selector takes, the bytes match positions."""
    graph = _social(seed, n=2000)
    app = _bound_app(
        {**TERMS_APPS, **GENERAL_APPS}[name], graph, np.random.default_rng(seed)
    )
    values = _edge_values(graph, seed)
    blocks = ragged_pool_blocks(graph, seed)
    terms = app.source_terms(values)
    assert len({
        _gather_blocks(app, graph, values, blocks, terms)
        for _ in each_span_cost()
    }) == 1


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


def _social(seed=3, n=300):
    return generators.social_network(
        n, avg_degree=10, shortcut_density=0.05, hub_bias=1.5, seed=seed
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
