"""``pull_apply_block`` through ``source_terms`` is byte-equal to the
general ``edge_candidates`` path and to the parent commit's kernel, and
every phase owner computes the terms once per pull phase.

The kernel no longer builds per-edge destination ``rows`` on either path
and, with terms, gathers no weights; what must not move is a single bit
of ``result`` / ``improved`` or the edge count, for any task list a
dispatch can hand it.

The push does the same: with terms, ``push_candidates`` repeats each
source's term over its out-edges (no ``srcs``, no weights), and its
``(dsts, candidates)`` are byte-equal to ``expand_sources`` +
``edge_candidates`` on serial, pool, degraded-inline and ooc, with the
terms computed once per push phase.
"""

import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import parallel
from repro.apps import SSSP, ConnectedComponents, WidestPath
from repro.core.runtime import (
    SerialDispatch,
    grouped_reduce,
    pull_apply_block,
    push_candidates,
)
from repro.graph import generators
from repro.graph.graph import Graph
from repro.ooc import ShardStreamDispatch

from tests.conftest import (
    each_span_cost,
    needs_shm,
    ragged_pool_blocks,
    shard_blocks,
)
from tests.strategies.graphs import kernel_cases, span_cases


class MaxLabels(ConnectedComponents):
    """CC's source-only candidate under the other aggregation."""

    aggregation = "max"


TERMS_APPS = {"CC": ConnectedComponents, "MaxLabels": MaxLabels}
GENERAL_APPS = {"SSSP": SSSP, "WP": WidestPath}
ALL_APPS = {**TERMS_APPS, **GENERAL_APPS}


def parent_pull_apply_block(
    app, in_csr, in_deg, values, ids, aggregation, result, improved
):
    """The kernel as the parent commit ran it on a general id list:
    expand ``(rows, srcs, weights)``, call ``edge_candidates``, reduce
    the per-row segments, test against the incumbents."""
    _, srcs, weights = in_csr.expand_sources(ids)
    candidates = app.edge_candidates(values, srcs, weights)
    reduced = grouped_reduce(aggregation, candidates, in_deg[ids])
    result[ids] = reduced
    improved[ids] = app.better(reduced, values[ids])
    return int(srcs.size)


def _pull(kernel, app, adjacency, graph, values, ids, *extra):
    """One kernel call into fresh scratch; ``(result, improved, edges)``
    with the arrays as bytes."""
    n = graph.num_vertices
    result = np.zeros(n)
    improved = np.zeros(n, dtype=bool)
    edges = kernel(
        app, adjacency, graph.in_degrees(), values, ids, app.aggregation,
        result, improved, *extra
    )
    return result.tobytes(), improved.tobytes(), edges


def _values(graph, seed):
    """Mostly finite, some -0.0, some still at either identity."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(-3.0, 3.0, graph.num_vertices)
    values[rng.random(graph.num_vertices) < 0.1] = -0.0
    values[rng.random(graph.num_vertices) < 0.2] = np.inf
    values[rng.random(graph.num_vertices) < 0.1] = -np.inf
    return values


@pytest.mark.parametrize("name", sorted(TERMS_APPS))
@given(case=kernel_cases())
def test_terms_path_is_byte_equal_to_edge_candidates_and_the_parent(
    name, case
):
    graph, ids, seed = case
    app = TERMS_APPS[name]()
    values = _values(graph, seed)
    snapshot = values.copy()
    terms = app.source_terms(values)
    assert terms is not None and terms.shape == values.shape
    assert np.array_equal(values, snapshot)  # pure

    in_csr = graph.in_csr
    parent = _pull(parent_pull_apply_block, app, in_csr, graph, values, ids)
    assert _pull(pull_apply_block, app, in_csr, graph, values, ids) == parent
    assert _pull(
        pull_apply_block, app, in_csr, graph, values, ids, terms
    ) == parent
    assert parent[2] == int(graph.in_degrees()[ids].sum())


@pytest.mark.parametrize("name", sorted(GENERAL_APPS))
@given(case=kernel_cases())
def test_apps_without_terms_are_byte_equal_to_the_parent(name, case):
    graph, ids, seed = case
    app = GENERAL_APPS[name]()
    values = _values(graph, seed)
    assert app.source_terms(values) is None
    in_csr = graph.in_csr
    assert _pull(pull_apply_block, app, in_csr, graph, values, ids) == _pull(
        parent_pull_apply_block, app, in_csr, graph, values, ids
    )


def expand_then_candidates(app, adjacency, values, ids):
    """The general push contract: expand the edges, then ask the app."""
    srcs, dsts, weights = adjacency.expand_sources(ids)
    return dsts.tobytes(), app.edge_candidates(values, srcs, weights).tobytes()


@pytest.mark.parametrize("name", sorted(ALL_APPS))
@given(case=kernel_cases(), cut=st.one_of(st.none(), st.integers(0, 24)))
def test_push_candidates_are_the_expanded_edge_candidates(name, case, cut):
    """Any task list (sorted ones also split at a shard boundary, as the
    ooc push hands them out), with terms where the app has them."""
    graph, ids, seed = case
    app = ALL_APPS[name]()
    values = _values(graph, seed)
    out = graph.out_csr
    expected = expand_then_candidates(app, out, values, ids)
    dsts, candidates = push_candidates(
        app, out, values, ids, app.source_terms(values)
    )
    assert (dsts.tobytes(), candidates.tobytes()) == expected
    if cut is not None:
        ids = np.unique(ids)
        terms = app.source_terms(values)
        parts = [push_candidates(app, shard, values, group, terms)
                 for shard, group in shard_blocks(graph, ids, cut, "out")]
        assert (
            np.concatenate([p[0] for p in parts]).tobytes(),
            np.concatenate([p[1] for p in parts]).tobytes(),
        ) == expand_then_candidates(app, out, values, ids)


def _pull_blocks(app, graph, values, blocks, sentinel=None):
    """Pull ``blocks`` one after another into fresh scratch (``result`` a
    copy of ``sentinel``, zeros by default) with one terms array for the
    whole phase; ``(result, improved, edges)`` with the arrays as bytes."""
    n = graph.num_vertices
    result = np.zeros(n) if sentinel is None else sentinel.copy()
    improved = np.zeros(n, dtype=bool)
    terms = app.source_terms(values)
    edges = sum(
        pull_apply_block(app, adjacency, graph.in_degrees(), values, ids,
                         app.aggregation, result, improved, terms)
        for adjacency, ids in blocks
    )
    return result.tobytes(), improved.tobytes(), edges


@pytest.mark.parametrize("name", sorted(ALL_APPS))
@given(case=kernel_cases(), cut=st.integers(0, 24))
def test_pull_across_a_shard_boundary(name, case, cut):
    """Sorted ids split at a row bound and pulled shard by shard (what
    the ooc dispatch does, one terms array for the whole phase) fill the
    same scratch as the parent's one pass over the whole CSR."""
    graph, ids, seed = case
    app = ALL_APPS[name]()
    values = _values(graph, seed)
    ids = np.unique(ids)
    assert _pull_blocks(
        app, graph, values, shard_blocks(graph, ids, cut)
    ) == _pull(parent_pull_apply_block, app, graph.in_csr, graph, values, ids)


# ----------------------------------------------------------------------
# covering span against per-row positions
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(ALL_APPS))
@given(case=span_cases(), cut=st.one_of(st.none(), st.integers(0, 24)))
def test_span_path_is_byte_equal_to_positions_and_the_parent(name, case, cut):
    """Ascending ids with holes, on the whole CSR or split across a shard
    boundary, ``min`` and ``max``, with and without terms: the span path
    writes the parent's bytes into ``result[ids]`` / ``improved[ids]``,
    leaves every other entry alone and counts only the edges of ``ids``."""
    graph, ids, seed = case
    app = ALL_APPS[name]()
    values = _values(graph, seed)
    n = graph.num_vertices
    sentinel = np.random.default_rng(seed).uniform(10.0, 20.0, n)
    result, improved = sentinel.copy(), np.zeros(n, dtype=bool)
    edges = parent_pull_apply_block(
        app, graph.in_csr, graph.in_degrees(), values, ids, app.aggregation,
        result, improved,
    )
    blocks = shard_blocks(graph, ids, cut)
    assert {
        _pull_blocks(app, graph, values, blocks, sentinel)
        for _ in each_span_cost()
    } == {(result.tobytes(), improved.tobytes(), edges)}
    assert edges == int(graph.in_degrees()[ids].sum())
    outside = np.ones(n, dtype=bool)
    outside[ids] = False
    assert result[outside].tobytes() == sentinel[outside].tobytes()
    assert not improved[outside].any()


@pytest.mark.parametrize("name", ["CC", "SSSP"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_span_path_in_pool_blocks(name, seed):
    """A ragged live list cut into the pool's 256-task blocks: per block,
    whichever path the selector takes, the bytes match positions."""
    app = ALL_APPS[name]()
    graph = app.prepare(
        generators.random_weights(_social(seed=seed), 1.0, 10.0, seed=seed)
    )
    values = _values(graph, seed)
    blocks = ragged_pool_blocks(graph, seed)
    assert len({
        _pull_blocks(app, graph, values, blocks) for _ in each_span_cost()
    }) == 1


def test_pull_on_the_empty_graph():
    graph = Graph.from_edges(
        0, (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    )
    ids = np.empty(0, dtype=np.int64)
    values = np.empty(0)
    for factory in ALL_APPS.values():
        app = factory()
        assert _pull(
            pull_apply_block, app, graph.in_csr, graph, values, ids,
            app.source_terms(values),
        ) == (b"", b"", 0)


# ----------------------------------------------------------------------
# who computes the terms, and how often
# ----------------------------------------------------------------------
class CountingCC(ConnectedComponents):
    """Logs one line per ``source_terms`` call, tagged with the calling
    process — pool workers run a pickled copy, so a file is the one
    counter every phase owner can reach."""

    def __init__(self, log_path):
        self.log_path = str(log_path)

    def source_terms(self, values):
        with open(self.log_path, "a") as handle:
            handle.write("%d\n" % os.getpid())
        return values

    def calls_by_process(self):
        if not os.path.exists(self.log_path):
            return {}
        with open(self.log_path) as handle:
            pids = handle.read().split()
        return {pid: pids.count(pid) for pid in set(pids)}


def _social(n=2000, seed=3):
    # Eight 256-vertex blocks for two workers; dozens of ~10 KiB shards.
    return generators.social_network(
        n, avg_degree=10, shortcut_density=0.05, hub_bias=1.5, seed=seed
    )


def test_serial_dispatch_computes_terms_once_per_pull(tmp_path):
    app = CountingCC(tmp_path / "calls")
    run_graph = app.prepare(_social())
    dispatch = SerialDispatch(run_graph, app)
    dispatch.values[...] = app.initial_values(run_graph, None)
    ids = np.arange(run_graph.num_vertices, dtype=np.int64)
    for _ in range(3):
        dispatch.pull_apply(ids, "min")
    assert app.calls_by_process() == {str(os.getpid()): 3}


@needs_shm
def test_each_pool_worker_computes_terms_once_per_pull(tmp_path):
    app = CountingCC(tmp_path / "calls")
    run_graph = app.prepare(_social())
    ids = np.arange(run_graph.num_vertices, dtype=np.int64)
    with parallel.ParallelExecutor(run_graph, app, num_workers=2) as ex:
        ex.values[...] = app.initial_values(run_graph, None)
        for _ in range(3):
            stats = ex.pull_apply(ids, "min")
            assert sum(entry["chunks"] for entry in stats) == 8
    calls = app.calls_by_process()
    assert str(os.getpid()) not in calls
    assert sorted(calls.values()) == [3, 3]  # per worker, not per block


def test_the_shard_stream_computes_terms_once_per_pull(tmp_path):
    app = CountingCC(tmp_path / "calls")
    run_graph = app.prepare(_social())
    ids = np.arange(run_graph.num_vertices, dtype=np.int64)
    # ~10 KiB shards behind a two-shard cache: every phase streams.
    with ShardStreamDispatch(
        run_graph, app, shard_mb=0.01, shard_cache=2
    ) as dispatch:
        assert dispatch.num_shards["in"] > 8
        dispatch.values[...] = app.initial_values(run_graph, None)
        for _ in range(3):
            dispatch.pull_apply(ids, "min")
    assert app.calls_by_process() == {str(os.getpid()): 3}


@needs_shm
def test_the_degraded_inline_path_computes_terms_once_per_pull(tmp_path):
    app = CountingCC(tmp_path / "calls")
    run_graph = app.prepare(_social())
    ids = np.arange(run_graph.num_vertices, dtype=np.int64)
    with parallel.ParallelExecutor(
        run_graph, app, num_workers=2, max_respawns=0
    ) as ex:
        ex.values[...] = app.initial_values(run_graph, None)
        ex._procs[1].kill()
        ex._procs[1].join(timeout=5)
        for _ in range(3):  # budget 0: the first pull already runs inline
            ex.pull_apply(ids, "min")
        assert ex.degraded
    # (The surviving worker may have woken once before the pool gave up.)
    assert app.calls_by_process()[str(os.getpid())] == 3


@pytest.mark.parametrize("backend", [
    "serial",
    pytest.param("pool", marks=needs_shm),
    pytest.param("degraded", marks=needs_shm),
    "ooc",
])
def test_every_backend_pushes_from_terms_once_per_phase(tmp_path, backend):
    """``dispatch.push`` of CC (``source_terms`` is its values) matches
    ``expand_sources`` + ``edge_candidates`` byte for byte, and each
    phase owner computes the terms once per push."""
    app = CountingCC(tmp_path / "calls")
    run_graph = app.prepare(_social())
    n = run_graph.num_vertices
    ids = np.flatnonzero(np.random.default_rng(5).random(n) < 0.6)
    values = app.initial_values(run_graph, None)
    expected = expand_then_candidates(
        ConnectedComponents(), run_graph.out_csr, values, ids
    )
    if backend == "serial":
        dispatch = SerialDispatch(run_graph, app)
    elif backend == "ooc":
        # ~10 KiB shards behind a two-shard cache: every phase streams.
        dispatch = ShardStreamDispatch(
            run_graph, app, shard_mb=0.01, shard_cache=2
        )
        assert dispatch.num_shards["out"] > 8
    else:
        dispatch = parallel.ParallelExecutor(
            run_graph, app, num_workers=2, max_respawns=0
        )
        if backend == "degraded":
            dispatch._procs[1].kill()
            dispatch._procs[1].join(timeout=5)
    with dispatch:
        dispatch.values[...] = values
        for _ in range(3):
            dsts, candidates, _, _ = dispatch.push(ids)
            assert (dsts.tobytes(), candidates.tobytes()) == expected
        assert dispatch.degraded == (backend == "degraded")
    calls = app.calls_by_process()
    if backend == "pool":
        assert str(os.getpid()) not in calls
        assert sorted(calls.values()) == [3, 3]  # per worker, not per block
    else:
        # (A degraded pool's surviving worker may have woken once first.)
        assert calls[str(os.getpid())] == 3
