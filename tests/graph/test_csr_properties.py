"""Property-based tests for CSR invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import SSSP, PageRank, WidestPath
from repro.core.runtime import expand_row_dsts, gather_block, pull_apply_block
from repro.graph import csr as csr_module
from repro.graph.csr import CSR, contiguous_run, covering_span
from repro.graph.graph import Graph
from repro.graph.shards import ShardSlice

from tests.strategies.graphs import POSITIVE, edge_lists


EDGE_LISTS = edge_lists(min_vertices=1, weights=(POSITIVE,))


@given(EDGE_LISTS)
@settings(max_examples=60, deadline=None)
def test_from_edges_preserves_edge_multiset(data):
    n, srcs, dsts, weights = data
    csr = CSR.from_edges(n, srcs, dsts, weights)
    expected = sorted(zip(srcs.tolist(), dsts.tolist(), weights.tolist()))
    actual = sorted(csr.iter_edges())
    assert actual == expected


@given(EDGE_LISTS)
@settings(max_examples=60, deadline=None)
def test_indptr_is_consistent_with_degrees(data):
    n, srcs, dsts, weights = data
    csr = CSR.from_edges(n, srcs, dsts, weights)
    assert csr.indptr[0] == 0
    assert csr.indptr[-1] == csr.num_edges
    assert np.array_equal(csr.degrees(), np.bincount(srcs, minlength=n))


@given(EDGE_LISTS)
@settings(max_examples=60, deadline=None)
def test_transpose_is_involution_on_edge_multiset(data):
    n, srcs, dsts, weights = data
    csr = CSR.from_edges(n, srcs, dsts, weights)
    double = csr.transpose().transpose()
    assert sorted(double.iter_edges()) == sorted(csr.iter_edges())


@given(EDGE_LISTS)
@settings(max_examples=60, deadline=None)
def test_transpose_swaps_endpoints(data):
    n, srcs, dsts, weights = data
    csr = CSR.from_edges(n, srcs, dsts, weights)
    rev = csr.transpose()
    fwd_set = sorted((d, s, w) for s, d, w in csr.iter_edges())
    rev_set = sorted(rev.iter_edges())
    assert fwd_set == rev_set


@given(EDGE_LISTS)
@settings(max_examples=40, deadline=None)
def test_expand_sources_of_all_vertices_covers_every_edge(data):
    n, srcs, dsts, weights = data
    csr = CSR.from_edges(n, srcs, dsts, weights)
    s, d, w = csr.expand_sources(np.arange(n))
    assert sorted(zip(s.tolist(), d.tolist(), w.tolist())) == sorted(csr.iter_edges())


# ----------------------------------------------------------------------
# row expansion: one routine, two paths, one answer
# ----------------------------------------------------------------------
# These run under the tiered profiles loaded in tests/conftest.py.


@st.composite
def row_ids(draw, n):
    """Row ids of ``n`` rows: arbitrary (unsorted, repeated, empty) or
    one of the run shapes the slice path keys on."""
    if n == 0:
        return np.empty(0, dtype=np.int64)
    shape = draw(st.sampled_from(
        ["any", "ascending", "run", "full", "from0", "to_end", "single"]
    ))
    if shape == "any":
        ids = draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    elif shape == "ascending":  # holes, no repeats
        ids = sorted(set(draw(st.lists(st.integers(0, n - 1), max_size=n))))
    else:
        a, b = sorted(draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
        lo, hi = {
            "run": (a, b + 1), "full": (0, n), "from0": (0, b + 1),
            "to_end": (a, n), "single": (a, a + 1),
        }[shape]
        ids = range(lo, hi)
    return np.asarray(list(ids), dtype=np.int64)


def _hub_csr(case):
    """Sources folded below a ``hubs`` cut, so the rows above it form
    all-zero-degree runs."""
    (n, srcs, dsts, weights), hubs = case
    return CSR.from_edges(n, srcs % max(min(hubs, n), 1), dsts, weights)


def csr_and_ids():
    """A CSR (possibly empty, usually with zero-degree rows) and row ids."""
    lists = edge_lists(max_vertices=24, max_edges=80, weights=(POSITIVE,))
    return st.tuples(lists, st.integers(1, 24)).map(_hub_csr).flatmap(
        lambda csr: st.tuples(st.just(csr), row_ids(csr.num_vertices))
    )


def expansion_oracle(csr, ids):
    """Per-row Python loop: (srcs, dsts, weights, positions)."""
    srcs, dsts, weights, positions = [], [], [], []
    for v in ids.tolist():
        for e in range(int(csr.indptr[v]), int(csr.indptr[v + 1])):
            srcs.append(v)
            dsts.append(int(csr.indices[e]))
            weights.append(float(csr.weights[e]))
            positions.append(e)
    return srcs, dsts, weights, positions


@given(csr_and_ids())
def test_expansion_matches_row_loop_oracle(data):
    csr, ids = data
    srcs, dsts, weights, positions = expansion_oracle(csr, ids)
    got = csr.expand_sources(ids)
    assert [a.tolist() for a in got] == [srcs, dsts, weights]
    assert [a.dtype for a in got] == [np.int64, np.int64, np.float64]
    assert csr.expand_positions(ids).tolist() == positions
    assert expand_row_dsts(csr.indptr, csr.indices, ids).tolist() == dsts


@given(csr_and_ids())
def test_run_path_returns_views_general_path_copies(data):
    csr, ids = data
    _, dsts, weights = csr.expand_sources(ids)
    only_dsts = expand_row_dsts(csr.indptr, csr.indices, ids)
    if dsts.size == 0:
        return  # nothing to alias
    is_run = contiguous_run(ids) is not None
    assert np.shares_memory(dsts, csr.indices) == is_run
    assert np.shares_memory(weights, csr.weights) == is_run
    assert np.shares_memory(only_dsts, csr.indices) == is_run
    if is_run:
        assert not dsts.flags.writeable and not weights.flags.writeable


@given(csr_and_ids(), st.data())
def test_shard_slice_expansion_matches_full_csr(data, draw):
    csr, _ = data
    n = csr.num_vertices
    if n == 0:
        return
    lo, hi = sorted(draw.draw(st.tuples(st.integers(0, n - 1), st.integers(1, n))))
    hi = max(hi, lo + 1)
    base, end = int(csr.indptr[lo]), int(csr.indptr[hi])
    shard = ShardSlice(
        lo, hi, base, csr.indptr,
        csr.indices[base:end].copy(), csr.weights[base:end].copy(),
    )
    picks = draw.draw(st.sampled_from(["any", "whole", "first", "last"]))
    ids = {
        "any": draw.draw(st.lists(st.integers(lo, hi - 1), max_size=2 * (hi - lo))),
        "whole": range(lo, hi), "first": [lo], "last": [hi - 1],
    }[picks]
    ids = np.asarray(list(ids), dtype=np.int64)
    want = csr.expand_sources(ids)
    got = shard.expand_sources(ids)
    assert [a.tolist() for a in got] == [a.tolist() for a in want]
    only_dsts = expand_row_dsts(shard.indptr, shard.indices, ids, shard.base)
    assert only_dsts.tolist() == want[1].tolist()
    if got[1].size:
        assert np.shares_memory(got[1], shard.indices) == (
            contiguous_run(ids) is not None
        )


def graph_and_run():
    runs = csr_and_ids().filter(
        lambda d: d[1].size and contiguous_run(d[1]) is not None
    )
    seeds = st.integers(0, 2**31 - 1).map(np.random.default_rng)
    return st.tuples(runs, seeds).map(lambda t: (*t[0], t[1]))


@given(graph_and_run())
def test_gather_block_run_equals_general_path(data):
    out_csr, ids, rng = data
    n = out_csr.num_vertices
    graph = Graph(out_csr)
    app = PageRank()
    app.bind(graph)
    in_csr = graph.in_csr
    values = rng.uniform(0.0, 2.0, size=n)
    shuffled = rng.permutation(ids)  # not ascending -> general path
    results = []
    for task in (ids, shuffled):
        result = np.zeros(n)
        edges = gather_block(app, in_csr, in_csr.degrees(), values, task, result)
        results.append((edges, result.tobytes()))
    assert results[0] == results[1]


@given(graph_and_run(), st.sampled_from(["min", "max"]))
def test_pull_apply_block_run_equals_general_path(data, aggregation):
    out_csr, ids, rng = data
    n = out_csr.num_vertices
    in_csr = out_csr.transpose()
    app = SSSP() if aggregation == "min" else WidestPath()
    values = rng.uniform(0.0, 50.0, size=n)
    shuffled = rng.permutation(ids)
    results = []
    for task in (ids, shuffled):
        result = np.zeros(n)
        improved = np.zeros(n, dtype=bool)
        edges = pull_apply_block(
            app, in_csr, in_csr.degrees(), values, task, aggregation,
            result, improved,
        )
        results.append((edges, result.tobytes(), improved.tobytes()))
    assert results[0] == results[1]


# ----------------------------------------------------------------------
# the covering-span selector of the fused kernels
# ----------------------------------------------------------------------
@given(csr_and_ids())
def test_covering_span_contract(data):
    """A span is taken only for strictly ascending ids, always on a run,
    otherwise exactly while it holds at most ``_SPAN_COST`` times the
    ids' own edges; ``edges`` is always the ids' own count."""
    csr, ids = data
    degrees = csr.degrees()
    got = covering_span(csr.indptr, degrees, ids)
    ascending = ids.size > 0 and bool(np.all(ids[1:] > ids[:-1]))
    if not ascending:
        assert got is None
        return
    lo, hi = int(ids[0]), int(ids[-1]) + 1
    own = int(degrees[ids].sum())
    span_edges = int(csr.indptr[hi] - csr.indptr[lo])
    if contiguous_run(ids) is not None:
        assert got == (lo, hi, own)
    elif span_edges <= csr_module._SPAN_COST * own:
        assert got == (lo, hi, own)
    else:
        assert got is None


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_covering_span_at_the_cost_bound(k, offset):
    """Rows 0 and 2 own 2k edges, the hole between them the span's rest:
    one edge more than ``_SPAN_COST`` allows and the span is refused."""
    in_hole = int((csr_module._SPAN_COST - 1) * 2 * k)
    assert in_hole == (csr_module._SPAN_COST - 1) * 2 * k  # exactly at it
    in_hole += offset
    rows = [0] * k + [1] * in_hole + [2] * k
    csr = CSR.from_edges(3, rows, np.zeros(len(rows), dtype=np.int64))
    got = covering_span(csr.indptr, csr.degrees(), np.array([0, 2]))
    assert got == ((0, 3, 2 * k) if offset <= 0 else None)
