"""The dsts-only BFS sweep is Algorithm 1, field for field.

* guidance identity: every ``RRGuidance`` field (values *and* dtypes) of
  ``generate_guidance`` against (i) the parent commit's level loop —
  ``expand_sources`` + ``np.unique`` over the expanded edges — kept
  verbatim below, and (ii) a literal per-edge transcription of the
  paper's Algorithm 1, over adversarial graphs: disconnected components,
  several roots, roots with no out-edges, self-loops, duplicate edges,
  isolated vertices, the empty and the single-vertex graph, long paths;
* ``bfs_levels`` (now a caller of the same sweep) against its
  parent-commit loop, kept verbatim;
* the sort-free dedupe's numpy contract: each id exactly once whatever
  the input order and whatever an earlier level left in the scratch;
* roots are validated, never coerced: ``[1.7]`` and ``"1"`` are a
  ``TypeError`` at all three entry points, integer scalars of any
  dtype stay accepted, the ``IndexError`` messages are the old ones.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.rrg import (
    default_roots,
    generate_guidance,
    generate_weighted_guidance,
)
from repro.graph.analysis import UNREACHED, bfs_levels, distinct_ids
from repro.graph.graph import Graph

FIELDS = ("last_iter", "visited", "bfs_dist", "roots")
INT64_MAX = np.iinfo(np.int64).max


# ----------------------------------------------------------------------
# the parent commit's loops, kept verbatim as oracles
# ----------------------------------------------------------------------
def parent_generate_guidance(graph, roots=None):
    n = graph.num_vertices
    if roots is None:
        root_arr = default_roots(graph)
    else:
        root_arr = np.unique(np.fromiter(roots, dtype=np.int64))
        if root_arr.size and (root_arr.min() < 0 or root_arr.max() >= n):
            raise IndexError("guidance root out of range")
    last_iter = np.zeros(n, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    bfs_dist = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    visited[root_arr] = True
    bfs_dist[root_arr] = 0
    frontier = root_arr
    out = graph.out_csr
    iteration = 0
    edge_ops = 0
    while frontier.size:
        srcs, dsts, _ = out.expand_sources(frontier)
        edge_ops += dsts.size
        if dsts.size == 0:
            break
        iteration += 1
        touched = np.unique(dsts)
        last_iter[touched] = iteration
        fresh = touched[~visited[touched]]
        if fresh.size:
            visited[fresh] = True
            bfs_dist[fresh] = iteration
            frontier = fresh
        else:
            frontier = fresh
    return dict(
        last_iter=last_iter,
        visited=visited,
        bfs_dist=bfs_dist,
        num_iterations=iteration,
        edge_ops=edge_ops,
        roots=root_arr,
    )


def parent_bfs_levels(graph, roots):
    n = graph.num_vertices
    levels = np.full(n, UNREACHED, dtype=np.int64)
    frontier = np.unique(np.fromiter(roots, dtype=np.int64))
    if frontier.size and (frontier.min() < 0 or frontier.max() >= n):
        raise IndexError("root out of range")
    levels[frontier] = 0
    depth = 0
    out = graph.out_csr
    while frontier.size:
        depth += 1
        _, dsts, _ = out.expand_sources(frontier)
        fresh = np.unique(dsts[levels[dsts] == UNREACHED])
        levels[fresh] = depth
        frontier = fresh
    return levels


# ----------------------------------------------------------------------
# the paper's Algorithm 1, one edge at a time
# ----------------------------------------------------------------------
def algorithm1(graph, roots):
    """Per-edge transcription: plain Python ints, lists and sets only."""
    n = graph.num_vertices
    out = graph.out_csr
    last_iter = [0] * n
    visited = [False] * n
    dist = [INT64_MAX] * n
    root_ids = sorted({int(r) for r in roots})
    active = root_ids
    for r in active:
        visited[r] = True
        dist[r] = 0
    iteration = 0
    edge_ops = 0
    while active:
        scanned = sum(out.degree(v) for v in active)
        if scanned == 0:
            break
        iteration += 1
        edge_ops += scanned
        next_active = []
        for vsrc in active:
            for vdst in out.neighbors(vsrc).tolist():
                last_iter[vdst] = iteration
                if not visited[vdst]:
                    visited[vdst] = True
                    dist[vdst] = dist[vsrc] + 1
                    next_active.append(vdst)
        active = next_active
    return dict(
        last_iter=np.array(last_iter, dtype=np.int64),
        visited=np.array(visited, dtype=bool),
        bfs_dist=np.array(dist, dtype=np.int64),
        num_iterations=iteration,
        edge_ops=edge_ops,
        roots=np.array(root_ids, dtype=np.int64),
    )


def assert_guidance_equal(guidance, expected):
    for name in FIELDS:
        got, want = getattr(guidance, name), expected[name]
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    for name in ("num_iterations", "edge_ops"):
        assert getattr(guidance, name) == expected[name], name
        assert type(getattr(guidance, name)) is int, name


# ----------------------------------------------------------------------
# adversarial graphs
# ----------------------------------------------------------------------
@st.composite
def graphs_and_roots(draw):
    """``(graph, roots)``: any multigraph on 0..24 vertices (self-loops
    and repeated edges welcome, most vertices isolated when edges are
    few), optionally chained onto a long path so the sweep runs many
    levels, with 0..5 roots (repeats welcome) anywhere in it."""
    n = draw(st.integers(0, 24))
    vertex = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n)) if n else []
    tail = draw(st.sampled_from((0, 0, 0, 7, 90)))
    if tail:
        # n-1 -> n -> ... -> n+tail-1, entered from the multigraph (if any)
        start = max(n - 1, 0)
        edges += [(v, v + 1) for v in range(start, start + tail)]
        n = start + tail + 1
    if draw(st.booleans()):
        edges += edges[: len(edges) // 2]  # duplicate edges
    graph = Graph.from_edges(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
    if n == 0:
        return graph, []
    roots = draw(st.lists(st.integers(0, n - 1), max_size=5))
    return graph, roots


@given(graphs_and_roots())
def test_guidance_is_the_parent_loop_and_algorithm1(case):
    graph, roots = case
    guidance = generate_guidance(graph, roots)
    assert_guidance_equal(guidance, parent_generate_guidance(graph, roots))
    assert_guidance_equal(guidance, algorithm1(graph, roots))


@given(graphs_and_roots())
def test_default_roots_guidance_is_the_parent_loop(case):
    graph, _ = case
    guidance = generate_guidance(graph)
    assert_guidance_equal(guidance, parent_generate_guidance(graph))
    assert_guidance_equal(guidance, algorithm1(graph, default_roots(graph)))


@given(graphs_and_roots())
def test_bfs_levels_is_the_parent_loop(case):
    graph, roots = case
    got, want = bfs_levels(graph, roots), parent_bfs_levels(graph, roots)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_named_shapes():
    cases = {
        "empty": (Graph.from_edges(0, []), []),
        "single vertex": (Graph.from_edges(1, []), [0]),
        "single self-loop": (Graph.from_edges(1, [[0, 0]]), [0]),
        "no roots": (Graph.from_edges(3, [[0, 1]]), []),
        "root is a sink": (Graph.from_edges(3, [[0, 1], [1, 2]]), [2]),
        "two islands, both rooted": (
            Graph.from_edges(6, [[0, 1], [1, 2], [3, 4], [4, 3], [4, 5]]),
            [3, 0, 3],
        ),
        "back edge restamps the root": (
            Graph.from_edges(3, [[0, 1], [1, 2], [2, 0], [2, 0]]), [0],
        ),
        "600-level path": (
            Graph.from_edges(601, [[v, v + 1] for v in range(600)]), [0],
        ),
    }
    for label, (graph, roots) in cases.items():
        guidance = generate_guidance(graph, roots)
        assert_guidance_equal(guidance, parent_generate_guidance(graph, roots))
        assert_guidance_equal(guidance, algorithm1(graph, roots))
        assert np.array_equal(
            bfs_levels(graph, roots), parent_bfs_levels(graph, roots)
        ), label
    assert generate_guidance(*cases["600-level path"]).num_iterations == 600


# ----------------------------------------------------------------------
# the dedupe's numpy contract
# ----------------------------------------------------------------------
def test_repeated_index_assignment_keeps_the_last_value():
    # The documented numpy behaviour distinct_ids is written against.
    scratch = np.zeros(5, dtype=np.int64)
    scratch[np.array([3, 1, 3, 3, 1])] = np.arange(5)
    assert scratch.tolist() == [0, 4, 0, 3, 0]


@pytest.mark.parametrize("ids", [[], [4], [4, 4], [2, 0, 2, 2, 0, 7, 2]])
def test_distinct_ids_small(ids):
    ids = np.array(ids, dtype=np.int64)
    got = distinct_ids(ids, np.empty(8, dtype=np.int64))
    assert got.dtype == np.int64
    assert sorted(got.tolist()) == sorted(set(ids.tolist()))


@given(
    st.lists(st.integers(0, 15), max_size=300),
    st.lists(st.integers(0, 15), max_size=300),
    st.lists(st.integers(-5, 305), min_size=16, max_size=16),
)
def test_distinct_ids_each_once_whatever_the_scratch_holds(ids, earlier, junk):
    ids = np.array(ids, dtype=np.int64)
    # Heavily duplicated (300 draws from 16 ids), unsorted; the scratch
    # holds arbitrary positions — in range for this call on purpose —
    # and then whatever an earlier level's call left behind.
    scratch = np.array(junk, dtype=np.int64)
    distinct_ids(np.array(earlier, dtype=np.int64), scratch)
    got = distinct_ids(ids, scratch)
    assert sorted(got.tolist()) == sorted(set(ids.tolist()))
    # Last writer wins: the survivor of each id is its last occurrence,
    # so the answer is independent of the scratch altogether.
    last = {int(v): p for p, v in enumerate(ids.tolist())}
    assert got.tolist() == [int(ids[p]) for p in sorted(last.values())]


# ----------------------------------------------------------------------
# roots are validated, not coerced
# ----------------------------------------------------------------------
ENTRY_POINTS = (generate_guidance, generate_weighted_guidance, bfs_levels)
PATH = Graph.from_edges(4, [[0, 1], [1, 2], [2, 3]])


@pytest.mark.parametrize(
    "roots",
    [
        [1.7], "1", ["1"], b"1", [True], [np.bool_(False)], [np.float32(0.5)],
        [float("nan")], [float("inf")], [None], [1, 2.5], (1.7,),
        np.array([1.7]), np.array([True]), [[1]],
    ],
)
def test_non_integer_roots_are_a_type_error(roots):
    for entry in ENTRY_POINTS:
        with pytest.raises(TypeError):
            entry(PATH, roots)


@pytest.mark.parametrize(
    "roots",
    [
        [1], (1,), {1}, range(1, 2), [1, 1], [np.int8(1)], [np.uint16(1)],
        [np.int32(1)], [np.uint64(1)], [np.int64(1)], [1.0], [np.float64(1.0)],
        np.array([1], dtype=np.uint8), np.array([1, 1], dtype=np.int32),
        np.array([1.0]),
    ],
)
def test_integer_roots_of_any_dtype_are_accepted(roots):
    assert bfs_levels(PATH, roots).tolist() == [UNREACHED, 0, 1, 2]
    for generate in (generate_guidance, generate_weighted_guidance):
        guidance = generate(PATH, roots)
        assert guidance.roots.dtype == np.int64
        assert guidance.roots.tolist() == [1]
        assert guidance.visited.tolist() == [False, True, True, True]


@pytest.mark.parametrize("roots", [[4], [-1], [0, 17], np.array([9])])
def test_out_of_range_roots_keep_their_index_error(roots):
    for entry, message in (
        (generate_guidance, "guidance root out of range"),
        (generate_weighted_guidance, "guidance root out of range"),
        (bfs_levels, "root out of range"),
    ):
        with pytest.raises(IndexError) as excinfo:
            entry(PATH, roots)
        assert str(excinfo.value) == message
