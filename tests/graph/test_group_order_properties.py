"""One stable group-by order behind every CSR build, and the builds it
serves are the parent commit's, byte for byte.

* ``stable_group_order(keys, num_keys)`` is ``np.argsort(keys,
  kind="stable")`` — on duplicated, all-equal, sorted, reverse-sorted,
  empty and single keys, through the packed-key sort, the already-grouped
  shortcut and the forced overflow guard alike;
* ``CSR.from_edges``, ``CSR.transpose`` and ``CSR.transpose_permutation``
  (the Gemini baseline's ``in_owner`` order) against the parent's
  argsort builds, kept verbatim below as the oracles: same ``indptr`` /
  ``indices`` / ``weights`` bytes and dtypes on multigraphs with
  self-loops, duplicate edges of different weights, isolated vertices,
  the empty graph, already-grouped input and ``(m, 2)`` column views —
  whatever block size packs the keys, and when a key is too wide to pack
  (the transpose's alone, or every one);
* a built CSR shares no memory with the caller's arrays, so editing them
  afterwards cannot edit the graph — the shortcut copies, never aliases;
* ``grid_2d`` lists its edges grouped by source (so the lattice takes the
  shortcut) and builds the parent's CSR, its old edge list kept below.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph import csr as csr_module
from repro.graph import generators
from repro.graph.csr import CSR, stable_group_order


# ----------------------------------------------------------------------
# the parent commit's builds, kept verbatim as the oracles
# ----------------------------------------------------------------------
def parent_from_edges(num_vertices, srcs, dsts, weights=None):
    if num_vertices < 0:
        raise GraphFormatError("num_vertices must be non-negative")
    srcs = np.asarray(srcs, dtype=np.int64)
    dsts = np.asarray(dsts, dtype=np.int64)
    if srcs.shape != dsts.shape or srcs.ndim != 1:
        raise GraphFormatError("srcs and dsts must be aligned 1-D arrays")
    if srcs.size:
        lo = min(srcs.min(), dsts.min())
        hi = max(srcs.max(), dsts.max())
        if lo < 0 or hi >= num_vertices:
            raise GraphFormatError(
                "edge endpoints must lie in [0, %d)" % num_vertices
            )
    if weights is None:
        weights = np.ones(srcs.size, dtype=np.float64)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != srcs.shape:
            raise GraphFormatError("weights must align with srcs/dsts")
    counts = np.bincount(srcs, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    order = np.argsort(srcs, kind="stable")
    return CSR(indptr, dsts[order], weights[order])


def parent_transpose_permutation(csr):
    return np.argsort(csr.indices, kind="stable")


def parent_transpose(csr):
    n = csr.num_vertices
    counts = np.bincount(csr.indices, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    order = parent_transpose_permutation(csr)
    indices = csr.row_of_edge()[order]
    weights = csr.weights[order]
    return CSR(indptr, indices, weights)


def assert_same_csr(got, want):
    assert got == want
    for name in CSR.__slots__:
        mine, theirs = getattr(got, name), getattr(want, name)
        assert mine.dtype == theirs.dtype
        assert mine.tobytes() == theirs.tobytes()  # -0.0 included


# ----------------------------------------------------------------------
# the one order
# ----------------------------------------------------------------------
def positions(order, m):
    """The selector ``stable_group_order`` returns, as positions."""
    return np.arange(m, dtype=np.int64)[order]


def assert_is_stable_argsort(keys, num_keys):
    before = keys.copy()
    order = stable_group_order(keys, num_keys)
    stable = np.argsort(keys, kind="stable")
    assert np.array_equal(keys, before)  # reads only
    assert positions(order, keys.size).tolist() == stable.tolist()
    grouped = not (np.diff(keys) < 0).any()
    assert isinstance(order, slice) == grouped  # no sort on grouped keys
    if not grouped:
        assert order.dtype == np.int64


@st.composite
def key_arrays(draw):
    num_keys = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(
        ["duplicated", "all-equal", "sorted", "reverse", "empty", "single"]
    ))
    m = {"empty": 0, "single": 1}.get(kind, draw(st.integers(2, 120)))
    key = st.integers(0, num_keys - 1)
    if kind == "all-equal":
        keys = [draw(key)] * m
    else:
        keys = draw(st.lists(key, min_size=m, max_size=m))
    if kind == "sorted":
        keys.sort()
    elif kind == "reverse":
        keys.sort(reverse=True)
    return np.asarray(keys, dtype=np.int64), num_keys


@given(key_arrays())
def test_group_order_is_the_stable_argsort(case):
    assert_is_stable_argsort(*case)


@given(key_arrays())
def test_forced_overflow_guard_is_the_stable_argsort(case):
    keys, _ = case
    assert_is_stable_argsort(keys, 2**60)  # bits(2**60) + bits(m) > 62


def test_overflow_guard_takes_the_argsort_it_replaces():
    """``bits(num_keys) + bits(m)`` past an int64: same order either way."""
    rng = np.random.default_rng(8)
    dsts = rng.integers(0, 50, 400)
    packed = stable_group_order(dsts, 50)
    guarded = stable_group_order(dsts, 2**60)
    stable = np.argsort(dsts, kind="stable")
    for order in (packed, guarded):
        assert order.tolist() == stable.tolist()
    # The largest key the packed form builds still fits.
    big = np.array([2**40 - 1, 0, 2**40 - 1], dtype=np.int64)
    assert stable_group_order(big, 2**40).tolist() == [1, 0, 2]


def test_strided_keys():
    """A column of an ``(m, 2)`` edge array is a strided view."""
    edges = np.array([[3, 0], [1, 1], [3, 2], [0, 3], [1, 4]], dtype=np.int64)
    assert_is_stable_argsort(edges[:, 0], 4)
    assert_is_stable_argsort(edges[:, 1], 5)


# ----------------------------------------------------------------------
# the CSR builds against the parent's
# ----------------------------------------------------------------------
# Few distinct weights, so duplicate edges with different and with equal
# weights both occur; -0.0 checks the builds move bytes, not values.
_WEIGHTS = st.sampled_from([-0.0, 0.0, 0.5, 1.0, 2.0, 7.25, np.inf])


@st.composite
def edge_lists(draw):
    """``(n, srcs, dsts, weights)``: self-loops, duplicates and isolated
    vertices from unconstrained draws on a small range; ``srcs``/``dsts``
    are sometimes the two columns of one ``(m, 2)`` array."""
    n = draw(st.integers(0, 20))
    m = draw(st.integers(0, 80)) if n else 0
    endpoint = st.integers(0, max(n - 1, 0))
    srcs = draw(st.lists(endpoint, min_size=m, max_size=m))
    dsts = draw(st.lists(endpoint, min_size=m, max_size=m))
    order = draw(st.sampled_from(["any", "by-source", "both-sorted"]))
    if order == "by-source":  # already grouped: from_edges' shortcut
        srcs.sort()
    elif order == "both-sorted":  # ... and transpose's too
        srcs.sort()
        dsts.sort()
    weights = draw(st.one_of(
        st.none(), st.lists(_WEIGHTS, min_size=m, max_size=m)
    ))
    if draw(st.booleans()):
        edges = np.array([srcs, dsts], dtype=np.int64).T.copy()  # (m, 2)
        srcs, dsts = edges[:, 0], edges[:, 1]
    else:
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
    return n, srcs, dsts, weights


@given(edge_lists())
def test_builds_are_the_parents(case):
    assert_builds_are_the_parents(*case)


@given(edge_lists(), st.integers(1, 7))
def test_keys_packed_in_small_blocks_build_the_parents(case, block):
    """Packing fills a key's low bits (positions, rows) a block at a
    time, and a weighted transpose gathers its weights from the sorted
    key a block at a time; blocks that cut rows anywhere change no
    byte."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(csr_module, "_BLOCK", block)
        assert_builds_are_the_parents(*case)


@given(edge_lists(), st.booleans())
def test_keys_too_wide_to_pack_build_the_parents(case, transpose_only):
    """Past ``_PACK_BITS`` the builds take the stable argsort: the
    transpose alone (its key is the widest), or every sort."""
    n, _, _, weights = case
    width = 2 * n.bit_length() + (0 if weights is None else len(case[1]).bit_length())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(csr_module, "_PACK_BITS", width - 1 if transpose_only else 0)
        assert_builds_are_the_parents(*case)


def assert_builds_are_the_parents(n, srcs, dsts, weights):
    csr = CSR.from_edges(n, srcs, dsts, weights)
    assert_same_csr(csr, parent_from_edges(n, srcs, dsts, weights))
    perm = csr.transpose_permutation()
    want = parent_transpose_permutation(csr)
    assert isinstance(perm, np.ndarray) and perm.dtype == want.dtype
    assert perm.tolist() == want.tolist()
    transposed = csr.transpose()
    assert_same_csr(transposed, parent_transpose(csr))
    assert_same_csr(transposed.transpose(), parent_transpose(transposed))


@given(edge_lists())
def test_editing_the_callers_arrays_leaves_the_csr_alone(case):
    n, srcs, dsts, weights = case
    csr = CSR.from_edges(n, srcs, dsts, weights)
    snapshot = CSR(csr.indptr.copy(), csr.indices.copy(), csr.weights.copy())
    for array in (srcs, dsts, weights):
        if array is not None:
            assert not np.shares_memory(csr.indices, array)
            assert not np.shares_memory(csr.weights, array)
            array[...] = 0
    assert_same_csr(csr, snapshot)


def parent_grid_edges(rows, cols, bidirectional):
    """``grid_2d``'s edge list as the parent commit built it: right and
    down blocks (and their reverses), not grouped by source."""
    n = rows * cols
    srcs = []
    dsts = []
    ids = np.arange(n, dtype=np.int64).reshape(rows, cols) if n else None
    if n:
        if cols > 1:
            srcs.append(ids[:, :-1].ravel())
            dsts.append(ids[:, 1:].ravel())
        if rows > 1:
            srcs.append(ids[:-1, :].ravel())
            dsts.append(ids[1:, :].ravel())
    if srcs:
        s = np.concatenate(srcs)
        t = np.concatenate(dsts)
    else:
        s = np.empty(0, dtype=np.int64)
        t = np.empty(0, dtype=np.int64)
    if bidirectional:
        s, t = np.concatenate([s, t]), np.concatenate([t, s])
    return n, s, t


@given(st.integers(0, 7), st.integers(0, 7), st.booleans())
def test_grid_is_grouped_and_builds_the_parents_csr(rows, cols, bidirectional):
    n, srcs, dsts = parent_grid_edges(rows, cols, bidirectional)
    grid = generators.grid_2d(rows, cols, bidirectional)
    assert_same_csr(grid.out_csr, parent_from_edges(n, srcs, dsts))


def test_grid_edge_list_takes_the_grouped_shortcut(monkeypatch):
    seen = []
    real = CSR.from_edges.__func__

    def spy(cls, num_vertices, srcs, dsts, weights=None):
        seen.append(stable_group_order(np.asarray(srcs), num_vertices))
        return real(cls, num_vertices, srcs, dsts, weights)

    monkeypatch.setattr(CSR, "from_edges", classmethod(spy))
    generators.grid_2d(30, 40)
    assert seen == [slice(0, 2 * (29 * 40 + 30 * 39))]


def test_grouped_input_is_copied_not_aliased():
    srcs = np.array([0, 0, 1, 2, 2], dtype=np.int64)
    dsts = np.array([2, 1, 0, 0, 1], dtype=np.int64)
    weights = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert isinstance(stable_group_order(srcs, 3), slice)
    csr = CSR.from_edges(3, srcs, dsts, weights)
    dsts[0], weights[0] = 1, 9.0
    assert csr.indices.tolist() == [2, 1, 0, 0, 1]
    assert csr.weights.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert not csr.indices.flags.writeable and dsts.flags.writeable
