"""Compressed sparse row adjacency storage.

:class:`CSR` is the core adjacency structure used by every engine in the
package.  It stores, for each source vertex ``u``, a contiguous slice of
neighbour ids ``indices[indptr[u]:indptr[u + 1]]`` and, in parallel, the
edge weights ``weights[indptr[u]:indptr[u + 1]]``.  Unit weights (none
given, or exactly 1.0 on every edge) are not data: they are stored as
:func:`unit_view`, one read-only stride-0 1.0 that slices and gathers
like the all-ones array it stands for (:attr:`CSR.unit_weights`).

The structure is immutable after construction: its arrays are read-only
views, because the edge selectors (:func:`expand_rows`, behind
:meth:`CSR.expand_sources` and every backend's edge access, and the
fused kernels' :func:`covering_span`) hand out views of them.  Every
grouping of edges by vertex (by source in :meth:`CSR.from_edges`, by
destination in :meth:`CSR.transpose` and the push reduce) is one sort
of a packed ``int64`` key, :func:`_packed_sort`.  Every arithmetic
row sum is one compiled in-order pass, :func:`row_sums`.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from repro.errors import GraphFormatError

__all__ = ["CSR", "contiguous_run", "covering_span", "edge_blocks",
           "expand_rows", "expand_row_dsts", "is_unit", "row_sums",
           "stable_group_order", "unit_view"]


def unit_view(m: int) -> np.ndarray:
    """The weights of ``m`` unit edges: a read-only stride-0 1.0."""
    return np.broadcast_to(np.float64(1.0), (m,))


def is_unit(weights: np.ndarray) -> bool:
    """Every weight is exactly 1.0 (vacuously so for none): bitwise, as
    1.0 has one encoding.  The first edge rejects nearly every weighted
    input before the full pass."""
    return not weights.size or bool(weights[0] == 1.0 and (weights == 1.0).all())


#: Widest packed sort key; past it a sort takes the stable argsort.
_PACK_BITS = 62
#: Elements whose low key bits are filled at a time.
_BLOCK = 1 << 16


def edge_blocks(m: int, indptr=None) -> Iterator[tuple]:
    """``(lo, hi, rows, spans)`` for each block ``[lo, hi)`` of ``m``
    edges, ``_BLOCK`` at a time.  Given the ``indptr`` the edges are laid
    out by, ``rows`` is the slice of rows the block touches and ``spans``
    how many of its edges each holds (``repeat(f(rows), spans)`` is a
    per-edge array for the block alone); else both are ``None``."""
    for lo in range(0, m, _BLOCK):
        hi = min(lo + _BLOCK, m)
        if indptr is None:
            yield lo, hi, None, None
            continue
        first, last = np.searchsorted(indptr, (lo, hi - 1), "right") - 1
        spans = np.diff(np.clip(indptr[first : last + 2], lo, hi))
        yield lo, hi, slice(first, last + 1), spans


def _packed_sort(high: np.ndarray, shift: int, indptr=None,
                 positions: bool = True) -> np.ndarray:
    """``sort((high << shift) | low)`` as a fresh ``int64`` array: edge
    ``e``'s ``low`` is ``e`` if ``positions``, plus, given the ``indptr``
    ``high`` is laid out by, its row above that (``row << bits(m)``).
    Filled a block at a time (:func:`edge_blocks`), so no ``m``-sized
    positions or rows exist; the caller checks that the key fits
    (``_PACK_BITS``)."""
    m = high.size
    packed = np.left_shift(high, shift)
    row_shift = m.bit_length() if positions else 0
    for lo, hi, rows, spans in edge_blocks(m, indptr):
        part = packed[lo:hi]
        if positions:
            part |= np.arange(lo, hi, dtype=np.int64)
        if rows is not None:
            ids = np.arange(rows.start, rows.stop, dtype=np.int64)
            part |= np.repeat(ids << row_shift, spans)
    packed.sort()
    return packed


def stable_group_order(keys: np.ndarray, num_keys: int) -> Union[slice, np.ndarray]:
    """``argsort(keys, kind="stable")`` for ``int64`` keys in ``[0,
    num_keys)``, as a selector (a caller wanting sorted keys gathers).

    As in :func:`expand_rows`: ``slice(0, m)`` (no sort, no copy) when
    one comparison pass finds the keys non-decreasing, else positions:
    the low bits of the sorted ``(key << bits(m)) | position``
    (:func:`_packed_sort`, one ``m``-sized array in all), which replaces
    numpy's stable argsort (a timsort) unless the key is too wide.
    """
    m = keys.size
    if not (keys[1:] < keys[:-1]).any():
        return slice(0, m)
    shift = m.bit_length()
    if int(num_keys).bit_length() + shift > _PACK_BITS:
        return np.argsort(keys, kind="stable")
    packed = _packed_sort(keys, shift)
    packed &= (1 << shift) - 1
    return packed


def contiguous_run(ids: np.ndarray) -> Optional[Tuple[int, int]]:
    """``(lo, hi)`` if ``ids`` is exactly ``arange(lo, hi)``, else ``None``.

    Strictly ascending with span == length leaves no room for a gap; the
    O(1) span test rejects nearly every non-run before the O(|ids|) one.
    """
    if ids.size == 0:
        return None
    lo, hi = int(ids[0]), int(ids[-1]) + 1
    if hi - lo != ids.size or not (ids[1:] > ids[:-1]).all():
        return None
    return lo, hi


#: A gathered edge read costs this many sliced ones (measured on
#: PageRank's live sets, DESIGN.md §5 "Covering span").
_SPAN_COST = 2.5


def covering_span(indptr: np.ndarray, degrees: np.ndarray,
                  ids: np.ndarray) -> Optional[Tuple[int, int, int]]:
    """``(lo, hi, edges)`` if reading every row of ``[lo, hi) = [ids[0],
    ids[-1] + 1)`` beats gathering those of strictly ascending ``ids``:
    the span holds at most ``_SPAN_COST`` times their ``edges``
    (``degrees`` is ``np.diff(indptr)``).  A run is a span with no holes.
    """
    if ids.size == 0:
        return None
    lo, hi = int(ids[0]), int(ids[-1]) + 1
    if hi - lo < ids.size or not (ids[1:] > ids[:-1]).all():
        return None
    span_edges = int(indptr[hi] - indptr[lo])
    edges = span_edges if hi - lo == ids.size else int(degrees[ids].sum())
    return None if span_edges > _SPAN_COST * edges else (lo, hi, edges)


def _load_csr_matvec():
    """scipy's compiled ``csr_matvec``, loaded from its ``_sparsetools``
    extension file alone: ``scipy/sparse/__init__.py`` never runs, as
    importing ``scipy.sparse`` adds ~15 MiB of modules to a process and
    the extension ~0.5 MiB."""
    name, module = "scipy.sparse._sparsetools", None
    spec = importlib.util.find_spec("scipy")
    if spec is not None and spec.origin:
        folder = os.path.join(os.path.dirname(spec.origin), "sparse")
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "_sparsetools" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(name, path)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_file_location(name, path, loader=loader)
                )
                loader.exec_module(module)
                break
    routine = getattr(module, "csr_matvec", None)
    if routine is None:
        from importlib import metadata
        try:
            version = "scipy " + metadata.version("scipy")
        except metadata.PackageNotFoundError:
            version = "no scipy"
        raise ImportError(
            "repro sums rows with scipy's compiled csr_matvec "
            "(scipy/sparse/_sparsetools), which %s does not provide: "
            "install scipy>=1.8" % version
        )
    return routine


_csr_matvec = _load_csr_matvec()


def row_sums(ptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
             x: np.ndarray, out: np.ndarray) -> None:
    """``out[i] += data[j] * x[indices[j]]`` for each ``j`` in ``[ptr[i],
    ptr[i + 1])``, in edge order: scipy's ``csr_matvec``, one compiled
    pass with no per-edge intermediate.

    Each row is summed left to right onto ``out[i]`` (from +0.0 on a
    zeroed ``out``: ``np.bincount``'s order), so a block of whole rows
    sums to the same bits however the rows are cut.  With one factor
    1.0 every product is exact, so per-edge terms summed against unit
    ``x`` equal unit ``data`` against the terms, bit for bit.  ``ptr``
    and ``indices`` are ``int64``, the rest ``float64``; ``out`` is
    contiguous and writeable.  A stride-0 :func:`unit_view` is copied
    for the call.
    """
    _csr_matvec(out.size, x.size, ptr, indices, data, x, out)


def expand_rows(
    indptr: np.ndarray, ids: np.ndarray, base: int = 0
) -> Tuple[np.ndarray, Union[slice, np.ndarray]]:
    """Where the edges of rows ``ids`` sit: ``(degrees, selector)``.

    ``selector`` indexes edge-aligned arrays whose element 0 is global
    edge ``base`` (a shard's offset; 0 for a whole CSR).  On a contiguous
    run it is a ``slice`` — indexing yields views, no per-edge index is
    built — otherwise the flat ``int64`` positions, rows concatenated in
    ``ids`` order (unsorted, repeated ids welcome).  Same values, same
    order either way, and no row outside ``ids`` (cf. :func:`covering_span`).
    """
    run = contiguous_run(ids)
    if run is not None:
        ptr = indptr[run[0] : run[1] + 1]
        return np.diff(ptr), slice(int(ptr[0]) - base, int(ptr[-1]) - base)
    starts = indptr[ids]
    counts = indptr[ids + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return counts, slice(0, 0)
    # Output position p of row r is edge starts[r] + (p - offsets[r]),
    # offsets being the exclusive prefix sum of counts.
    starts -= np.cumsum(counts) - counts + base
    positions = np.repeat(starts, counts)
    positions += np.arange(total, dtype=np.int64)
    return counts, positions


def expand_row_dsts(
    indptr: np.ndarray, indices: np.ndarray, ids: np.ndarray, base: int = 0
) -> np.ndarray:
    """The neighbour ids of rows ``ids`` alone — the ``dsts`` of
    ``expand_sources(ids)`` with no ``srcs`` built and no weights
    gathered — over raw arrays (``base`` as in :func:`expand_rows`):
    what the BFS sweep, the terms gather and every backend's
    ``expand_out_dsts``/``expand_in_srcs`` serve from whatever adjacency
    they have resident."""
    return indices[expand_rows(indptr, ids, base)[1]]


class CSR:
    """Immutable CSR adjacency over ``num_vertices`` vertices.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``num_vertices + 1``; monotonically
        non-decreasing, ``indptr[0] == 0`` and ``indptr[-1] == num_edges``.
    indices:
        ``int64`` array of neighbour ids, length ``num_edges``.
    weights:
        ``float64`` array of edge weights, length ``num_edges``.  Pass
        ``None`` for an unweighted view; either way unit weights are
        stored as :func:`unit_view`.
    """

    __slots__ = ("indptr", "indices", "weights")

    #: Global edge index of ``indices[0]`` (the ``base`` of
    #: :func:`expand_rows`): 0 for a whole CSR, a shard carries its own.
    base = 0
    #: ``indices``/``weights`` are in memory (a spilled CSR's are not).
    resident = True

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray = None,
    ) -> None:
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise GraphFormatError("indptr and indices must be 1-D arrays")
        if indptr.size == 0:
            raise GraphFormatError("indptr must have at least one entry")
        if indptr[0] != 0:
            raise GraphFormatError("indptr[0] must be 0")
        if indptr[-1] != indices.size:
            raise GraphFormatError(
                "indptr[-1] (%d) must equal the number of edges (%d)"
                % (indptr[-1], indices.size)
            )
        if np.any(np.diff(indptr) < 0):
            raise GraphFormatError("indptr must be non-decreasing")
        num_vertices = indptr.size - 1
        if indices.size and (indices.min() < 0 or indices.max() >= num_vertices):
            raise GraphFormatError("neighbour ids must lie in [0, num_vertices)")
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != indices.shape:
                raise GraphFormatError("weights must align with indices")
        if weights is None or is_unit(weights):
            weights = unit_view(indices.size)
        else:
            weights = np.ascontiguousarray(weights)
        # Freeze our own views (never the caller's array): expansion
        # hands out views of them and nothing may write through one.
        for name, array in zip(self.__slots__, (indptr, indices, weights)):
            view = array.view()
            view.flags.writeable = False
            setattr(self, name, view)

    # ------------------------------------------------------------------
    # basic shape
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices covered by this adjacency."""
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of stored (directed) edges."""
        return self.indices.size

    @property
    def unit_weights(self) -> bool:
        """Every weight is 1.0, stored as :func:`unit_view` (stride 0)."""
        return self.weights.strides == (0,)

    def degrees(self) -> np.ndarray:
        """Out-degree (row length) of every vertex as ``int64``."""
        return np.diff(self.indptr)

    def degree(self, vertex: int) -> int:
        """Degree of a single vertex."""
        return int(self.indptr[vertex + 1] - self.indptr[vertex])

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def neighbors(self, vertex: int) -> np.ndarray:
        """Neighbour ids of ``vertex`` (a view, do not mutate)."""
        return self.indices[self.indptr[vertex] : self.indptr[vertex + 1]]

    def neighbor_weights(self, vertex: int) -> np.ndarray:
        """Edge weights parallel to :meth:`neighbors` (a view)."""
        return self.weights[self.indptr[vertex] : self.indptr[vertex + 1]]

    def edge_slice(self, vertex: int) -> slice:
        """Slice into ``indices``/``weights`` for the row of ``vertex``."""
        return slice(int(self.indptr[vertex]), int(self.indptr[vertex + 1]))

    def row_of_edge(self) -> np.ndarray:
        """For every stored edge, the id of its source (row) vertex.

        This is the inverse of the CSR compression: an ``int64`` array of
        length ``num_edges`` where entry ``e`` is the vertex whose row
        contains edge ``e``.  Used by vectorised kernels that need
        ``(src, dst, weight)`` triples.
        """
        return np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), self.degrees()
        )

    def expand_positions(self, vertices: np.ndarray) -> np.ndarray:
        """Flat edge indices of the rows of ``vertices`` (concatenated).

        Aligned with :meth:`expand_sources` for the same input; indexes
        any edge-aligned side array (e.g. per-edge partition owners).
        """
        _, sel = expand_rows(self.indptr, np.asarray(vertices, dtype=np.int64))
        if isinstance(sel, slice):
            return np.arange(sel.start, sel.stop, dtype=np.int64)
        return sel

    def expand_sources(self, vertices: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gather the edges of a set of rows: ``(srcs, dsts, weights)``.

        Flat, aligned arrays covering every edge whose source is in
        ``vertices`` (any order, may be empty; a repeated vertex repeats
        its edges).  On a contiguous ascending run ``dsts`` and
        ``weights`` are read-only views of this CSR's storage; unit
        weights are always :func:`unit_view`, never gathered into ones.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        counts, sel = expand_rows(self.indptr, vertices, self.base)
        dsts = self.indices[sel]
        unit = self.weights.strides == (0,)
        weights = unit_view(dsts.size) if unit else self.weights[sel]
        return np.repeat(vertices, counts), dsts, weights

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def transpose_permutation(self) -> np.ndarray:
        """Permutation mapping transposed edge order back to this order.

        ``transpose().indices[i]`` corresponds to this CSR's edge
        ``transpose_permutation()[i]`` — used to carry edge-aligned side
        arrays (weights, partition owners) into the transposed view.
        """
        order = stable_group_order(self.indices, self.num_vertices)
        return np.arange(self.num_edges, dtype=np.int64) if isinstance(order, slice) else order

    def transpose(self) -> "CSR":
        """Reverse every edge, producing the incoming-adjacency CSR.

        Rows are this CSR's destinations, each listing its sources in
        edge order with their weights: one :func:`_packed_sort` of
        ``(destination, source, edge position)``, whose low bits permute
        the weights a block at a time before the key is shifted, in
        place, into the in-indices.  Unit weights need no permutation:
        the sorted ``(destination, source)`` becomes the in-indices in
        place.  A key too wide to pack takes the stable argsort.
        """
        n, m = self.num_vertices, self.num_edges
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.indices, minlength=n), out=indptr[1:])
        unit = self.unit_weights
        row_bits, pos_bits = n.bit_length(), 0 if unit else m.bit_length()
        if 2 * row_bits + pos_bits > _PACK_BITS:
            order = self.transpose_permutation()
            return CSR(indptr, self.row_of_edge()[order],
                       None if unit else self.weights[order])
        packed = _packed_sort(self.indices, row_bits + pos_bits, self.indptr, not unit)
        weights = None
        if not unit:
            # The low bits are the weights' permutation: gather them a
            # block at a time, then shift the key into the in-indices.
            weights = np.empty(m)
            low = (1 << pos_bits) - 1
            for lo, hi, _, _ in edge_blocks(m):
                np.take(self.weights, packed[lo:hi] & low, out=weights[lo:hi])
            packed >>= pos_bits
        packed &= (1 << row_bits) - 1
        return CSR(indptr, packed, weights)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        srcs: np.ndarray,
        dsts: np.ndarray,
        weights: np.ndarray = None,
    ) -> "CSR":
        """Build a CSR from parallel ``(srcs, dsts, weights)`` arrays.

        Edges are grouped by source with :func:`stable_group_order`,
        preserving the relative input order of each vertex's out-edges;
        input already so grouped is copied (never aliased), not gathered.
        """
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
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != srcs.shape:
                raise GraphFormatError("weights must align with srcs/dsts")
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(srcs, minlength=num_vertices), out=indptr[1:])
        order = stable_group_order(srcs, num_vertices)
        take = np.copy if isinstance(order, slice) else lambda a: a[order]
        # ``None`` weights become ``CSR``'s unit view: nothing to gather.
        return cls(indptr, take(dsts), None if weights is None else take(weights))

    # ------------------------------------------------------------------
    # iteration / dunder
    # ------------------------------------------------------------------
    def iter_edges(self) -> Iterator[Tuple[int, int, float]]:
        """Yield ``(src, dst, weight)`` triples in row order."""
        for v in range(self.num_vertices):
            sl = self.edge_slice(v)
            for dst, w in zip(self.indices[sl], self.weights[sl]):
                yield v, int(dst), float(w)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSR):
            return NotImplemented
        return (
            np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self) -> int:  # immutable in spirit, but arrays aren't
        return id(self)

    def __repr__(self) -> str:
        return "CSR(num_vertices=%d, num_edges=%d)" % (
            self.num_vertices,
            self.num_edges,
        )
