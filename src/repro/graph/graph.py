"""Directed, weighted graph with dual CSR views.

:class:`Graph` bundles the outgoing adjacency (``out_csr``) with its
transpose (``in_csr``) so engines can run push (scatter along out-edges)
and pull (gather along in-edges) without recomputing anything.  The two
views always describe the same edge set.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import CSR, edge_blocks

__all__ = ["Graph"]


class Graph:
    """A directed, weighted graph.

    Construct via :meth:`from_edges` (the common path) or directly from a
    prebuilt outgoing :class:`CSR`.  The incoming view and the symmetrised
    view are derived lazily on first use and cached.

    Attributes
    ----------
    out_csr:
        Outgoing adjacency: row ``u`` lists the heads of ``u``'s out-edges.
    name:
        Optional human-readable label, used by dataset registry and reports.
    """

    __slots__ = ("out_csr", "_in_csr", "_undirected", "_fanout_memo", "name")

    def __init__(self, out_csr: CSR, name: str = "") -> None:
        self.out_csr = out_csr
        self._in_csr: Optional[CSR] = None
        self._undirected: Optional["Graph"] = None
        #: ``(key, table)`` of the last remote fan-out table a
        #: :class:`~repro.cluster.cluster.SimulatedCluster` derived from
        #: this graph's out-edges (it owns the key and the table)
        self._fanout_memo: Optional[tuple] = None
        self.name = name

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges,
        weights=None,
        name: str = "",
    ) -> "Graph":
        """Build a graph from an iterable/array of ``(src, dst)`` pairs.

        Parameters
        ----------
        num_vertices:
            Size of the vertex id space ``[0, num_vertices)``.
        edges:
            An ``(m, 2)`` array-like of edges, or two aligned arrays when
            passed as a tuple ``(srcs, dsts)``.
        weights:
            Optional per-edge weights; defaults to 1.0 everywhere.
        """
        if isinstance(edges, tuple) and len(edges) == 2:
            srcs, dsts = edges
        else:
            arr = np.asarray(edges, dtype=np.int64)
            if arr.size == 0:
                arr = arr.reshape(0, 2)
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise GraphFormatError("edges must be an (m, 2) array")
            srcs, dsts = arr[:, 0], arr[:, 1]
        return cls(CSR.from_edges(num_vertices, srcs, dsts, weights), name=name)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def in_csr(self) -> CSR:
        """Incoming adjacency (transpose of ``out_csr``), cached."""
        if self._in_csr is None:
            self._in_csr = self.out_csr.transpose()
        return self._in_csr

    @property
    def num_vertices(self) -> int:
        return self.out_csr.num_vertices

    @property
    def num_edges(self) -> int:
        return self.out_csr.num_edges

    def out_degrees(self) -> np.ndarray:
        return self.out_csr.degrees()

    def in_degrees(self) -> np.ndarray:
        return self.in_csr.degrees()

    def average_degree(self) -> float:
        """Mean out-degree (|E| / |V|); 0.0 for an empty vertex set."""
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / self.num_vertices

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The full edge list as aligned ``(srcs, dsts, weights)`` arrays."""
        return (
            self.out_csr.row_of_edge(),
            self.out_csr.indices.copy(),
            self.out_csr.weights.copy(),
        )

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def reversed(self) -> "Graph":
        """A graph with every edge direction flipped."""
        rev = Graph(self.in_csr, name=self.name + "-rev" if self.name else "")
        rev._in_csr = self.out_csr
        return rev

    def with_unit_weights(self) -> "Graph":
        """Same topology with all edge weights set to 1.0."""
        out = CSR(self.out_csr.indptr, self.out_csr.indices, None)
        return Graph(out, name=self.name)

    def with_weights(self, weights: np.ndarray) -> "Graph":
        """Same topology with edge weights replaced (aligned to out-CSR)."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != self.out_csr.indices.shape:
            raise GraphFormatError("weights must align with the out-edge list")
        return Graph(
            CSR(self.out_csr.indptr, self.out_csr.indices, weights),
            name=self.name,
        )

    def undirected_view(self) -> "Graph":
        """Symmetrised view: every edge also present in reverse, cached.

        Used by connected-components style applications that treat the graph
        as undirected.  Parallel edges created by symmetrisation are kept;
        engines tolerate multi-edges.

        Row ``v`` of the view is ``out_csr`` row ``v`` followed by
        ``in_csr`` row ``v`` — what a stable sort of ``E ++ reverse(E)``
        by source yields — so it is assembled with O(|E|) position
        scatters, a block of edges at a time, and no sort (of no weights at
        all when they are unit).
        It is built once per graph and shared by every caller (its arrays
        are read-only, like any CSR's).

        E ∪ reverse(E) is its own transpose, so the view's ``in_csr`` *is*
        its ``out_csr``: row ``v`` holds the same (neighbour, weight)
        multiset either way, and no transpose is ever built.  Within a
        row the in-view therefore lists sources in out-edge order, not in
        the order ``out_csr.transpose()`` would — immaterial to an exact
        min/max gather, but an order-sensitive (floating-point sum) pull
        over a symmetrised graph would see its operands reordered.
        """
        if self._undirected is None:
            out, inc = self.out_csr, self.in_csr
            # Read off the edge array: a spilled graph has none resident
            # and says so here, before anything |E|-sized is allocated.
            m = out.indices.size
            # Edge e of out-row v lands in.indptr[v] past e (the in-rows
            # before v precede it); edge e of in-row v lands out.indptr[v+1]
            # past e (the out-rows up to and including v precede it).
            # Positions are built a block of edges at a time.
            indices = np.empty(2 * m, dtype=np.int64)
            weights = None if out.unit_weights else np.empty(2 * m)
            for half, before in ((out, inc.indptr[:-1]), (inc, out.indptr[1:])):
                for lo, hi, rows, spans in edge_blocks(m, half.indptr):
                    at = np.repeat(before[rows], spans)
                    at += np.arange(lo, hi, dtype=np.int64)
                    indices[at] = half.indices[lo:hi]
                    if weights is not None:
                        weights[at] = half.weights[lo:hi]
            view = Graph(
                CSR(out.indptr + inc.indptr, indices, weights),
                name=self.name + "-sym" if self.name else "",
            )
            view._in_csr = view.out_csr
            self._undirected = view
        return self._undirected

    def __repr__(self) -> str:
        label = self.name or "graph"
        return "Graph(%s: |V|=%d, |E|=%d)" % (
            label,
            self.num_vertices,
            self.num_edges,
        )
