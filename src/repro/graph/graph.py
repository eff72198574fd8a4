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
from repro.graph.csr import CSR

__all__ = ["Graph"]


class Graph:
    """A directed, weighted graph.

    Construct via :meth:`from_edges` (the common path) or directly from a
    prebuilt outgoing :class:`CSR`.  The incoming view is derived lazily on
    first use and cached.

    Attributes
    ----------
    out_csr:
        Outgoing adjacency: row ``u`` lists the heads of ``u``'s out-edges.
    name:
        Optional human-readable label, used by dataset registry and reports.
    """

    __slots__ = ("out_csr", "_in_csr", "name")

    def __init__(self, out_csr: CSR, name: str = "") -> None:
        self.out_csr = out_csr
        self._in_csr: Optional[CSR] = None
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
        """Symmetrised copy: every edge also present in reverse.

        Used by connected-components style applications that treat the graph
        as undirected.  Parallel edges created by symmetrisation are kept;
        engines tolerate multi-edges.

        E ∪ reverse(E) is its own transpose, so the view's ``in_csr`` *is*
        its ``out_csr``: row ``v`` holds the same (neighbour, weight)
        multiset either way, and no transpose is ever built.  Within a
        row the in-view therefore lists sources in out-edge order, not in
        the order ``out_csr.transpose()`` would — immaterial to an exact
        min/max gather, but an order-sensitive (floating-point sum) pull
        over a symmetrised graph would see its operands reordered.
        """
        srcs, dsts, w = self.edge_arrays()
        all_src = np.concatenate([srcs, dsts])
        all_dst = np.concatenate([dsts, srcs])
        all_w = np.concatenate([w, w])
        view = Graph(
            CSR.from_edges(self.num_vertices, all_src, all_dst, all_w),
            name=self.name + "-sym" if self.name else "",
        )
        view._in_csr = view.out_csr
        return view

    def __repr__(self) -> str:
        label = self.name or "graph"
        return "Graph(%s: |V|=%d, |E|=%d)" % (
            label,
            self.num_vertices,
            self.num_edges,
        )
