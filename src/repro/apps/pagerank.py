"""PageRank (the paper's Algorithm 5).

Arithmetic aggregation: each vertex sums the degree-normalised ranks of
its in-neighbours, then applies ``rank = 0.15 + 0.85 * sum``.  The
"finish early" principle freezes a vertex once its rank has been stable
for more than its guidance level — the EC vertices of Figure 2.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import ArithmeticApplication
from repro.graph.graph import Graph

__all__ = ["PageRank"]


class PageRank(ArithmeticApplication):
    """Damped PageRank over out-degree-normalised contributions."""

    name = "PR"
    default_max_iterations = 500
    default_tolerance = 1e-8
    #: PageRank is the canonical accumulative app (Maiter Section 2):
    #: rank is a geometric series over paths, so deltas may land in any
    #: order — starting from 0 with a (1-d) seed everywhere, propagating
    #: d * delta / out_degree reaches the same fixed point as the
    #: synchronous ``(1-d) + d * gathered`` iteration.
    accumulative = True
    async_tolerance = 1e-6

    def __init__(self, damping: float = 0.85) -> None:
        if not 0.0 <= damping < 1.0:
            raise ValueError("damping must be in [0, 1)")
        self.damping = damping
        self._inv_out_degree: np.ndarray = np.zeros(0)

    def bind(self, graph: Graph) -> None:
        out_deg = graph.out_degrees().astype(np.float64)
        # Dangling vertices contribute their full (undivided) rank, as in
        # Algorithm 5 line 6-7 where the divide is skipped.
        inv = np.ones_like(out_deg)
        nz = out_deg > 0
        inv[nz] = 1.0 / out_deg[nz]
        self._inv_out_degree = inv

    def initial_values(self, graph: Graph) -> np.ndarray:
        return np.ones(graph.num_vertices)

    def edge_contributions(
        self,
        values: np.ndarray,
        srcs: np.ndarray,
        dsts: np.ndarray,
        weights: np.ndarray,
    ) -> np.ndarray:
        return values[srcs] * self._inv_out_degree[srcs]

    def source_terms(self, values: np.ndarray) -> np.ndarray:
        # The divide hoisted to the vertex phase (as Gemini writes it).
        return values * self._inv_out_degree

    def apply(self, gathered: np.ndarray, values: np.ndarray) -> np.ndarray:
        return (1.0 - self.damping) + self.damping * gathered

    # -- accumulative (async) form -------------------------------------
    def delta_seed(self, graph: Graph):
        n = graph.num_vertices
        return np.zeros(n), np.full(n, 1.0 - self.damping)

    def delta_edge_contributions(
        self,
        deltas: np.ndarray,
        srcs: np.ndarray,
        dsts: np.ndarray,
        weights: np.ndarray,
    ) -> np.ndarray:
        return self.damping * deltas * self._inv_out_degree[srcs]
