"""Single-Source Shortest Path (the paper's Algorithm 4).

Min-aggregation: every edge proposes ``dist[src] + weight`` to its
destination; the root starts at 0 and everything else at infinity.  The
"start late" principle skips a vertex's pulls until its guidance level,
avoiding the intermediate-distance recomputation of Figure 1.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.apps.base import MinMaxApplication, resident
from repro.errors import EngineError
from repro.graph.graph import Graph

__all__ = ["SSSP"]


class SSSP(MinMaxApplication):
    """Shortest distances from a root over non-negative weights."""

    aggregation = "min"
    name = "SSSP"

    def initial_values(self, graph: Graph, root: Optional[int]) -> np.ndarray:
        if root is None:
            raise EngineError("SSSP requires a root vertex")
        if not 0 <= root < graph.num_vertices:
            raise EngineError("SSSP root %d out of range" % root)
        # One pass that also catches NaN (``nan < 0`` is False).
        csr = resident(self, graph.out_csr, "initial_values checks every edge weight")
        if not (csr.weights >= 0).all():
            raise EngineError("SSSP requires non-negative, non-NaN edge weights")
        values = np.full(graph.num_vertices, np.inf)
        values[root] = 0.0
        return values

    def initial_frontier(self, graph: Graph, root: Optional[int]) -> np.ndarray:
        return np.array([root], dtype=np.int64)

    def edge_candidates(
        self, values: np.ndarray, srcs: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        return values[srcs] + weights
