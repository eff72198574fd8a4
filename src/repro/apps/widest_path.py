"""Widest Path (maximum bottleneck bandwidth) from a root.

Max-aggregation: an edge proposes ``min(capacity[src], weight)`` — the
bottleneck of extending the path — and each destination keeps the
maximum proposal.  The root has infinite capacity; unreachable vertices
stay at 0.  One of the paper's three min/max evaluation applications.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.apps.base import MinMaxApplication, resident
from repro.errors import EngineError
from repro.graph.graph import Graph

__all__ = ["WidestPath"]


class WidestPath(MinMaxApplication):
    """Maximum bottleneck capacity from a root vertex."""

    aggregation = "max"
    name = "WP"

    def initial_values(self, graph: Graph, root: Optional[int]) -> np.ndarray:
        if root is None:
            raise EngineError("WidestPath requires a root vertex")
        if not 0 <= root < graph.num_vertices:
            raise EngineError("WidestPath root %d out of range" % root)
        csr = resident(self, graph.out_csr, "initial_values checks every edge weight")
        if np.isnan(csr.weights).any():
            raise EngineError("WidestPath requires non-NaN edge weights")
        values = np.zeros(graph.num_vertices)
        values[root] = np.inf
        return values

    def initial_frontier(self, graph: Graph, root: Optional[int]) -> np.ndarray:
        return np.array([root], dtype=np.int64)

    def edge_candidates(
        self, values: np.ndarray, srcs: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        return np.minimum(values[srcs], weights)
