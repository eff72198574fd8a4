"""Connected Components via min-label propagation.

Every vertex starts with its own id; edges propagate the minimum label
through the symmetrised graph until each weak component carries its
minimum vertex id.  Min-aggregation, so "start late" applies: a vertex's
guidance level approximates when the component minimum can first reach
it, and earlier label churn is skipped.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.apps.base import MinMaxApplication
from repro.graph.graph import Graph

__all__ = ["ConnectedComponents"]


class ConnectedComponents(MinMaxApplication):
    """Weakly connected component labels (minimum member id)."""

    aggregation = "min"
    needs_undirected = True
    name = "CC"

    def initial_values(self, graph: Graph, root: Optional[int]) -> np.ndarray:
        return np.arange(graph.num_vertices, dtype=np.float64)

    def initial_frontier(self, graph: Graph, root: Optional[int]) -> np.ndarray:
        return np.arange(graph.num_vertices, dtype=np.int64)

    def edge_candidates(
        self, values: np.ndarray, srcs: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        # Labels travel unchanged; weights are irrelevant to CC.
        return values[srcs]

    def source_terms(self, values: np.ndarray) -> np.ndarray:
        return values
