"""Heat diffusion over a graph (Table 1's HeatSimulation).

Explicit-Euler diffusion: each round a vertex blends its own heat with
the mean heat of its in-neighbours.  Vertices without in-edges keep
their heat.  Arithmetic aggregation; runs a fixed number of steps or to
convergence, whichever first.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import ArithmeticApplication
from repro.graph.graph import Graph

__all__ = ["HeatSimulation"]


class HeatSimulation(ArithmeticApplication):
    """``h' = (1 - k) h + k * mean(in-neighbour heat)``."""

    name = "Heat"
    default_max_iterations = 50
    default_tolerance = 1e-10

    def __init__(self, initial_heat: np.ndarray, conductivity: float = 0.2) -> None:
        if not 0.0 < conductivity <= 1.0:
            raise ValueError("conductivity must be in (0, 1]")
        self.initial_heat = np.asarray(initial_heat, dtype=np.float64)
        self.conductivity = conductivity
        self._inv_in_degree: np.ndarray = np.zeros(0)
        self._has_in: np.ndarray = np.zeros(0, dtype=bool)

    def bind(self, graph: Graph) -> None:
        in_deg = graph.in_degrees().astype(np.float64)
        self._has_in = in_deg > 0
        self._inv_in_degree = 1.0 / np.maximum(in_deg, 1.0)

    def initial_values(self, graph: Graph) -> np.ndarray:
        if self.initial_heat.shape != (graph.num_vertices,):
            raise ValueError("initial_heat must have one entry per vertex")
        return self.initial_heat.copy()

    def edge_contributions(
        self,
        values: np.ndarray,
        srcs: np.ndarray,
        dsts: np.ndarray,
        weights: np.ndarray,
    ) -> np.ndarray:
        return values[srcs]

    def source_terms(self, values: np.ndarray) -> np.ndarray:
        return values

    def apply(self, gathered: np.ndarray, values: np.ndarray) -> np.ndarray:
        mean_in = np.where(
            self._has_in, gathered * self._inv_in_degree, values
        )
        return (1.0 - self.conductivity) * values + self.conductivity * mean_in
