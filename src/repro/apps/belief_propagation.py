"""Belief propagation (mean-field variant) — Table 1's BP entry.

Inference over a binary pairwise Markov random field on the graph:
each vertex carries a prior bias toward state 1 and each edge a
(uniform) coupling strength pulling neighbours toward agreement.  The
mean-field update

    belief[v] = sigmoid( bias[v] + coupling * sum over in-edges
                         weight(u, v) * (2 * belief[u] - 1) )

is a per-vertex arithmetic fixpoint — exactly the aggregation class the
paper's "finish early" targets — and contracts whenever
``coupling * max weighted in-degree < 1``, which
:class:`BeliefPropagation` checks at bind time.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import ArithmeticApplication, resident
from repro.errors import ConvergenceError
from repro.graph.graph import Graph

__all__ = ["BeliefPropagation"]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Numerically stable split form.
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    z = np.exp(x[~positive])
    out[~positive] = z / (1.0 + z)
    return out


class BeliefPropagation(ArithmeticApplication):
    """Mean-field marginals of a binary MRF over the graph.

    Parameters
    ----------
    prior:
        Per-vertex prior probability of state 1 (array in (0, 1)), or
        ``None`` for the uninformative 0.5 prior.
    coupling:
        Attractive interaction strength; 0 decouples vertices entirely
        (beliefs equal the priors).
    """

    name = "BP"
    default_max_iterations = 300
    default_tolerance = 1e-10

    def __init__(self, prior: np.ndarray = None, coupling: float = 0.1) -> None:
        if coupling < 0:
            raise ValueError("coupling must be non-negative")
        self.coupling = coupling
        self.prior = None if prior is None else np.asarray(prior, dtype=np.float64)
        self._bias: np.ndarray = np.zeros(0)

    def bind(self, graph: Graph) -> None:
        n = graph.num_vertices
        prior = self.prior if self.prior is not None else np.full(n, 0.5)
        if prior.shape != (n,):
            raise ValueError("prior must have one entry per vertex")
        if np.any(prior <= 0) or np.any(prior >= 1):
            raise ValueError("prior probabilities must lie strictly in (0, 1)")
        # log-odds of the prior
        self._bias = np.log(prior / (1.0 - prior))
        if self.coupling > 0 and n:
            in_weight = np.zeros(n)
            in_csr = resident(self, graph.in_csr, "bind sums every in-edge weight")
            np.add.at(in_weight, in_csr.row_of_edge(), np.abs(in_csr.weights))
            worst = float(in_weight.max(initial=0.0))
            # Mean-field iteration is a contraction when the Jacobian
            # norm  coupling * max_in_weight * max|sigmoid'| (= 1/4) * 2
            # stays below 1.
            if self.coupling * worst * 0.5 >= 1.0:
                raise ConvergenceError(
                    "coupling %.3f too strong for max weighted in-degree "
                    "%.1f; mean-field BP would not contract"
                    % (self.coupling, worst)
                )

    def initial_values(self, graph: Graph) -> np.ndarray:
        prior = self.prior if self.prior is not None else np.full(
            graph.num_vertices, 0.5
        )
        return prior.astype(np.float64).copy()

    def edge_contributions(
        self,
        values: np.ndarray,
        srcs: np.ndarray,
        dsts: np.ndarray,
        weights: np.ndarray,
    ) -> np.ndarray:
        # Each in-neighbour pushes its signed magnetisation (2b - 1).
        return weights * (2.0 * values[srcs] - 1.0)

    def apply(self, gathered: np.ndarray, values: np.ndarray) -> np.ndarray:
        return _sigmoid(self._bias + self.coupling * gathered)
