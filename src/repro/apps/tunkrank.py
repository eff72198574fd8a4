"""TunkRank: expected influence on a follower graph.

An edge ``u -> v`` means *u follows v*.  A follower passes on
``(1 + p * influence) / following_count`` where ``p`` is the probability
a seen item is retweeted.  Arithmetic aggregation, so "finish early"
applies — the paper's fifth evaluation application.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import ArithmeticApplication
from repro.graph.graph import Graph

__all__ = ["TunkRank"]


class TunkRank(ArithmeticApplication):
    """Influence scores under the TunkRank recurrence."""

    name = "TR"
    default_max_iterations = 500
    default_tolerance = 1e-8
    #: Deliberately not accumulative: the recurrence is affine (the
    #: constant 1/following term would need its own seed derivation),
    #: and keeping one real arithmetic app outside the async engine
    #: exercises its typed rejection path end to end.
    accumulative = False

    def __init__(self, retweet_probability: float = 0.05) -> None:
        if not 0.0 <= retweet_probability < 1.0:
            raise ValueError("retweet_probability must be in [0, 1)")
        self.retweet_probability = retweet_probability
        self._inv_following: np.ndarray = np.zeros(0)

    def bind(self, graph: Graph) -> None:
        self._inv_following = 1.0 / np.maximum(
            graph.out_degrees().astype(np.float64), 1.0
        )

    def initial_values(self, graph: Graph) -> np.ndarray:
        return np.zeros(graph.num_vertices)

    def edge_contributions(
        self,
        values: np.ndarray,
        srcs: np.ndarray,
        dsts: np.ndarray,
        weights: np.ndarray,
    ) -> np.ndarray:
        return (
            1.0 + self.retweet_probability * values[srcs]
        ) * self._inv_following[srcs]

    def source_terms(self, values: np.ndarray) -> np.ndarray:
        return (
            1.0 + self.retweet_probability * values
        ) * self._inv_following

    def apply(self, gathered: np.ndarray, values: np.ndarray) -> np.ndarray:
        return gathered
