"""Application interfaces shared by SLFE and every baseline engine.

The paper's Table 1 splits graph analytics by aggregation function, and
the two classes here mirror that split:

* :class:`MinMaxApplication` — comparison aggregation (SSSP,
  ConnectedComponents, WidestPath, BFS, ...).  The engine relaxes
  per-edge *candidates* into each destination with min() or max(); the
  "start late" principle applies.
* :class:`ArithmeticApplication` — sum/product aggregation (PageRank,
  TunkRank, SpMV, HeatSimulation, NumPaths, ...).  The engine gathers
  per-edge *contributions*, sums them per destination and applies a
  vertex function; the "finish early" principle applies.

All hooks are vectorised: they receive aligned edge arrays and must
return per-edge arrays, which is what lets a Python engine process
hundred-thousand-edge supersteps in milliseconds while still counting
every operation exactly.

Apps whose per-edge value depends on the edge's source alone (PageRank,
TunkRank, HeatSimulation; ConnectedComponents on the min/max side)
additionally expose it per vertex through ``source_terms`` — source-only,
pure, the same float expression as ``edge_contributions`` /
``edge_candidates``, called once per gather or pull phase — which is
what the shared gather and pull kernels read; ``edge_contributions`` and
``edge_candidates`` stay the general contract every other path (push,
baselines, async, the scalar runtime) calls.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from repro.errors import EngineError
from repro.graph.graph import Graph

__all__ = ["MinMaxApplication", "ArithmeticApplication", "resident"]


def resident(app, csr, step: str):
    """``csr``, whose edges ``app``'s ``step`` reads outside the streamed
    phases; an error naming both if they are spilled to a shard store."""
    if not csr.resident:
        raise EngineError(
            "%s cannot run on a spilled graph: its %s, and only the "
            "phases stream a spilled graph's edges; run %s on the graph "
            "in memory" % (app.name, step, app.name))
    return csr


class MinMaxApplication(abc.ABC):
    """A comparison-aggregation vertex program.

    Subclasses define the candidate an edge proposes to its destination
    and the initial state; the engine owns iteration, direction
    switching, redundancy reduction, and termination.
    """

    #: "min" or "max" — the aggregation the engine applies.
    aggregation: str = "min"
    #: Run on the symmetrised graph (ConnectedComponents semantics).
    needs_undirected: bool = False
    #: Human-readable short name used in reports.
    name: str = "minmax"
    #: Comparison aggregation is natively delta-accumulative: relaxing
    #: an edge is idempotent and commutative, so an async engine may
    #: propagate improvements in any order and reach the same fixpoint.
    accumulative: bool = True
    #: L-inf bound on async-vs-BSP fixed-point disagreement (float
    #: summation order along a path can differ by rounding only).
    async_tolerance: float = 1e-9

    # ------------------------------------------------------------------
    def prepare(self, graph: Graph) -> Graph:
        """The graph the run actually executes on (symmetrised for CC)."""
        if not self.needs_undirected:
            return graph
        resident(self, graph.out_csr, "prepare symmetrises every edge")
        return graph.undirected_view()

    @property
    def identity(self) -> float:
        """Aggregation identity: +inf for min, -inf for max."""
        return np.inf if self.aggregation == "min" else -np.inf

    def better(self, candidate: np.ndarray, incumbent: np.ndarray) -> np.ndarray:
        """Element-wise 'candidate improves incumbent' under aggregation."""
        if self.aggregation == "min":
            return candidate < incumbent
        return candidate > incumbent

    def reduce(self, values: np.ndarray) -> float:
        return float(np.min(values) if self.aggregation == "min" else np.max(values))

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def initial_values(self, graph: Graph, root: Optional[int]) -> np.ndarray:
        """Per-vertex initial property array (float64)."""

    @abc.abstractmethod
    def initial_frontier(self, graph: Graph, root: Optional[int]) -> np.ndarray:
        """Ids of initially active vertices.

        Every vertex outside it must propose no candidate that beats an
        out-neighbour's initial value: the engine's pull then reads a
        started destination's candidates from the frontier alone.
        """

    @abc.abstractmethod
    def edge_candidates(
        self,
        values: np.ndarray,
        srcs: np.ndarray,
        weights: np.ndarray,
    ) -> np.ndarray:
        """Candidate value each edge proposes to its destination.

        ``srcs``/``weights`` are aligned per-edge arrays; the result must
        align with them.  E.g. SSSP returns ``values[srcs] + weights``.
        """

    def source_terms(self, values: np.ndarray) -> Optional[np.ndarray]:
        """Per-vertex array ``t`` with ``candidate(u -> v, w) == t[u]``,
        or ``None`` (the default) when the candidate also reads the
        weight.  Same contract as
        :meth:`ArithmeticApplication.source_terms` — source-only, pure,
        ``t[srcs]`` bit-equal to :meth:`edge_candidates` — called once
        per pull phase by the phase's owner; the shared pull kernel then
        gathers one float per edge and no weights.
        """
        return None

    def guidance_roots(self, graph: Graph, root: Optional[int]) -> np.ndarray:
        """Roots Algorithm 1 should propagate from for this app.

        Rooted traversals return their root; graph-wide apps fall back to
        the generic topological roots (see :func:`repro.core.rrg.default_roots`).
        """
        from repro.core.rrg import default_roots

        if root is not None:
            return np.array([root], dtype=np.int64)
        return default_roots(graph)


class ArithmeticApplication(abc.ABC):
    """A sum-aggregation vertex program (always executed in pull mode).

    Subclasses may override :meth:`bind` to precompute per-vertex factors
    (degrees, levels) before the run; it is called exactly once with the
    run graph.

    An app whose per-edge contribution depends on the edge's *source*
    alone should also implement :meth:`source_terms`: the shared gather
    kernel then reads one float per edge instead of calling
    :meth:`edge_contributions` on per-edge ``srcs``/``dsts``/``weights``.
    """

    name: str = "arith"
    #: Default iteration cap when the driver does not provide one.
    default_max_iterations: int = 200
    #: L-inf convergence tolerance on the property array.
    default_tolerance: float = 1e-8
    #: Whether the vertex program has Maiter-style accumulative
    #: semantics: the fixed point can be reached by *adding* per-edge
    #: delta contributions in any order instead of recomputing full
    #: gathers.  Apps that opt in must implement :meth:`delta_seed` and
    #: :meth:`delta_edge_contributions`; everything else is rejected by
    #: the async engine with a typed error.
    accumulative: bool = False
    #: L-inf bound on async-vs-BSP fixed-point disagreement allowed for
    #: this app (async truncates the delta series at the mass
    #: threshold, BSP at the per-sweep L-inf tolerance).
    async_tolerance: float = 1e-6

    def bind(self, graph: Graph) -> None:
        """Precompute per-vertex constants; default does nothing."""

    # -- accumulative (async) hooks ------------------------------------
    def delta_seed(self, graph: Graph):
        """``(values0, deltas0)`` starting an accumulative run.

        ``values0`` is the state before any delta lands; ``deltas0`` the
        per-vertex pending deltas whose transitive propagation sums to
        the BSP fixed point.  Only accumulative apps implement this.
        """
        raise NotImplementedError(
            "%s does not declare accumulative semantics" % self.name
        )

    def delta_edge_contributions(
        self,
        deltas: np.ndarray,
        srcs: np.ndarray,
        dsts: np.ndarray,
        weights: np.ndarray,
    ) -> np.ndarray:
        """Per-edge delta each applied source delta propagates onward.

        ``deltas`` aligns with ``srcs``/``dsts``/``weights`` (one row
        per out-edge of the vertices whose deltas were just applied).
        """
        raise NotImplementedError(
            "%s does not declare accumulative semantics" % self.name
        )

    @abc.abstractmethod
    def initial_values(self, graph: Graph) -> np.ndarray:
        """Per-vertex initial property array (float64)."""

    @abc.abstractmethod
    def edge_contributions(
        self,
        values: np.ndarray,
        srcs: np.ndarray,
        dsts: np.ndarray,
        weights: np.ndarray,
    ) -> np.ndarray:
        """Per-edge contribution summed into each destination."""

    def source_terms(self, values: np.ndarray) -> Optional[np.ndarray]:
        """Per-vertex array ``t`` with ``contribution(u -> v, w) == t[u]``,
        or ``None`` (the default) when the contribution also reads the
        weight or the destination.

        Contract, for apps that return an array:

        * **source-only** — ``t[u]`` is the contribution of *every*
          out-edge of ``u``, whatever its destination and weight;
        * **pure** — no side effects, ``values`` is not modified (it may
          be returned as is), the result is only read;
        * **the same float expression** as :meth:`edge_contributions`,
          evaluated per vertex instead of per edge, so that
          ``t[srcs]`` equals ``edge_contributions(values, srcs, ...)``
          bit for bit — the engines that gather through terms and the
          ones that call :meth:`edge_contributions` (baselines, async,
          the scalar runtime) must not differ in a single ulp;
        * called **once per gather phase** by whoever owns the phase
          (a dispatch, or each pool worker), on that phase's read-only
          ``values`` snapshot — never per block or per shard.
        """
        return None

    @abc.abstractmethod
    def apply(self, gathered: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Vertex function: combine gathered sums with current values.

        Receives and returns full per-vertex arrays; the engine writes
        EC vertices' old values into the returned array, which may be
        ``gathered`` itself.
        """
