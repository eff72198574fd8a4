"""Gather-Apply-Scatter engine over a vertex-cut (PowerGraph family).

PowerGraph (Gonzalez et al., OSDI'12) and PowerLyra (Chen et al.,
EuroSys'15) execute vertex programs as synchronous Gather-Apply-Scatter
supersteps over an *edge* partition:

* **gather** — an active vertex reduces over all of its in-edges, with
  the work executed wherever each edge lives (the point of vertex-cuts);
* **apply** — the master replica commits the new value;
* **scatter** — changed vertices signal their out-neighbours, which
  become active next superstep.

The costs this model charges — and the reason the paper's SLFE beats
these systems by 5-75x — are:

* every activation triggers a *full* gather over the vertex's in-edges
  (no direction switching, no redundancy elimination);
* every gather/apply of a replicated vertex synchronises its mirrors:
  ``2 * (replicas - 1)`` coalesced messages (gather partial sums up to
  the master, new value back down), so communication scales with the
  partition's replication factor.

:class:`GASEngine` is parameterised by the edge partitioner, which is
the only difference between the PowerGraph and PowerLyra baselines.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.apps.base import ArithmeticApplication, MinMaxApplication
from repro.cluster.config import ClusterConfig
from repro.cluster.metrics import MetricsCollector, PULL
from repro.core.engine import RunResult
from repro.core.runtime import SerialDispatch
from repro.errors import ConvergenceError, EngineError
from repro.graph.graph import Graph
from repro.partition.base import EdgePartition, Partitioner
from repro.trace.recorder import NULL_RECORDER, Recorder

__all__ = ["GASEngine"]


class GASEngine:
    """Synchronous GAS execution over an edge partition."""

    name = "GAS"

    def __init__(
        self,
        graph: Graph,
        partitioner: Partitioner,
        config: Optional[ClusterConfig] = None,
        recorder: Optional[Recorder] = None,
    ) -> None:
        if partitioner.kind != "edge":
            raise EngineError(
                "GAS engines need an edge (vertex-cut) partitioner"
            )
        self.graph = graph
        self.partitioner = partitioner
        self.config = config or ClusterConfig(num_nodes=1)
        self.recorder = recorder if recorder is not None else NULL_RECORDER

    # ------------------------------------------------------------------
    def _prepare(self, run_graph: Graph):
        """Partition the run graph and precompute owner/replica arrays."""
        partition = self.partitioner.partition(
            run_graph, self.config.num_nodes
        )
        assert isinstance(partition, EdgePartition)
        # Out-edge owners align with the out-CSR; carry them into the
        # in-CSR order so gather work lands on the edge's owner node.
        out_owner = partition.edge_owner
        in_owner = out_owner[run_graph.out_csr.transpose_permutation()]
        replicas = partition.replica_presence().sum(axis=1)
        return partition, out_owner, in_owner, replicas

    def _sync_messages(self, replicas: np.ndarray, vertices: np.ndarray) -> int:
        """Mirror synchronisation for gathering/applying ``vertices``."""
        if self.config.num_nodes == 1 or vertices.size == 0:
            return 0
        return int(2 * (replicas[vertices] - 1).sum())

    @staticmethod
    def _iteration_cap(run_graph: Graph) -> int:
        return run_graph.num_vertices + 100

    # ------------------------------------------------------------------
    def run_minmax(
        self,
        app: MinMaxApplication,
        root: Optional[int] = None,
        max_iterations: Optional[int] = None,
    ) -> RunResult:
        """GAS fixpoint for a comparison-aggregation application."""
        run_graph = app.prepare(self.graph)
        rec = self.recorder
        partition, out_owner, in_owner, replicas = self._prepare(run_graph)
        metrics = MetricsCollector(self.config.num_nodes, recorder=rec)
        bytes_per_update = self.config.network.bytes_per_update

        dispatch = SerialDispatch(run_graph, app)
        values = dispatch.values
        values[:] = app.initial_values(run_graph, root)
        in_csr = run_graph.in_csr
        out_csr = run_graph.out_csr
        # The initial frontier's values are scattered before the first
        # superstep (PowerGraph seeds execution through signal()), so
        # the first gatherers are the frontier plus its out-neighbours.
        seed = np.unique(app.initial_frontier(run_graph, root))
        seed_flat = out_csr.expand_positions(seed)
        active = np.unique(
            np.concatenate([seed, out_csr.indices[seed_flat]])
            if seed_flat.size
            else seed
        )
        in_deg = dispatch.in_degrees
        cap = max_iterations or self._iteration_cap(run_graph)
        iteration = 0

        while active.size:
            iteration += 1
            if iteration > cap:
                raise ConvergenceError(
                    "%s did not settle within %d GAS supersteps"
                    % (app.name, cap)
                )
            metrics.begin_iteration(PULL)
            # -- gather: full in-edge reduction for every active vertex
            with rec.phase("gather"):
                gatherers = active[in_deg[active] > 0]
                if gatherers.size:
                    dispatch.pull_apply(gatherers, app.aggregation)
                    flat = in_csr.expand_positions(gatherers)
                    metrics.add_edge_ops(
                        np.bincount(
                            in_owner[flat], minlength=self.config.num_nodes
                        )
                    )
            # -- apply: masters commit improved values
            with rec.phase("apply"):
                changed = gatherers[dispatch.improved[gatherers]]
                values[changed] = dispatch.result[changed]
                metrics.add_vertex_ops(
                    np.bincount(
                        partition.master[active],
                        minlength=self.config.num_nodes,
                    )
                )
            # -- scatter: changed vertices signal their out-neighbours
            with rec.phase("scatter"):
                scatter_flat = out_csr.expand_positions(changed)
                next_active = (
                    np.unique(out_csr.indices[scatter_flat])
                    if scatter_flat.size
                    else np.empty(0, dtype=np.int64)
                )
                if scatter_flat.size:
                    metrics.add_edge_ops(
                        np.bincount(
                            out_owner[scatter_flat],
                            minlength=self.config.num_nodes,
                        )
                    )
            # -- mirror synchronisation for everything touched this round
            with rec.phase("sync"):
                with rec.phase("mirror_sync"):
                    sync = self._sync_messages(
                        replicas, active
                    ) + self._sync_messages(replicas, changed)
                metrics.add_messages(sync, sync * bytes_per_update)
            metrics.add_updates(changed.size)
            metrics.set_frontier(active=active.size)
            metrics.end_iteration()
            active = next_active

        return RunResult(
            values=values,
            metrics=metrics,
            iterations=iteration,
            graph=run_graph,
        )

    # ------------------------------------------------------------------
    def run_arithmetic(
        self,
        app: ArithmeticApplication,
        max_iterations: Optional[int] = None,
        tolerance: Optional[float] = None,
    ) -> RunResult:
        """GAS iteration for a sum-aggregation application.

        Like the real systems (see SPARK-3427), every vertex gathers in
        every superstep — there is no early-converged tracking, which is
        exactly the redundancy Figure 2 quantifies.
        """
        run_graph = self.graph
        n = run_graph.num_vertices
        rec = self.recorder
        partition, out_owner, in_owner, replicas = self._prepare(run_graph)
        metrics = MetricsCollector(self.config.num_nodes, recorder=rec)
        bytes_per_update = self.config.network.bytes_per_update
        app.bind(run_graph)
        dispatch = SerialDispatch(run_graph, app)
        values = dispatch.values
        values[:] = app.initial_values(run_graph)
        max_iterations = max_iterations or app.default_max_iterations
        tolerance = app.default_tolerance if tolerance is None else tolerance

        all_vertices = np.arange(n, dtype=np.int64)
        all_in_owner_counts = np.bincount(
            in_owner, minlength=self.config.num_nodes
        ).astype(np.int64)
        iteration = 0
        converged = False

        while iteration < max_iterations:
            iteration += 1
            metrics.begin_iteration(PULL)
            with rec.phase("gather"):
                dispatch.gather(all_vertices)
                metrics.add_edge_ops(all_in_owner_counts)
            with rec.phase("apply"):
                new_values = app.apply(dispatch.result, values)
                metrics.add_vertex_ops(
                    np.bincount(
                        partition.master, minlength=self.config.num_nodes
                    )
                )
            delta = np.abs(new_values - values)
            changed = np.nonzero(delta > 0)[0]
            with rec.phase("sync"):
                with rec.phase("mirror_sync"):
                    sync = self._sync_messages(replicas, all_vertices)
                metrics.add_messages(sync, sync * bytes_per_update)
            metrics.add_updates(changed.size)
            metrics.set_frontier(active=n)
            metrics.end_iteration()
            values[:] = new_values
            if float(delta.max(initial=0.0)) < tolerance:
                converged = True
                break

        return RunResult(
            values=values,
            metrics=metrics,
            iterations=iteration,
            graph=run_graph,
            converged=converged,
        )
