"""GraphChi baseline (Kyrola et al., OSDI'12).

GraphChi processes a graph that does not fit in memory with the
Parallel Sliding Windows method: each iteration streams every shard
(interval of vertices plus its in-edges) from disk, updates the
interval, and writes modified edge values back.  Its bottleneck — the
paper's Figure 6 finding — is therefore the per-iteration disk traffic,
which this model charges explicitly: every superstep reads the full
edge set (and writes back a fraction proportional to the vertices that
changed).

Computation follows the same synchronous semantics as the other
engines (full in-edge gathers for touched vertices), so results agree
exactly; only the cost profile differs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.apps.base import ArithmeticApplication, MinMaxApplication
from repro.cluster.config import ClusterConfig
from repro.cluster.metrics import MetricsCollector, PULL
from repro.core.engine import RunResult
from repro.core.runtime import SerialDispatch
from repro.errors import ConvergenceError
from repro.graph.graph import Graph
from repro.trace.recorder import NULL_RECORDER, Recorder

__all__ = ["GraphChiEngine"]


class GraphChiEngine:
    """Out-of-core single-machine engine with per-iteration shard I/O."""

    name = "GraphChi"

    def __init__(
        self,
        graph: Graph,
        config: Optional[ClusterConfig] = None,
        num_shards: int = 8,
        recorder: Optional[Recorder] = None,
    ) -> None:
        if num_shards < 1:
            raise ConvergenceError("num_shards must be >= 1")
        self.graph = graph
        base = config or ClusterConfig(num_nodes=1)
        self.config = base.single_node()
        self.num_shards = num_shards
        self.recorder = recorder if recorder is not None else NULL_RECORDER

    # ------------------------------------------------------------------
    def _shard_io_bytes(self, changed_fraction: float) -> int:
        """Disk traffic of one PSW sweep: read all, write back changed."""
        edge_bytes = self.graph.num_edges * self.config.disk.bytes_per_edge
        return int(edge_bytes * (1.0 + max(0.0, min(changed_fraction, 1.0))))

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
        run_graph = app.prepare(self.graph)
        n = run_graph.num_vertices
        rec = self.recorder
        metrics = MetricsCollector(1, recorder=rec)
        dispatch = SerialDispatch(run_graph, app)
        values = dispatch.values
        values[:] = app.initial_values(run_graph, root)
        active = np.unique(app.initial_frontier(run_graph, root))
        out_csr = run_graph.out_csr
        in_deg = dispatch.in_degrees
        cap = max_iterations or self._iteration_cap(run_graph)
        iteration = 0

        while active.size:
            iteration += 1
            if iteration > cap:
                raise ConvergenceError(
                    "%s did not settle within %d PSW sweeps" % (app.name, cap)
                )
            metrics.begin_iteration(PULL)
            with rec.phase("gather"):
                # Touched destinations perform full in-edge gathers.
                flat_touch = out_csr.expand_positions(active)
                touched = (
                    np.unique(out_csr.indices[flat_touch])
                    if flat_touch.size
                    else np.empty(0, dtype=np.int64)
                )
                gatherers = touched[in_deg[touched] > 0]
                if gatherers.size:
                    # PSW's defining component: the shard scan that
                    # streams each gatherer's in-edges from disk order
                    # and reduces them — a nested span so profiles show
                    # the edge pass apart from finding the touched set.
                    with rec.phase("shard_scan"):
                        dispatch.pull_apply(gatherers, app.aggregation)
                    metrics.add_edge_ops(
                        np.array([in_deg[gatherers].sum()], dtype=np.int64)
                    )
            with rec.phase("apply"):
                changed = gatherers[dispatch.improved[gatherers]]
                values[changed] = dispatch.result[changed]
            metrics.add_updates(changed.size)
            # The PSW sweep streams every shard regardless of frontier.
            metrics.add_io(self._shard_io_bytes(changed.size / max(n, 1)))
            metrics.set_frontier(active=active.size)
            metrics.end_iteration()
            active = changed

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
        run_graph = self.graph
        n = run_graph.num_vertices
        rec = self.recorder
        metrics = MetricsCollector(1, recorder=rec)
        app.bind(run_graph)
        dispatch = SerialDispatch(run_graph, app)
        values = dispatch.values
        values[:] = app.initial_values(run_graph)
        max_iterations = max_iterations or app.default_max_iterations
        tolerance = app.default_tolerance if tolerance is None else tolerance
        all_vertices = np.arange(n, dtype=np.int64)
        iteration = 0
        converged = False

        while iteration < max_iterations:
            iteration += 1
            metrics.begin_iteration(PULL)
            with rec.phase("gather"):
                with rec.phase("shard_scan"):
                    dispatch.gather(all_vertices)
                metrics.add_edge_ops(
                    np.array([run_graph.num_edges], dtype=np.int64)
                )
            with rec.phase("apply"):
                new_values = app.apply(dispatch.result, values)
                metrics.add_vertex_ops(np.array([n], dtype=np.int64))
            delta = np.abs(new_values - values)
            changed = int(np.count_nonzero(delta > 0))
            metrics.add_updates(changed)
            metrics.add_io(self._shard_io_bytes(changed / max(n, 1)))
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
