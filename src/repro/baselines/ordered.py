"""Work-optimal ordered execution — the other end of the trade-off.

The paper's introduction frames modern graph systems as choosing
*repeated relaxation* (Bellman-Ford style, massively parallel, full of
redundant computation) over *sequential work-optimal order* (Dijkstra
style, minimal computation, no parallelism), citing DSMR [27, 28].
SLFE's redundancy reduction moves along exactly this trade-off, so the
repository includes the work-optimal endpoint for comparison:

* min/max rooted traversals run priority-ordered label setting
  (Dijkstra / its max-bottleneck variant): every vertex settles once,
  every edge relaxes at most once per settle — the computation lower
  bound the paper's "ideal = 1 update per vertex" refers to;
* connected components runs one BFS per component from its minimum id.

There is no parallelism to model: the *sequential depth* equals the
number of settle steps (RunResult.iterations), against which the BSP
engines' superstep counts can be compared.  The trade-off experiment in
``benchmarks/test_ordered_tradeoff.py`` shows all three corners:
ordered does the least work with the worst depth, the plain BSP
baseline the most work, SLFE in between on work at BSP depth.
"""

from __future__ import annotations

import heapq
from typing import Optional

import numpy as np

from repro.apps.base import MinMaxApplication
from repro.cluster.config import ClusterConfig
from repro.cluster.metrics import MetricsCollector, PULL
from repro.core.engine import RunResult
from repro.errors import EngineError
from repro.graph.analysis import bfs_sweep
from repro.graph.graph import Graph
from repro.trace.recorder import NULL_RECORDER, Recorder

__all__ = ["OrderedEngine"]


class OrderedEngine:
    """Sequential priority-ordered engine for min/max applications."""

    name = "Ordered"

    def __init__(
        self,
        graph: Graph,
        config: Optional[ClusterConfig] = None,
        recorder: Optional[Recorder] = None,
    ) -> None:
        self.graph = graph
        base = config or ClusterConfig(num_nodes=1)
        self.config = base.single_node()
        self.recorder = recorder if recorder is not None else NULL_RECORDER

    # ------------------------------------------------------------------
    def run_minmax(
        self,
        app: MinMaxApplication,
        root: Optional[int] = None,
        max_iterations: Optional[int] = None,
    ) -> RunResult:
        """Label-setting execution; ``iterations`` = sequential depth."""
        run_graph = app.prepare(self.graph)
        if app.name == "CC":
            return self._run_components(app, run_graph)
        if root is None:
            raise EngineError("ordered traversals need a root")
        return self._run_dijkstra(app, run_graph, root)

    def _run_dijkstra(
        self, app: MinMaxApplication, run_graph: Graph, root: int
    ) -> RunResult:
        values = app.initial_values(run_graph, root).astype(np.float64)
        minimise = app.aggregation == "min"
        out = run_graph.out_csr
        settled = np.zeros(run_graph.num_vertices, dtype=bool)
        # heap of (key, vertex); max-aggregation negates keys.
        start_key = values[root] if minimise else -values[root]
        heap = [(float(start_key), root)]
        rec = self.recorder
        metrics = MetricsCollector(1, recorder=rec)
        metrics.begin_iteration(PULL)
        edge_ops = 0
        updates = 0
        depth = 0
        # The whole priority-ordered traversal is one long gather from
        # the profiler's point of view (there is no superstep structure
        # to split it by); the span makes ordered baselines show up in
        # phase profiles instead of reporting all time as untimed.
        with rec.phase("gather"):
            while heap:
                key, vertex = heapq.heappop(heap)
                if settled[vertex]:
                    continue
                settled[vertex] = True
                depth += 1
                sl = out.edge_slice(vertex)
                neighbors = out.indices[sl]
                weights = out.weights[sl]
                if neighbors.size:
                    edge_ops += int(neighbors.size)
                    candidates = app.edge_candidates(
                        values, np.full(neighbors.size, vertex), weights
                    )
                    # Compare against *current* values inside the loop:
                    # parallel edges to the same neighbour must not let a
                    # worse candidate overwrite a better one.
                    for nbr, cand in zip(neighbors, candidates):
                        if settled[nbr]:
                            continue
                        current = values[nbr]
                        improves = (
                            cand < current if minimise else cand > current
                        )
                        if improves:
                            values[nbr] = cand
                            updates += 1
                            heapq.heappush(
                                heap,
                                (
                                    float(cand if minimise else -cand),
                                    int(nbr),
                                ),
                            )
        metrics.add_edge_ops(np.array([edge_ops], dtype=np.int64))
        metrics.add_updates(updates)
        metrics.set_frontier(active=depth)
        metrics.end_iteration()
        return RunResult(
            values=values,
            metrics=metrics,
            iterations=depth,
            graph=run_graph,
        )

    def _run_components(
        self, app: MinMaxApplication, run_graph: Graph
    ) -> RunResult:
        """One BFS per component, in ascending id order: O(V + E)."""
        n = run_graph.num_vertices
        values = app.initial_values(run_graph, None).astype(np.float64)
        out = run_graph.out_csr
        assigned = np.zeros(n, dtype=bool)
        rec = self.recorder
        metrics = MetricsCollector(1, recorder=rec)
        metrics.begin_iteration(PULL)
        edge_ops = 0
        updates = 0
        depth = 0
        with rec.phase("gather"):
            for seed in range(n):
                if assigned[seed]:
                    continue
                assigned[seed] = True
                values[seed] = seed
                updates += 1
                depth += 1
                frontier = np.array([seed], dtype=np.int64)
                for dsts, fresh in bfs_sweep(out, frontier, assigned):
                    edge_ops += int(dsts.size)
                    values[fresh] = seed
                    updates += int(fresh.size)
                    if fresh.size:  # one settle step per non-empty frontier
                        depth += 1
        metrics.add_edge_ops(np.array([edge_ops], dtype=np.int64))
        metrics.add_updates(updates)
        metrics.set_frontier(active=depth)
        metrics.end_iteration()
        return RunResult(
            values=values,
            metrics=metrics,
            iterations=depth,
            graph=run_graph,
        )
