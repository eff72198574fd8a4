"""Figure 10 — effects of redundancy reduction on load balance.

Two panels:

* **10a (intra-node)** — mini-chunk work stealing vs static scheduling.
  RR makes per-chunk work uneven (skipped/EC vertices leave holes), so
  static assignment suffers; the paper reports stealing recovering ~15%
  (min/max apps) and ~21% (arithmetic apps) of runtime.  The
  reproduction replays each iteration's *actual* per-vertex op counts
  through the scheduler simulation and reports the makespan ratio.
* **10b (inter-node)** — the gap between the earliest- and
  latest-finishing node with and without RR: chunking keeps it under
  ~7%, and RR adds only ~2% on average.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.bench import workloads
from repro.bench.reporting import Table
from repro.bench.runner import run_workload
from repro.cluster import worksteal
from repro.runconfig import current

__all__ = ["stealing_ratio", "run_intra", "run_inter", "main"]


def stealing_ratio(
    app_name: str,
    graph_key: str,
    scale_divisor: int = workloads.DEFAULT_SCALE_DIVISOR,
    num_threads: int = 8,
    chunk_vertices: int = 16,
) -> float:
    """Runtime with stealing / runtime without, from real op traces.

    Replays every iteration's per-vertex op counts through the
    mini-chunk scheduler; the ratio of summed makespans is the modeled
    intra-node effect of work stealing (< 1 means stealing helps).

    The paper's 256-vertex mini-chunks and 68 threads assume
    million-vertex per-node ranges; on 2000x stand-ins the same
    chunks-per-thread granularity corresponds to the scaled defaults
    here (16-vertex chunks, 8 threads).
    """
    outcome = run_workload(
        "SLFE", app_name, graph_key,
        num_nodes=1, scale_divisor=scale_divisor,
        record_per_vertex_ops=True,
    )
    n = outcome.result.graph.num_vertices
    static_total = 0.0
    stealing_total = 0.0
    for ids, ops in outcome.result.per_vertex_ops:
        per_vertex = np.zeros(n)
        per_vertex[ids] = ops
        report = worksteal.simulate(
            per_vertex, num_threads=num_threads,
            chunk_vertices=chunk_vertices, recorder=current().recorder,
        )
        static_total += report.static_makespan
        stealing_total += report.stealing_makespan
    if static_total <= 0:
        return 1.0
    return stealing_total / static_total


def run_intra(
    scale_divisor: int = workloads.DEFAULT_SCALE_DIVISOR,
    apps: Optional[List[str]] = None,
    graphs: Optional[List[str]] = None,
) -> Table:
    """Figure 10a: normalised runtime with stealing (baseline = w/o)."""
    apps = apps or workloads.APP_ORDER
    graphs = graphs or ["LJ", "FS"]
    table = Table(
        "Figure 10a: runtime with stealing, normalised to no stealing",
        ["app"] + list(graphs) + ["average"],
    )
    for app_name in apps:
        ratios = [
            stealing_ratio(app_name, key, scale_divisor=scale_divisor)
            for key in graphs
        ]
        table.add_row(app_name, *ratios, float(np.mean(ratios)))
    return table


def run_inter(
    scale_divisor: int = workloads.DEFAULT_SCALE_DIVISOR,
    num_nodes: int = 8,
    apps: Optional[List[str]] = None,
    graphs: Optional[List[str]] = None,
) -> Table:
    """Figure 10b: inter-node work gap (%) with and without RR."""
    apps = apps or workloads.APP_ORDER
    graphs = graphs or workloads.PAPER_GRAPHS
    table = Table(
        "Figure 10b: inter-node imbalance %% "
        "((max - min) / max of per-node work, averaged over graphs)",
        ["app", "without_rr", "with_rr"],
    )
    for app_name in apps:
        with_rr = []
        without_rr = []
        for key in graphs:
            rr = run_workload(
                "SLFE", app_name, key,
                num_nodes=num_nodes, scale_divisor=scale_divisor,
            )
            base = run_workload(
                "Gemini", app_name, key,
                num_nodes=num_nodes, scale_divisor=scale_divisor,
            )
            with_rr.append(100.0 * rr.result.metrics.node_imbalance())
            without_rr.append(100.0 * base.result.metrics.node_imbalance())
        table.add_row(
            app_name, float(np.mean(without_rr)), float(np.mean(with_rr))
        )
    return table
