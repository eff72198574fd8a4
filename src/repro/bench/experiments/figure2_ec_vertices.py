"""Figure 2 — percentage of early-converged (EC) vertices in PageRank.

The paper instruments a plain PR run and finds that when execution
reaches 90% of its time, on average 83% of vertices (99% on OK and DI)
already hold their final value — the redundancy "finish early" removes.

The reproduction measures the same quantity through SLFE's stability
tracker: run PR with finish-early enabled and report the fraction of
vertices the tracker has declared early-converged by the time the
iteration counter reaches 90% of the *baseline* (Gemini) iteration
count — i.e. how much of the graph is provably stable while a plain
engine would still be recomputing it.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.bench import workloads
from repro.bench.reporting import Table
from repro.bench.runner import run_workload

__all__ = ["ec_fraction", "run", "main"]


def ec_fraction(
    graph_key: str,
    scale_divisor: int = workloads.DEFAULT_SCALE_DIVISOR,
    time_fraction: float = 0.9,
) -> float:
    """Fraction of vertices EC by ``time_fraction`` of the baseline run."""
    baseline = run_workload(
        "Gemini", "PR", graph_key, num_nodes=1, scale_divisor=scale_divisor
    )
    slfe = run_workload(
        "SLFE", "PR", graph_key, num_nodes=1, scale_divisor=scale_divisor
    )
    horizon = max(1, int(time_fraction * baseline.result.iterations))
    records = slfe.result.metrics.records
    n = slfe.result.graph.num_vertices
    if not records or n == 0:
        return 0.0
    # skipped_vertices counts EC vertices each superstep.  If SLFE
    # finished before the horizon, report its final EC share (the rest
    # of the graph converged globally rather than early).
    index = min(horizon, len(records) - 1)
    return records[index].skipped_vertices / n


def run(
    scale_divisor: int = workloads.DEFAULT_SCALE_DIVISOR,
    graphs: Optional[List[str]] = None,
    time_fraction: float = 0.9,
) -> Table:
    """Regenerate Figure 2 (percentage of EC vertices per graph)."""
    graphs = graphs or workloads.PAPER_GRAPHS
    table = Table(
        "Figure 2: %% of early-converged vertices in PR (at %.0f%% of "
        "baseline run)" % (100 * time_fraction),
        ["graph", "ec_percent"],
    )
    fractions = []
    for key in graphs:
        frac = ec_fraction(
            key, scale_divisor=scale_divisor, time_fraction=time_fraction
        )
        fractions.append(frac)
        table.add_row(key, 100.0 * frac)
    table.add_row("Avg", 100.0 * float(np.mean(fractions)))
    return table
