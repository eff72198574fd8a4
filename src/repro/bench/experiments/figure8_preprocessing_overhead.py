"""Figure 8 — preprocessing (RRG generation) overhead on SSSP.

SSSP is SLFE's weakest win, so the paper charges the full RRG cost
against it: even end-to-end (execution + preprocessing), SLFE averaged
25.1% faster than Gemini, and the guidance is reusable across the ~8.7
jobs Facebook reports running per graph.  The reproduction reports, per
graph, the Gemini runtime, the SLFE runtime, and the RRG overhead, all
normalised to Gemini.
"""

from __future__ import annotations

from typing import List, Optional

from repro.bench import workloads
from repro.bench.reporting import Table
from repro.bench.runner import run_workload

__all__ = ["run", "main"]


def run(
    scale_divisor: int = workloads.DEFAULT_SCALE_DIVISOR,
    num_nodes: int = 8,
    graphs: Optional[List[str]] = None,
) -> Table:
    """Regenerate Figure 8 (normalised stacked bars as table rows)."""
    graphs = graphs or workloads.PAPER_GRAPHS
    table = Table(
        "Figure 8: SSSP — SLFE runtime + RRG overhead vs Gemini "
        "(normalised to Gemini = 1)",
        ["graph", "gemini", "slfe_runtime", "slfe_overhead", "end_to_end"],
    )
    for key in graphs:
        gemini = run_workload(
            "Gemini", "SSSP", key,
            num_nodes=num_nodes, scale_divisor=scale_divisor,
        ).seconds
        slfe = run_workload(
            "SLFE", "SSSP", key,
            num_nodes=num_nodes, scale_divisor=scale_divisor,
        )
        runtime = slfe.seconds / gemini
        overhead = slfe.runtime.preprocessing_seconds / gemini
        table.add_row(key, 1.0, runtime, overhead, runtime + overhead)
    return table
