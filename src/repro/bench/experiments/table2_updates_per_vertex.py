"""Table 2 — updates per vertex of SSSP in PowerLyra and Gemini.

The paper's motivation table: both systems write each vertex's property
many times (9.1 and 7.5 on average at full scale; ideal is 1).  The
reproduction reports the same metric on the stand-ins, plus the SLFE
row showing redundancy reduction pushing it toward 1.
"""

from __future__ import annotations

from repro.bench import workloads
from repro.bench.reporting import Table
from repro.bench.runner import run_workload

__all__ = ["run", "main"]

ENGINES = ["PowerLyra", "Gemini", "SLFE"]


def run(
    scale_divisor: int = workloads.DEFAULT_SCALE_DIVISOR,
    num_nodes: int = 8,
    graphs=None,
) -> Table:
    """Regenerate Table 2 (one row per engine, one column per graph)."""
    graphs = graphs or workloads.PAPER_GRAPHS
    table = Table(
        "Table 2: SSSP updates per vertex (ideal = 1)",
        ["engine"] + list(graphs),
    )
    for engine_name in ENGINES:
        cells = []
        for key in graphs:
            outcome = run_workload(
                engine_name, "SSSP", key,
                num_nodes=num_nodes, scale_divisor=scale_divisor,
            )
            cells.append(
                outcome.result.metrics.updates_per_vertex(
                    outcome.result.graph.num_vertices
                )
            )
        table.add_row(engine_name, *cells)
    return table
