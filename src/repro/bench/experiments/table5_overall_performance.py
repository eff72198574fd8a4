"""Table 5 — 8-node runtime of PowerGraph, PowerLyra and SLFE.

The paper's headline table: five applications x seven graphs, runtime
in seconds (per-iteration for PR and TR), with SLFE's speedup over the
better of the two GAS systems per cell and a geometric-mean aggregate
(25.39x in the paper).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bench import workloads
from repro.bench.reporting import Table, geometric_mean, speedup
from repro.bench.runner import run_workload

__all__ = ["run", "main"]

ENGINES = ["PowerGraph", "PowerLyra", "SLFE"]


def run(
    scale_divisor: int = workloads.DEFAULT_SCALE_DIVISOR,
    num_nodes: int = 8,
    graphs: Optional[List[str]] = None,
    apps: Optional[List[str]] = None,
) -> Table:
    """Regenerate Table 5 (modeled seconds plus per-cell speedups)."""
    graphs = graphs or workloads.PAPER_GRAPHS
    apps = apps or workloads.APP_ORDER
    table = Table(
        "Table 5: %d-node modeled runtime (s; per-iteration for PR/TR) "
        "and SLFE speedup" % num_nodes,
        ["app", "engine"] + list(graphs),
    )
    speedups: List[float] = []
    for app_name in apps:
        seconds: Dict[str, List[float]] = {}
        for engine_name in ENGINES:
            row: List[float] = []
            for key in graphs:
                outcome = run_workload(
                    engine_name, app_name, key,
                    num_nodes=num_nodes, scale_divisor=scale_divisor,
                )
                row.append(outcome.reported_seconds())
            seconds[engine_name] = row
            table.add_row(app_name, engine_name, *row)
        cell_speedups = [
            speedup(
                min(seconds["PowerGraph"][i], seconds["PowerLyra"][i]),
                seconds["SLFE"][i],
            )
            for i in range(len(graphs))
        ]
        speedups.extend(cell_speedups)
        table.add_row(app_name, "Speedup(x)", *cell_speedups)
    table.add_row("GEOMEAN", "Speedup(x)", geometric_mean(speedups),
                  *([None] * (len(graphs) - 1)))
    return table
