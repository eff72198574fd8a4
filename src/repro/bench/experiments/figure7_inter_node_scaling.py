"""Figure 7 — inter-node scalability, 1 to 8 nodes.

Three panels from the paper:

* PageRank on FS and WK: SLFE vs Gemini, normalised runtime per node
  count (Gemini's WK curve shows the inflection the paper discusses);
* CC on FS and WK: SLFE vs PowerLyra;
* the five applications on the synthetic RMAT graph, SLFE only,
  starting at 2 nodes (the paper's graph exceeds one node's memory).
"""

from __future__ import annotations

from typing import List, Optional

from repro.bench import workloads
from repro.bench.reporting import Series
from repro.bench.runner import run_workload

__all__ = ["run_pair", "run_rmat", "run", "main"]

NODE_COUNTS = [1, 2, 4, 8]
RMAT_NODE_COUNTS = [2, 4, 8]


def _seconds(engine, app, graph, nodes, scale_divisor):
    return run_workload(
        engine, app, graph, num_nodes=nodes, scale_divisor=scale_divisor
    ).seconds


def run_pair(
    app_name: str,
    graph_key: str,
    baseline: str,
    scale_divisor: int = workloads.DEFAULT_SCALE_DIVISOR,
    node_counts: Optional[List[int]] = None,
) -> Series:
    """One comparison panel (normalised to the system's 1-node time)."""
    node_counts = node_counts or NODE_COUNTS
    series = Series(
        "Figure 7 (%s-%s): normalised runtime vs nodes" % (app_name, graph_key),
        "nodes",
        x=[float(n) for n in node_counts],
    )
    for engine_name in (baseline, "SLFE"):
        curve = [
            _seconds(engine_name, app_name, graph_key, n, scale_divisor)
            for n in node_counts
        ]
        norm = curve[0]
        series.add_line(engine_name, [v / norm for v in curve])
    return series


def run_rmat(
    scale_divisor: int = workloads.DEFAULT_SCALE_DIVISOR,
    node_counts: Optional[List[int]] = None,
) -> Series:
    """Figure 7e: SLFE on the synthetic RMAT graph, 2-8 nodes."""
    node_counts = node_counts or RMAT_NODE_COUNTS
    series = Series(
        "Figure 7e (RMAT): SLFE normalised runtime vs nodes",
        "nodes",
        x=[float(n) for n in node_counts],
    )
    for app_name in workloads.APP_ORDER:
        curve = [
            run_workload(
                "SLFE", app_name, "RMAT",
                num_nodes=n, scale_divisor=scale_divisor,
            ).seconds
            for n in node_counts
        ]
        norm = curve[0]
        series.add_line(app_name, [v / norm for v in curve])
    return series


def run(scale_divisor: int = workloads.DEFAULT_SCALE_DIVISOR) -> List[Series]:
    """All Figure 7 panels."""
    panels = [
        run_pair("PR", "FS", "Gemini", scale_divisor),
        run_pair("PR", "WK", "Gemini", scale_divisor),
        run_pair("CC", "FS", "PowerLyra", scale_divisor),
        run_pair("CC", "WK", "PowerLyra", scale_divisor),
        run_rmat(scale_divisor),
    ]
    return panels
