"""Figure 9 — per-iteration computation counts with and without RR.

The paper plots edge computations per iteration for SSSP, CC (ramping
curves that converge to the same total-order fixpoint) and PR (where
"finish early" makes the w/RR curve fall away as EC vertices drop out).
Both engines run to the same answers; only the computation schedules
differ.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.bench import workloads
from repro.bench.reporting import Series
from repro.bench.runner import run_workload

__all__ = ["run_one", "run", "main"]

PANELS = [("SSSP", "FS"), ("SSSP", "LJ"), ("CC", "FS"), ("CC", "LJ"),
          ("PR", "FS"), ("PR", "LJ")]


def run_one(
    app_name: str,
    graph_key: str,
    scale_divisor: int = workloads.DEFAULT_SCALE_DIVISOR,
    num_nodes: int = 8,
) -> Series:
    """One panel: computations per iteration, w/ and w/o RR."""
    curves = {}
    for label, engine in (("w/ RR", "SLFE"), ("w/o RR", "Gemini")):
        outcome = run_workload(
            engine, app_name, graph_key,
            num_nodes=num_nodes, scale_divisor=scale_divisor,
        )
        curves[label] = outcome.result.metrics.edge_ops_by_iteration()
    length = max(c.size for c in curves.values())
    series = Series(
        "Figure 9 (%s-%s): computations per iteration" % (app_name, graph_key),
        "iteration",
        x=[float(i + 1) for i in range(length)],
    )
    for label, curve in curves.items():
        padded = np.zeros(length)
        padded[: curve.size] = curve
        series.add_line(label, padded.tolist())
    return series


def run(scale_divisor: int = workloads.DEFAULT_SCALE_DIVISOR) -> List[Series]:
    return [
        run_one(app, graph, scale_divisor=scale_divisor)
        for app, graph in PANELS
    ]
