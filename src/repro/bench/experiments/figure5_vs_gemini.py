"""Figure 5 — SLFE's runtime improvement over Gemini on 8 nodes.

Gemini is the strongest baseline (SLFE minus redundancy reduction), so
this figure isolates the value of RR itself: the paper reports average
improvements of 34.2% (SSSP), 43.1% (CC), 42.7% (WP), 47.5% (PR) and
41.6% (TR).  Improvement here is ``1 - t_slfe / t_gemini``.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.bench import workloads
from repro.bench.reporting import Table
from repro.bench.runner import run_workload

__all__ = ["run", "main"]


def run(
    scale_divisor: int = workloads.DEFAULT_SCALE_DIVISOR,
    num_nodes: int = 8,
    graphs: Optional[List[str]] = None,
    apps: Optional[List[str]] = None,
) -> Table:
    """Regenerate Figure 5 (improvement %, one row per app)."""
    graphs = graphs or workloads.PAPER_GRAPHS
    apps = apps or workloads.APP_ORDER
    table = Table(
        "Figure 5: SLFE runtime improvement over Gemini (%%, %d nodes)"
        % num_nodes,
        ["app"] + list(graphs) + ["average"],
    )
    for app_name in apps:
        improvements = []
        for key in graphs:
            slfe = run_workload(
                "SLFE", app_name, key,
                num_nodes=num_nodes, scale_divisor=scale_divisor,
            ).seconds
            gemini = run_workload(
                "Gemini", app_name, key,
                num_nodes=num_nodes, scale_divisor=scale_divisor,
            ).seconds
            improvements.append(100.0 * (1.0 - slfe / gemini))
        table.add_row(app_name, *improvements, float(np.mean(improvements)))
    return table
