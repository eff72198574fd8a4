"""Figure 6 — intra-node scalability, 1 to 68 cores.

CC and PageRank on the FS and LJ stand-ins, single node, with core
counts {1, 2, 4, 8, 16, 32, 68}: SLFE scales near-linearly (~45x at 68
cores in the paper), Ligra scales similarly but does more work (no RR),
and GraphChi is disk-bound so extra cores barely help.  Runtimes are
normalised to SLFE at 68 cores, as in the paper's plots.
"""

from __future__ import annotations

from typing import List, Optional

from repro.bench import workloads
from repro.bench.reporting import Series
from repro.bench.runner import run_workload
from repro.cluster.costmodel import CostModel

__all__ = ["CORE_COUNTS", "run_one", "run", "main"]

CORE_COUNTS = [1, 2, 4, 8, 16, 32, 68]
PANELS = [("CC", "FS"), ("CC", "LJ"), ("PR", "FS"), ("PR", "LJ")]


def _scaled_seconds(engine_name, app_name, graph_key, scale_divisor, cores_list):
    """Run once, then re-cost at each core count (same op counts)."""
    outcome = run_workload(
        engine_name, app_name, graph_key,
        num_nodes=1, scale_divisor=scale_divisor,
        config=workloads.experiment_cluster(
            num_nodes=1, scale_divisor=scale_divisor
        ),
    )
    # GraphChi / Ligra force their own configs; reuse whatever the run had.
    base_config = workloads.experiment_cluster(
        num_nodes=1, scale_divisor=scale_divisor
    )
    model = CostModel(base_config)
    curve = model.scaling_curve(outcome.result.metrics, cores_list)
    # Disk time is core-independent: scaling_curve already keeps io flat.
    return curve


def run_one(
    app_name: str,
    graph_key: str,
    scale_divisor: int = workloads.DEFAULT_SCALE_DIVISOR,
    core_counts: Optional[List[int]] = None,
) -> Series:
    """One panel of Figure 6 (runtime vs cores, normalised)."""
    core_counts = core_counts or CORE_COUNTS
    series = Series(
        "Figure 6 (%s-%s): normalised runtime vs cores" % (app_name, graph_key),
        "cores",
        x=[float(c) for c in core_counts],
    )
    curves = {}
    for engine_name in ("SLFE", "Ligra", "GraphChi"):
        curves[engine_name] = _scaled_seconds(
            engine_name, app_name, graph_key, scale_divisor, core_counts
        )
    norm = curves["SLFE"][-1]
    for engine_name, curve in curves.items():
        series.add_line(engine_name, [float(v) / norm for v in curve])
    return series


def run(scale_divisor: int = workloads.DEFAULT_SCALE_DIVISOR) -> List[Series]:
    """All four panels of Figure 6."""
    return [
        run_one(app, graph, scale_divisor=scale_divisor)
        for app, graph in PANELS
    ]
