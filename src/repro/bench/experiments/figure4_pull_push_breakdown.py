"""Figure 4 — SSSP and CC execution-time split between pull and push.

The paper measures where time goes in the dual-mode runtime: on one
node >92% of SSSP/CC time is pull; on 8 nodes pull still dominates
(78% / 73%) because push mostly kicks off and finishes runs.  The
reproduction reports the same modeled-time split for PK, LJ and FS at
1 and 8 nodes.
"""

from __future__ import annotations

from repro.bench import workloads
from repro.bench.reporting import Table
from repro.bench.runner import run_workload

__all__ = ["run", "main"]

GRAPHS = ["PK", "LJ", "FS"]
APPS = ["SSSP", "CC"]
NODE_COUNTS = [1, 8]


def run(
    scale_divisor: int = workloads.DEFAULT_SCALE_DIVISOR,
    graphs=None,
) -> Table:
    """Regenerate Figure 4 (pull fraction per app/graph/cluster size)."""
    graphs = graphs or GRAPHS
    table = Table(
        "Figure 4: runtime fraction spent in pull mode (SLFE)",
        ["app", "nodes", "graph", "pull_fraction", "push_fraction"],
    )
    for app_name in APPS:
        for nodes in NODE_COUNTS:
            for key in graphs:
                outcome = run_workload(
                    "SLFE", app_name, key,
                    num_nodes=nodes, scale_divisor=scale_divisor,
                )
                pull = outcome.runtime.mode_fraction("pull")
                push = outcome.runtime.mode_fraction("push")
                table.add_row(app_name, nodes, key, pull, push)
    return table
