"""One driver per evaluation artifact of the paper.

========================  ==============================================
Module                    Paper artifact
========================  ==============================================
table2_updates_per_vertex Table 2 (SSSP updates per vertex)
figure2_ec_vertices       Figure 2 (% early-converged vertices in PR)
figure4_pull_push_breakdown  Figure 4 (pull/push time split)
table5_overall_performance   Table 5 (8-node runtimes + speedups)
figure5_vs_gemini         Figure 5 (improvement over Gemini)
figure6_intra_node_scaling   Figure 6 (1-68 core scaling + GraphChi/Ligra)
figure7_inter_node_scaling   Figure 7 (1-8 node scaling + RMAT)
figure8_preprocessing_overhead  Figure 8 (RRG overhead on SSSP)
figure9_computations_per_iteration  Figure 9 (per-iteration computations)
figure10_balance          Figure 10 (work stealing / node imbalance)
recovery_overhead         Checkpoint/crash-recovery cost (companion to
                          Figure 8: prices fault tolerance instead of
                          preprocessing)
========================  ==============================================

``ARTIFACTS`` maps each ``repro bench`` artifact name, in the order the
CLI lists them, to a callable ``(scale_divisor) -> list`` of the
artifact's renderables (:class:`repro.bench.reporting.Table` or
:class:`~repro.bench.reporting.Series`); ``python -m repro bench
<artifact>`` prints them, and ``all`` prints every one.
"""

from typing import Callable, Dict, List

from repro.bench.experiments import (
    figure2_ec_vertices,
    figure4_pull_push_breakdown,
    figure5_vs_gemini,
    figure6_intra_node_scaling,
    figure7_inter_node_scaling,
    figure8_preprocessing_overhead,
    figure9_computations_per_iteration,
    figure10_balance,
    recovery_overhead,
    table2_updates_per_vertex,
    table5_overall_performance,
)

__all__ = ["ARTIFACTS"]


def _listed(run) -> Callable[[int], List]:
    """``run``'s output as a list, whether it returns one or several."""

    def artifacts(scale_divisor: int) -> List:
        output = run(scale_divisor=scale_divisor)
        return output if isinstance(output, list) else [output]

    return artifacts


def _figure10(scale_divisor: int) -> List:
    return [
        figure10_balance.run_intra(scale_divisor=scale_divisor),
        figure10_balance.run_inter(scale_divisor=scale_divisor),
    ]


ARTIFACTS: Dict[str, Callable[[int], List]] = {
    "table2": _listed(table2_updates_per_vertex.run),
    "figure2": _listed(figure2_ec_vertices.run),
    "figure4": _listed(figure4_pull_push_breakdown.run),
    "table5": _listed(table5_overall_performance.run),
    "figure5": _listed(figure5_vs_gemini.run),
    "figure6": _listed(figure6_intra_node_scaling.run),
    "figure7": _listed(figure7_inter_node_scaling.run),
    "figure8": _listed(figure8_preprocessing_overhead.run),
    "figure9": _listed(figure9_computations_per_iteration.run),
    "figure10": _figure10,
    "recovery": _listed(recovery_overhead.run),
}
