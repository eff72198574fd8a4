"""Result certificates, independent of the measured path.

Each check reads the graph's edge arrays directly and uses none of the
kernels a job runs (no ``expand_sources``, no ``reduceat``, no dispatch),
so a kernel bug cannot certify itself.  All are O(|E|) numpy passes —
a few percent of the workload they certify.

Every function returns a list of human-readable failures; empty means
the result is certified.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional

import numpy as np

from repro.graph.graph import Graph

__all__ = [
    "PAGERANK_RESIDUAL_BOUND",
    "values_digest",
    "sssp_failures",
    "component_labels",
    "cc_failures",
    "pagerank_residual",
    "pagerank_failures",
    "certificate_failures",
]

#: L-inf bound on ``|x - ((1-d) + d·Aᵀ(x/outdeg))|`` for an accepted
#: PageRank vector.  The job iterates to a 1e-10 step; finish-early
#: freezes vertices at a 1e-7 stability epsilon, and the damped
#: operator amplifies a frozen input's error by at most d/(1-d) < 6.
PAGERANK_RESIDUAL_BOUND = 1e-6


def values_digest(values: np.ndarray) -> str:
    """SHA-256 of the result's bytes: repeats must agree bit for bit."""
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def sssp_failures(graph: Graph, root: int, dist: np.ndarray) -> List[str]:
    """``dist`` is the shortest-path vector from ``root`` iff: the root
    is at 0, no edge can relax it further, and every other reached
    vertex has an in-edge that is tight."""
    failures = []
    if dist[root] != 0.0:
        failures.append("dist[root] = %r, expected 0" % float(dist[root]))
    srcs, dsts, weights = graph.edge_arrays()
    through = dist[srcs] + weights
    relaxable = int(np.count_nonzero(through < dist[dsts]))
    if relaxable:
        failures.append("%d edges violate dist[v] <= dist[u] + w" % relaxable)
    best_in = np.full(dist.size, np.inf)
    np.minimum.at(best_in, dsts, through)
    reached = np.isfinite(dist)
    reached[root] = False
    loose = int(np.count_nonzero(best_in[reached] != dist[reached]))
    if loose:
        failures.append("%d reached vertices have no tight in-edge" % loose)
    return failures


def component_labels(graph: Graph) -> np.ndarray:
    """Minimum member id per weakly connected component.

    Vectorised hook-and-shortcut (Shiloach-Vishkin style): every round
    each vertex takes the smallest label among its neighbours, then
    labels are pointer-jumped to their own labels.  A label is always
    the id of a vertex in the same component, so at the fixpoint it is
    constant per component and equal to the component's minimum id.
    """
    srcs, dsts, _ = graph.edge_arrays()
    label = np.arange(graph.num_vertices, dtype=np.int64)
    while True:
        hooked = label.copy()
        np.minimum.at(hooked, srcs, label[dsts])
        np.minimum.at(hooked, dsts, label[srcs])
        while True:
            jumped = hooked[hooked]
            if np.array_equal(jumped, hooked):
                break
            hooked = jumped
        if np.array_equal(hooked, label):
            return label
        label = hooked


def cc_failures(graph: Graph, labels: np.ndarray) -> List[str]:
    expected = component_labels(graph)
    wrong = int(np.count_nonzero(labels != expected))
    if wrong:
        return ["%d vertices carry the wrong component label" % wrong]
    return []


def pagerank_residual(
    graph: Graph, ranks: np.ndarray, damping: float = 0.85
) -> float:
    """L-inf one-step residual of ``ranks`` against a bincount SpMV."""
    srcs, dsts, _ = graph.edge_arrays()
    out_deg = graph.out_degrees().astype(np.float64)
    share = ranks / np.where(out_deg > 0, out_deg, 1.0)
    gathered = np.bincount(
        dsts, weights=share[srcs], minlength=graph.num_vertices
    )
    stepped = (1.0 - damping) + damping * gathered
    return float(np.max(np.abs(ranks - stepped))) if ranks.size else 0.0


def pagerank_failures(graph: Graph, ranks: np.ndarray) -> List[str]:
    residual = pagerank_residual(graph, ranks)
    # NaN must fail too, hence the negated comparison.
    if not residual <= PAGERANK_RESIDUAL_BOUND:
        return [
            "PageRank one-step residual %.3g exceeds %.3g"
            % (residual, PAGERANK_RESIDUAL_BOUND)
        ]
    return []


def certificate_failures(
    app: str, graph: Graph, root: Optional[int], values: np.ndarray
) -> List[str]:
    """The certificate for one workload's application (``pr``/``cc``/``sssp``)."""
    if values.shape != (graph.num_vertices,):
        return ["result has shape %r, expected (%d,)"
                % (values.shape, graph.num_vertices)]
    if app == "sssp":
        return sssp_failures(graph, root, values)
    if app == "cc":
        return cc_failures(graph, values)
    return pagerank_failures(graph, values)
