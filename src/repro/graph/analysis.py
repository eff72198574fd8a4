"""Topology analysis helpers.

Sequential, obviously-correct utilities used for dataset characterisation
and as oracles in tests: BFS levels, reachability, weakly connected
components, and degree statistics.  Engines never call these on the hot
path; guidance generation shares the BFS sweep and root validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real
from typing import Iterable, Optional

import numpy as np

from repro.graph.csr import expand_row_dsts
from repro.graph.graph import Graph

__all__ = [
    "resolve_ids",
    "distinct_ids",
    "bfs_sweep",
    "bfs_levels",
    "reachable_from",
    "weakly_connected_components",
    "strongly_connected_components",
    "induced_subgraph",
    "largest_component",
    "DegreeStats",
    "degree_stats",
    "estimate_diameter",
]

#: Sentinel for "unreached" in level arrays.
UNREACHED = -1


def resolve_ids(ids: Iterable[int], num_vertices: int, what: str) -> np.ndarray:
    """The sorted distinct ``int64`` ids of a vertex set.  ``TypeError``
    for anything but integers — bools, fractional floats and strings are
    never truncated or parsed; ``IndexError`` for ids outside the graph."""
    if not (isinstance(ids, np.ndarray) and ids.dtype.kind in "iu"):
        ids = [ids] if isinstance(ids, (str, bytes)) else list(ids)
        for item in ids:
            # bool is Integral; np.bool_ and str are not Real; nan/inf fail
            # the floor test like any fractional float.
            integral = isinstance(item, Real) and item // 1 == item
            if isinstance(item, bool) or not integral:
                raise TypeError("%s must be an integer, got %r" % (what, item))
    ids = np.unique(np.asarray(ids, dtype=np.int64))
    if ids.size and (ids[0] < 0 or ids[-1] >= num_vertices):
        raise IndexError("%s out of range" % what)
    return ids


def distinct_ids(ids: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Each id of ``ids`` exactly once, unsorted, without a sort.

    Every position writes itself to ``scratch[id]`` and survives iff it
    reads itself back (numpy keeps the last value of a repeated index).
    ``scratch`` is ``int64`` over the id range; only ``scratch[ids]`` is
    read, after being overwritten, so its old contents cannot leak.
    """
    positions = np.arange(ids.size, dtype=np.int64)
    scratch[ids] = positions
    return ids[scratch[ids] == positions]


def bfs_sweep(csr, frontier: np.ndarray, visited: np.ndarray):
    """Level-synchronous BFS: yields ``(dsts, fresh)`` per level.

    ``frontier`` holds distinct ids already marked in ``visited``
    (updated in place).  A level that scans an edge yields all scanned
    destinations, duplicates included, and the distinct ones reached
    first — the next frontier.  It costs its edges only: no ``srcs``,
    no weights, no sort, nothing |V|-sized.
    """
    scratch = np.empty(visited.size, dtype=np.int64)
    while frontier.size:
        dsts = expand_row_dsts(csr.indptr, csr.indices, frontier, csr.base)
        if dsts.size == 0:
            return
        frontier = distinct_ids(dsts[~visited[dsts]], scratch)
        visited[frontier] = True
        yield dsts, frontier


def bfs_levels(graph: Graph, roots: Iterable[int]) -> np.ndarray:
    """Unit-weight BFS levels from a set of roots.

    Returns an ``int64`` array where roots have level 0 and unreachable
    vertices have :data:`UNREACHED` — every vertex's first-visit
    iteration in the RRG preprocessing pass, off the same sweep.
    """
    levels = np.full(graph.num_vertices, UNREACHED, dtype=np.int64)
    frontier = resolve_ids(roots, graph.num_vertices, "root")
    levels[frontier] = 0
    sweep = bfs_sweep(graph.out_csr, frontier, levels != UNREACHED)
    for depth, (_, fresh) in enumerate(sweep, start=1):
        levels[fresh] = depth
    return levels


def reachable_from(graph: Graph, roots: Iterable[int]) -> np.ndarray:
    """Boolean mask of vertices reachable from ``roots`` (roots included)."""
    return bfs_levels(graph, roots) != UNREACHED


def weakly_connected_components(graph: Graph) -> np.ndarray:
    """Component label per vertex, ignoring edge direction.

    Labels are the minimum vertex id in each component, matching the
    fixpoint computed by the label-propagation CC application, so test
    assertions can compare arrays directly.
    """
    n = graph.num_vertices
    parent = np.arange(n, dtype=np.int64)

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, int(parent[x])
        return root

    srcs, dsts, _ = graph.edge_arrays()
    for u, v in zip(srcs, dsts):
        ru, rv = find(int(u)), find(int(v))
        if ru != rv:
            # Union by smaller label so roots stay minimal ids.
            if ru < rv:
                parent[rv] = ru
            else:
                parent[ru] = rv
    return np.array([find(v) for v in range(n)], dtype=np.int64)


def strongly_connected_components(graph: Graph) -> np.ndarray:
    """SCC label per vertex (labels are the minimum member id).

    Iterative Tarjan — explicit stack, no recursion, so million-vertex
    graphs are fine.  Used to characterise directed stand-ins (e.g. how
    much of a hyperlink graph is one giant SCC).
    """
    n = graph.num_vertices
    UNVISITED = -1
    index = np.full(n, UNVISITED, dtype=np.int64)
    lowlink = np.zeros(n, dtype=np.int64)
    on_stack = np.zeros(n, dtype=bool)
    labels = np.full(n, UNVISITED, dtype=np.int64)
    out = graph.out_csr
    counter = 0
    stack: list = []

    for start in range(n):
        if index[start] != UNVISITED:
            continue
        # Each work item: (vertex, next-neighbour offset).
        work = [(start, 0)]
        while work:
            v, edge_offset = work.pop()
            if edge_offset == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            neighbors = out.neighbors(v)
            for i in range(edge_offset, neighbors.size):
                w = int(neighbors[i])
                if index[w] == UNVISITED:
                    work.append((v, i + 1))
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            if lowlink[v] == index[v]:
                members = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    members.append(w)
                    if w == v:
                        break
                label = min(members)
                labels[np.asarray(members, dtype=np.int64)] = label
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    return labels


def induced_subgraph(graph: Graph, vertices) -> Graph:
    """Subgraph on ``vertices`` with ids relabelled to 0..k-1.

    Vertex ``vertices[i]`` becomes id ``i``; only edges with both
    endpoints selected survive, weights carried along.
    """
    vertices = resolve_ids(vertices, graph.num_vertices, "subgraph vertex")
    remap = np.full(graph.num_vertices, -1, dtype=np.int64)
    remap[vertices] = np.arange(vertices.size, dtype=np.int64)
    srcs, dsts, weights = graph.edge_arrays()
    keep = (remap[srcs] >= 0) & (remap[dsts] >= 0) if srcs.size else np.zeros(0, bool)
    return Graph.from_edges(
        vertices.size,
        (remap[srcs[keep]], remap[dsts[keep]]),
        weights[keep],
        name=graph.name + "-sub" if graph.name else "",
    )


def largest_component(graph: Graph) -> Graph:
    """The induced subgraph of the largest weakly connected component."""
    if graph.num_vertices == 0:
        return graph
    labels = weakly_connected_components(graph)
    counts = np.bincount(labels, minlength=graph.num_vertices)
    biggest = int(np.argmax(counts))
    return induced_subgraph(graph, np.nonzero(labels == biggest)[0])


@dataclass(frozen=True)
class DegreeStats:
    """Summary of a degree distribution."""

    minimum: int
    maximum: int
    mean: float
    median: float
    skew_ratio: float  # max / mean; >> 1 indicates power-law-like skew

    @classmethod
    def from_degrees(cls, degrees: np.ndarray) -> "DegreeStats":
        if degrees.size == 0:
            return cls(0, 0, 0.0, 0.0, 0.0)
        mean = float(degrees.mean())
        return cls(
            minimum=int(degrees.min()),
            maximum=int(degrees.max()),
            mean=mean,
            median=float(np.median(degrees)),
            skew_ratio=float(degrees.max()) / mean if mean else 0.0,
        )


def degree_stats(graph: Graph, direction: str = "out") -> DegreeStats:
    """Degree statistics of the graph in the given direction."""
    if direction == "out":
        degrees = graph.out_degrees()
    elif direction == "in":
        degrees = graph.in_degrees()
    else:
        raise ValueError("direction must be 'out' or 'in'")
    return DegreeStats.from_degrees(degrees)


def estimate_diameter(
    graph: Graph,
    num_samples: int = 8,
    seed: Optional[int] = 0,
) -> int:
    """Lower bound on the directed diameter via sampled BFS sweeps.

    Matches the ApproximateDiameter application's notion of eccentricity:
    the deepest BFS level over a handful of random roots.
    """
    n = graph.num_vertices
    if n == 0:
        return 0
    rng = np.random.default_rng(seed)
    roots = rng.integers(0, n, size=min(num_samples, n))
    # Every root is at level 0 of its own sweep and UNREACHED is negative.
    return max(int(bfs_levels(graph, [root]).max()) for root in np.unique(roots))
