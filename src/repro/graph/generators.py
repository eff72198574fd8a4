"""Deterministic synthetic graph generators.

All generators accept a ``seed`` and are fully deterministic given their
arguments, which keeps every experiment in the benchmark harness
reproducible.  The RMAT generator follows the recursive-matrix model used
by the paper for its synthetic scale-out graph; ``preferential_attachment``
produces the power-law degree skew of the paper's social-network datasets.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.graph import Graph

__all__ = [
    "rmat",
    "erdos_renyi",
    "preferential_attachment",
    "social_network",
    "grid_2d",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "random_dag",
    "random_weights",
]


def _rng(seed: Optional[int]) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_weights(
    graph: Graph,
    low: float = 1.0,
    high: float = 10.0,
    seed: Optional[int] = 0,
) -> Graph:
    """Return ``graph`` with uniform-random edge weights in ``[low, high)``.

    Weighted variants of the stand-in datasets use this for SSSP and
    WidestPath so that shortest paths are non-trivial.
    """
    if high < low:
        raise GraphFormatError("high must be >= low")
    rng = _rng(seed)
    return graph.with_weights(
        rng.uniform(low, high, size=graph.num_edges)
    )


def rmat(
    scale: int,
    edge_factor: float = 16.0,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: Optional[int] = 0,
    name: str = "",
) -> Graph:
    """Recursive-matrix (R-MAT) graph: ``2**scale`` vertices.

    Parameters mirror the Graph500 convention: each edge picks its
    endpoint bits independently with quadrant probabilities ``(a, b, c, d)``
    where ``d = 1 - a - b - c``.  Self-loops are dropped; duplicates are
    kept (real RMAT streams contain them, and the engines tolerate them).
    """
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0:
        raise GraphFormatError("RMAT quadrant probabilities must sum to <= 1")
    if scale < 0:
        raise GraphFormatError("scale must be non-negative")
    n = 1 << scale
    m = int(round(edge_factor * n))
    rng = _rng(seed)
    srcs = np.zeros(m, dtype=np.int64)
    dsts = np.zeros(m, dtype=np.int64)
    for bit in range(scale):
        r = rng.random(m)
        # Quadrant choice per edge per bit.
        src_bit = (r >= a + b).astype(np.int64)
        # Given the src bit, the dst bit distribution differs per quadrant:
        # quadrants (a | b) are src_bit 0 with dst_bit 0 / 1, (c | d) are
        # src_bit 1 with dst_bit 0 / 1.
        dst_bit = np.where(
            src_bit == 0,
            (r >= a).astype(np.int64),
            (r >= a + b + c).astype(np.int64),
        )
        srcs = (srcs << 1) | src_bit
        dsts = (dsts << 1) | dst_bit
    keep = srcs != dsts
    srcs, dsts = srcs[keep], dsts[keep]
    # Permute ids so the skew is not aligned with vertex order (matches
    # standard Graph500 post-processing and avoids chunking artefacts).
    perm = rng.permutation(n)
    return Graph.from_edges(n, (perm[srcs], perm[dsts]), name=name)


def erdos_renyi(
    num_vertices: int,
    num_edges: int,
    seed: Optional[int] = 0,
    name: str = "",
) -> Graph:
    """G(n, m) digraph: ``num_edges`` endpoints drawn uniformly at random."""
    if num_vertices <= 0 and num_edges > 0:
        raise GraphFormatError("cannot place edges in an empty vertex set")
    rng = _rng(seed)
    if num_vertices == 0:
        return Graph.from_edges(0, np.empty((0, 2), dtype=np.int64), name=name)
    srcs = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    dsts = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    keep = srcs != dsts
    return Graph.from_edges(num_vertices, (srcs[keep], dsts[keep]), name=name)


def preferential_attachment(
    num_vertices: int,
    out_degree: int = 8,
    seed: Optional[int] = 0,
    name: str = "",
) -> Graph:
    """Power-law digraph via preferential attachment.

    Each new vertex creates ``out_degree`` edges whose other endpoints are
    sampled from the running endpoint pool (rich-get-richer), yielding the
    heavy degree skew characteristic of social graphs like the paper's OK
    and FS datasets.  Each edge's direction is chosen uniformly at random,
    so hubs accumulate both in- and out-edges (as real follower graphs
    do) and rooted traversals from a hub reach most of the graph.
    """
    if out_degree < 1:
        raise GraphFormatError("out_degree must be >= 1")
    if num_vertices < 2:
        return Graph.from_edges(
            max(num_vertices, 0), np.empty((0, 2), dtype=np.int64), name=name
        )
    rng = _rng(seed)
    srcs = []
    dsts = []
    # Endpoint pool: vertex ids weighted by how often they appear as targets.
    pool = np.zeros(2 * out_degree * num_vertices, dtype=np.int64)
    pool_size = 1  # vertex 0 starts in the pool once
    for v in range(1, num_vertices):
        k = min(out_degree, v)
        picks = pool[rng.integers(0, pool_size, size=k)]
        # Fall back to uniform for duplicates-with-self; self-loops dropped.
        picks = picks[picks != v]
        mine = np.full(picks.size, v, dtype=np.int64)
        flip = rng.random(picks.size) < 0.5
        srcs.append(np.where(flip, picks, mine))
        dsts.append(np.where(flip, mine, picks))
        # New vertex and its targets join the pool.
        end = pool_size + picks.size + 1
        pool[pool_size:pool_size + picks.size] = picks
        pool[pool_size + picks.size] = v
        pool_size = end
    return Graph.from_edges(
        num_vertices,
        (np.concatenate(srcs), np.concatenate(dsts)),
        name=name,
    )


def social_network(
    num_vertices: int,
    avg_degree: int = 14,
    shortcut_density: float = 0.05,
    hub_bias: float = 1.5,
    seed: Optional[int] = 0,
    name: str = "",
) -> Graph:
    """Locality-preserving social-network stand-in.

    A ring lattice (each vertex linked to its ``avg_degree`` clockwise
    neighbours) supplies *locality*; a sparse set of rewired shortcuts
    whose targets are Zipf-distributed over a hidden hub ranking supplies
    *hubs* and small-world mixing.  Compared to pure preferential
    attachment, this keeps the graph's diameter in the 5-25 range at
    thousands of vertices — the regime in which iterative graph
    processing performs many supersteps, which is what scaled-down
    stand-ins for the paper's multi-million-vertex graphs must preserve
    (a 2000x-smaller pure power-law graph collapses to diameter 2 and
    has no redundant computation left to eliminate).

    Parameters
    ----------
    avg_degree:
        Directed edges created per vertex (|E| is about ``n * avg_degree``).
    shortcut_density:
        Expected rewired (long-range) edges per vertex; lower keeps the
        diameter larger.
    hub_bias:
        Zipf exponent (> 1) of shortcut targets; higher concentrates
        more edges on the top-ranked hubs (heavier degree skew), lower
        spreads them across many medium vertices.
    """
    if avg_degree < 1:
        raise GraphFormatError("avg_degree must be >= 1")
    if shortcut_density < 0:
        raise GraphFormatError("shortcut_density must be non-negative")
    if hub_bias <= 1.0:
        raise GraphFormatError("hub_bias must be > 1")
    n = num_vertices
    if n < 3:
        return Graph.from_edges(
            max(n, 0), np.empty((0, 2), dtype=np.int64), name=name
        )
    rng = _rng(seed)
    width = min(avg_degree, n - 1)
    rewire_p = min(1.0, shortcut_density / width)
    # Edge e of the ring joins e // width to the vertex (e % width) + 1
    # steps on, so only a rewired edge can be a self-loop (1..width < n).
    rewired = np.nonzero(rng.random(n * width) < rewire_p)[0]
    dsts = np.arange(n, dtype=np.int64)[:, None] + np.arange(1, width + 1)
    tail = dsts[n - width :]
    tail[tail >= n] -= n
    dsts = dsts.ravel()
    out_degrees = np.full(n, width, dtype=np.int64)
    if rewired.size:
        hub_rank = rng.permutation(n)
        zipf_draw = rng.zipf(hub_bias, size=rewired.size)
        np.minimum(zipf_draw - 1, n - 1, out=zipf_draw)
        dsts[rewired] = hub_rank[zipf_draw]
        loops = rewired[dsts[rewired] == rewired // width]
        out_degrees -= np.bincount(loops // width, minlength=n)
        dsts = _drop(dsts, loops)
    srcs = np.repeat(np.arange(n, dtype=np.int64), out_degrees)
    # Random orientation: hubs collect both in- and out-edges, so rooted
    # traversals from a hub cover the graph (as in real follower graphs).
    # Swapped in place by xor (a masked copy branches on every edge);
    # the temporaries go before from_edges packs its key.
    flip = rng.random(srcs.size) < 0.5
    swap = np.bitwise_xor(srcs, dsts)
    swap *= flip
    srcs ^= swap
    dsts ^= swap
    del flip, swap
    return Graph.from_edges(n, (srcs, dsts), name=name)


def _drop(array: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """``array`` without the ascending unique ``positions``, compacted in
    place (each kept run moves left once): a view of its prefix."""
    ends = [*positions[1:], array.size]
    for moved, (at, end) in enumerate(zip(positions, ends), 1):
        array[at + 1 - moved : end - moved] = array[at + 1 : end]
    return array[: array.size - positions.size]


def grid_2d(
    rows: int,
    cols: int,
    bidirectional: bool = True,
    name: str = "",
) -> Graph:
    """Rows x cols lattice (road-network-like: low degree, high diameter).

    Vertex ``(r, c)`` has id ``r * cols + c`` with edges to its right and
    down neighbours (and back, when ``bidirectional``).  Each vertex's
    out-edges are listed together, in the order right, down, left, up, so
    the edge list is already grouped by source and ``from_edges`` copies
    it instead of sorting it.
    """
    if rows < 0 or cols < 0:
        raise GraphFormatError("rows and cols must be non-negative")
    n = rows * cols
    ids = np.arange(n, dtype=np.int64)
    col = ids % max(cols, 1)
    steps = np.array([1, cols, -1, -cols][: 4 if bidirectional else 2])
    keep = np.stack([col < cols - 1, ids < n - cols, col > 0, ids >= cols][: steps.size], axis=1)
    srcs = np.broadcast_to(ids[:, None], keep.shape)[keep]
    return Graph.from_edges(n, (srcs, (ids[:, None] + steps)[keep]), name=name)


def path_graph(num_vertices: int, name: str = "") -> Graph:
    """Directed path 0 -> 1 -> ... -> n-1 (maximal-diameter worst case)."""
    if num_vertices <= 1:
        return Graph.from_edges(
            max(num_vertices, 0), np.empty((0, 2), dtype=np.int64), name=name
        )
    v = np.arange(num_vertices - 1, dtype=np.int64)
    return Graph.from_edges(num_vertices, (v, v + 1), name=name)


def cycle_graph(num_vertices: int, name: str = "") -> Graph:
    """Directed cycle 0 -> 1 -> ... -> n-1 -> 0 (no in-degree-0 roots)."""
    if num_vertices < 2:
        return Graph.from_edges(
            max(num_vertices, 0), np.empty((0, 2), dtype=np.int64), name=name
        )
    v = np.arange(num_vertices, dtype=np.int64)
    return Graph.from_edges(num_vertices, (v, (v + 1) % num_vertices), name=name)


def star_graph(num_leaves: int, name: str = "") -> Graph:
    """Hub 0 with edges to ``num_leaves`` leaves (one-iteration frontier)."""
    if num_leaves < 0:
        raise GraphFormatError("num_leaves must be non-negative")
    leaves = np.arange(1, num_leaves + 1, dtype=np.int64)
    hubs = np.zeros(num_leaves, dtype=np.int64)
    return Graph.from_edges(num_leaves + 1, (hubs, leaves), name=name)


def complete_graph(num_vertices: int, name: str = "") -> Graph:
    """All ordered pairs (u, v), u != v (densest small stress case)."""
    if num_vertices < 0:
        raise GraphFormatError("num_vertices must be non-negative")
    ids = np.arange(num_vertices, dtype=np.int64)
    srcs = np.repeat(ids, num_vertices)
    dsts = np.tile(ids, num_vertices)
    keep = srcs != dsts
    return Graph.from_edges(num_vertices, (srcs[keep], dsts[keep]), name=name)


def random_dag(
    num_vertices: int,
    num_edges: int,
    seed: Optional[int] = 0,
    name: str = "",
) -> Graph:
    """Random DAG: edges only go from lower to higher vertex id.

    A DAG has a well-defined propagation depth for every vertex, which
    makes RR guidance exact — used heavily by the core tests.
    """
    if num_vertices < 2:
        return Graph.from_edges(
            max(num_vertices, 0), np.empty((0, 2), dtype=np.int64), name=name
        )
    rng = _rng(seed)
    a = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    b = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    srcs = np.minimum(a, b)
    dsts = np.maximum(a, b)
    keep = srcs != dsts
    return Graph.from_edges(num_vertices, (srcs[keep], dsts[keep]), name=name)


def figure1_graph() -> Tuple[Graph, int]:
    """The exact 6-vertex weighted example of the paper's Figure 1.

    Returns the graph and the SSSP root (vertex 0).  Edge set:
    ``0->1 (1), 0->3 (2), 1->2 (1), 2->4 (1), 3->4 (2), 4->5 (1), 2->5 (5)``
    reproduces the iteration plot in Figure 1(b): V4 relaxes from 4 to 3 in
    iteration 3 and V5 from 5 to 4 in iteration 4.
    """
    edges = np.array(
        [[0, 1], [0, 3], [1, 2], [2, 4], [3, 4], [4, 5], [2, 5]],
        dtype=np.int64,
    )
    weights = np.array([1.0, 2.0, 1.0, 1.0, 2.0, 1.0, 5.0])
    return Graph.from_edges(6, edges, weights, name="figure1"), 0
