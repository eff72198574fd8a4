"""Redundancy-reduction guidance (the paper's Algorithm 1).

The preprocessing pass runs a unit-weight label propagation from a set of
roots and records, per vertex:

* ``visited`` — whether the vertex was ever reached;
* ``last_iter`` — the *last* propagation level at which the vertex
  received an update from an active source.  This is the topological
  knowledge both redundancy-reduction principles consume:

  - **start late** (min/max apps): computation on ``v`` before iteration
    ``last_iter[v]`` only produces intermediate values and is skipped;
  - **finish early** (arithmetic apps): once ``v``'s value has been
    stable for more than ``last_iter[v]`` iterations, no new information
    can still be in flight toward ``v``, so it is early-converged.

Unreached vertices keep ``last_iter = 0``: they are never delayed and
never declared early-converged ahead of time — the safe default the
engine relies on for correctness on disconnected or cyclic inputs.

The pass is one :func:`repro.graph.analysis.bfs_sweep` over ``out_csr``
— per level a destinations-only expansion, a direct ``last_iter``
stamp, and a sort-free dedupe of the newly reached vertices.
"""

from __future__ import annotations

import os
import tempfile
import zipfile
import zlib
from dataclasses import dataclass
from typing import Iterable, Optional, Type

import numpy as np

from repro.errors import GraphIOError
from repro.graph.analysis import bfs_sweep, resolve_ids
from repro.graph.graph import Graph
from repro.runconfig import current

__all__ = [
    "RRGuidance",
    "generate_guidance",
    "generate_weighted_guidance",
    "default_roots",
    "save_guidance",
    "load_guidance",
    "validate_guidance",
    "LAST_ITER_BUCKETS",
    "bucket_by_last_iter",
    "bucket_labels",
]

#: Fixed upper bounds of the ``lastIter`` buckets the observability
#: layer attributes skipped work to (powers of two, open-ended tail).
#: Fixed buckets keep the attribution comparable across graphs and runs.
LAST_ITER_BUCKETS = (1, 2, 4, 8, 16, 32, 64, float("inf"))


def bucket_by_last_iter(
    last_iter_values: np.ndarray,
    weights: Optional[np.ndarray] = None,
    buckets=LAST_ITER_BUCKETS,
) -> np.ndarray:
    """Totals per ``lastIter`` bucket (counts, or ``weights`` sums).

    Bucket ``i`` collects values ``v`` with ``buckets[i-1] < v <=
    buckets[i]`` (first bucket: ``v <= buckets[0]``).  This is how the
    engine attributes skipped edge operations to guidance depth: deep
    vertices (large ``lastIter``) are where "start late" saves the most
    repeated recomputation, and the per-bucket series makes that
    visible per run instead of only in hand-written experiments.
    """
    values = np.asarray(last_iter_values)
    finite = np.asarray(buckets[:-1], dtype=np.float64)
    index = np.searchsorted(finite, values, side="left")
    return np.bincount(
        index, weights=weights, minlength=len(buckets)
    ).astype(np.int64 if weights is None else np.float64)


def bucket_labels(buckets=LAST_ITER_BUCKETS) -> list:
    """OpenMetrics-style ``le`` labels for :func:`bucket_by_last_iter`."""
    return [
        "+Inf" if b == float("inf") else str(int(b)) for b in buckets
    ]


@dataclass(frozen=True)
class RRGuidance:
    """Per-vertex topological guidance (the paper's ``struct inf`` array).

    Attributes
    ----------
    last_iter:
        ``int64`` per-vertex last propagation level (0 for unreached).
    visited:
        Whether the vertex was reached from the roots.
    bfs_dist:
        Unit-weight distance assigned by the single allowed computation
        per vertex (Algorithm 1 line 12); kept for validation.
    num_iterations:
        Number of propagation rounds the preprocessing ran.
    edge_ops:
        Edge scans performed — the preprocessing overhead reported by the
        Figure 8 experiment.
    roots:
        The source set used.
    """

    last_iter: np.ndarray
    visited: np.ndarray
    bfs_dist: np.ndarray
    num_iterations: int
    edge_ops: int
    roots: np.ndarray

    @property
    def num_vertices(self) -> int:
        return self.last_iter.size

    @property
    def max_last_iter(self) -> int:
        return int(self.last_iter.max()) if self.last_iter.size else 0

    def start_iteration(self, vertex: int) -> int:
        """First iteration at which ``vertex`` should compute."""
        return int(self.last_iter[vertex])


def validate_guidance(
    guidance: RRGuidance,
    num_vertices: Optional[int] = None,
    error: Type[Exception] = GraphIOError,
    source: str = "guidance",
) -> RRGuidance:
    """Check the structural invariants every guidance consumer relies on.

    Raises ``error`` (default :class:`repro.errors.GraphIOError`) when:

    * ``last_iter``/``visited``/``bfs_dist`` are not 1-D arrays of one
      common length, or ``roots`` is not a 1-D integer array;
    * the arrays carry the wrong dtype kinds (``last_iter``/``bfs_dist``
      integral, ``visited`` boolean);
    * any ``last_iter`` is negative (the engine treats ``last_iter`` as
      an iteration number; a negative level would mis-skip forever);
    * a root id falls outside ``[0, n)``;
    * ``num_vertices`` is given and the arrays cover a different count —
      the silent-wrong-answer case: guidance for another graph or scale
      divisor makes "start late" skip the wrong vertices.

    Returns the guidance unchanged so call sites can validate inline.
    """
    arrays = (
        ("last_iter", guidance.last_iter),
        ("visited", guidance.visited),
        ("bfs_dist", guidance.bfs_dist),
        ("roots", guidance.roots),
    )
    for name, array in arrays:
        if not isinstance(array, np.ndarray) or array.ndim != 1:
            raise error("%s: %s must be a 1-D array" % (source, name))
    for name in ("last_iter", "bfs_dist", "roots"):
        if getattr(guidance, name).dtype.kind not in "iu":
            raise error(
                "%s: %s must be an integer array, got dtype %s"
                % (source, name, getattr(guidance, name).dtype)
            )
    if guidance.visited.dtype.kind != "b":
        raise error(
            "%s: visited must be a boolean array, got dtype %s"
            % (source, guidance.visited.dtype)
        )
    n = guidance.last_iter.size
    if guidance.visited.size != n or guidance.bfs_dist.size != n:
        raise error(
            "%s: inconsistent array lengths (last_iter=%d, visited=%d, "
            "bfs_dist=%d)"
            % (source, n, guidance.visited.size, guidance.bfs_dist.size)
        )
    if n and int(guidance.last_iter.min()) < 0:
        raise error(
            "%s: last_iter contains negative levels (min %d)"
            % (source, int(guidance.last_iter.min()))
        )
    if guidance.roots.size and (
        int(guidance.roots.min()) < 0 or int(guidance.roots.max()) >= n
    ):
        raise error(
            "%s: root ids outside [0, %d)" % (source, n)
        )
    if num_vertices is not None and n != num_vertices:
        raise error(
            "%s: guidance covers %d vertices but the graph has %d — it "
            "was generated for a different graph (or scale divisor)"
            % (source, n, num_vertices)
        )
    return guidance


def default_roots(graph: Graph) -> np.ndarray:
    """Generic root set for graph-wide (root-free) applications.

    Vertices with no incoming edges are natural propagation sources; a
    graph with none (e.g. strongly connected) falls back to vertex 0,
    which keeps the guidance well-defined and — because unreached
    vertices keep ``last_iter = 0`` — always safe.
    """
    roots = np.nonzero(graph.in_degrees() == 0)[0]
    if roots.size == 0 and graph.num_vertices > 0:
        roots = np.array([0], dtype=np.int64)
    return roots.astype(np.int64)


def _generate(graph: Graph, roots, store, variant: str, propagate) -> RRGuidance:
    """What both variants share: resolve the roots, consult the store,
    ``propagate(out_csr, roots, last_iter, visited, bfs_dist) ->
    (iterations, edge_ops)`` over root-initialised arrays, offer back."""
    n = graph.num_vertices
    if roots is None:
        roots = default_roots(graph)
    else:
        roots = resolve_ids(roots, n, "guidance root")
    if store is None:
        store = current().store
    if store is not None:
        cached = store.consult_guidance(graph, roots, variant=variant)
        if cached is not None:
            return cached
    last_iter = np.zeros(n, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    bfs_dist = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    visited[roots] = True
    bfs_dist[roots] = 0
    iterations, edge_ops = propagate(graph.out_csr, roots, last_iter, visited, bfs_dist)
    guidance = RRGuidance(last_iter, visited, bfs_dist, iterations, edge_ops, roots)
    if store is not None:
        store.offer_guidance(graph, guidance, variant=variant)
    return guidance


def _unit_propagate(out, roots, last_iter, visited, bfs_dist):
    iteration = edge_ops = 0
    for dsts, fresh in bfs_sweep(out, roots, visited):
        iteration += 1
        edge_ops += dsts.size
        last_iter[dsts] = iteration
        bfs_dist[fresh] = iteration
    return iteration, edge_ops


def generate_guidance(
    graph: Graph, roots: Optional[Iterable[int]] = None, store=None
) -> RRGuidance:
    """Run Algorithm 1 and return the guidance array.

    Parameters
    ----------
    graph:
        Input graph; edge weights are ignored (treated as 1), which is
        what makes the guidance cheap and reusable across applications.
    roots:
        Source vertices (the app's root for rooted traversals, or
        :func:`default_roots` when omitted); non-integer ids are refused.
    store:
        Optional :class:`repro.store.ArtifactStore`; defaults to the
        run configuration's store (``--cache-dir``).  On a validated hit
        the propagation is skipped entirely and the returned guidance
        reports ``edge_ops == 0`` — no edge was scanned *in this job*,
        which is the amortisation the paper's Figure 8 argues for.
        Fresh results are offered back to the store for the next job.

    Notes
    -----
    Vectorised equivalent of the paper's per-edge pseudo-code, one
    :func:`~repro.graph.analysis.bfs_sweep`: iteration ``t`` scans the
    out-edges of the frontier (vertices first visited at ``t - 1``),
    stamps ``last_iter = t`` on every scanned destination, and the
    unvisited ones become the next frontier.  Because ``t`` only grows,
    stamping is a plain store — no max() needed — and because every
    duplicate of a destination carries the same ``t``, no dedupe (no
    sort over the scanned edges) precedes it.
    """
    return _generate(graph, roots, store, "unit", _unit_propagate)


def _weighted_propagate(out, roots, last_iter, visited, bfs_dist):
    dist = np.full(visited.size, np.inf)
    dist[roots] = 0.0
    frontier = roots
    iteration = edge_ops = 0
    while frontier.size:
        srcs, dsts, weights = out.expand_sources(frontier)
        edge_ops += dsts.size
        if dsts.size == 0:
            break
        iteration += 1
        candidates = dist[srcs] + weights
        proposal = np.full(visited.size, np.inf)
        np.minimum.at(proposal, dsts, candidates)
        improved = proposal < dist
        changed = np.nonzero(improved)[0]
        if changed.size == 0:
            break
        dist[changed] = proposal[changed]
        last_iter[changed] = iteration
        fresh = changed[~visited[changed]]
        visited[fresh] = True
        bfs_dist[fresh] = iteration
        frontier = changed
    return iteration, edge_ops


def generate_weighted_guidance(
    graph: Graph, roots: Optional[Iterable[int]] = None, store=None
) -> RRGuidance:
    """Exact (weight-aware) guidance: an upper bound for "start late".

    The paper's Algorithm 1 deliberately ignores edge weights so the
    guidance is cheap and reusable; the price is that on weighted
    graphs a vertex keeps improving *after* its hop-based level, and
    those refinements cannot be skipped.  This variant runs synchronous
    Bellman-Ford with the true weights and records each vertex's actual
    last-update iteration — the tightest possible ``last_iter``.  It
    costs as much as one full SSSP (so it only pays off when heavily
    amortised) and is root-specific; it exists to *measure* the gap the
    unit-weight approximation leaves (see the ablation benchmark).
    """
    return _generate(graph, roots, store, "weighted", _weighted_propagate)


def save_guidance(guidance: RRGuidance, path: str) -> None:
    """Persist guidance to a compressed ``.npz`` for reuse across jobs.

    The paper's amortisation argument (Facebook's ~8.7 jobs per graph)
    assumes the guidance outlives one process; this is the storage half
    of that story.  The write goes through a temporary file published
    with :func:`os.replace`, so a crash mid-write can never leave a
    truncated archive that a later job half-reads.  (For keyed,
    fingerprint-validated persistence prefer
    :class:`repro.store.ArtifactStore`, which builds on this format.)
    """
    if not path.endswith(".npz"):
        path += ".npz"  # match numpy's savez suffix convention
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez_compressed(
                    handle,
                    last_iter=guidance.last_iter,
                    visited=guidance.visited,
                    bfs_dist=guidance.bfs_dist,
                    num_iterations=np.int64(guidance.num_iterations),
                    edge_ops=np.int64(guidance.edge_ops),
                    roots=guidance.roots,
                )
            os.replace(tmp, path)
        except OSError:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise GraphIOError("cannot write %s: %s" % (path, exc)) from exc


def load_guidance(
    path: str, num_vertices: Optional[int] = None
) -> RRGuidance:
    """Load and validate guidance stored with :func:`save_guidance`.

    Every array is checked against the invariants in
    :func:`validate_guidance` before the guidance is returned — a
    truncated archive, a mistyped array, or guidance saved for a graph
    of a different size (pass ``num_vertices`` to assert the target
    graph's) raises :class:`repro.errors.GraphIOError` instead of
    making the engine silently skip the wrong vertices.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            try:
                guidance = RRGuidance(
                    last_iter=data["last_iter"],
                    visited=data["visited"],
                    bfs_dist=data["bfs_dist"],
                    num_iterations=int(data["num_iterations"]),
                    edge_ops=int(data["edge_ops"]),
                    roots=data["roots"],
                )
            except KeyError as exc:
                raise GraphIOError(
                    "%s is not a repro guidance archive (missing %s)"
                    % (path, exc)
                ) from exc
    except OSError as exc:
        raise GraphIOError("cannot read %s: %s" % (path, exc)) from exc
    except (ValueError, zipfile.BadZipFile, zlib.error) as exc:
        raise GraphIOError(
            "%s is corrupt or not a guidance archive: %s" % (path, exc)
        ) from exc
    return validate_guidance(
        guidance, num_vertices=num_vertices, source=path
    )
