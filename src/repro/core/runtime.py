"""The phase-dispatch interface: the phase vocabulary, the fused
blockwise kernels, and :class:`SerialDispatch`, the one home of the
phase bodies.

The paper's Table 3 API is realised by the vectorised hooks of
:mod:`repro.apps.base` (``edge_candidates``, ``source_terms``,
``edge_contributions``, ``apply``), which these kernels call.  The
out-of-core backend (:mod:`repro.ooc`) runs the phase bodies shard by
shard and the shared-memory pool (:mod:`repro.parallel`) runs them once
it has degraded; its workers run the same kernels over contiguous vertex
blocks.  Every backend thus executes the exact kernels serial does,
which is what makes them bit-identical by construction rather than by
testing alone.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

import numpy as np

from repro.graph.csr import (
    covering_span,
    expand_row_dsts,
    expand_rows,
    row_sums,
    unit_view,
)
from repro.graph.graph import Graph

__all__ = [
    "PHASE_PULL",
    "PHASE_GATHER",
    "PHASE_PUSH",
    "PHASE_NAMES_BY_ID",
    "AGGREGATION_CODES",
    "AGGREGATION_BY_CODE",
    "TEL_HEARTBEAT",
    "TEL_EPOCH",
    "TEL_PHASE",
    "TEL_CHUNKS",
    "TEL_STEALS",
    "TEL_KERNEL_NS",
    "TEL_PROGRESS_NS",
    "TEL_TASKS",
    "TEL_EDGES",
    "TEL_COLS",
    "new_telemetry_block",
    "telemetry_begin",
    "telemetry_advance",
    "telemetry_end",
    "grouped_reduce",
    "pull_apply_block",
    "gather_block",
    "push_candidates",
    "push_block",
    "SerialDispatch",
]

# ----------------------------------------------------------------------
# phase vocabulary
# ----------------------------------------------------------------------
# The engine drives every superstep phase through one of three kernels,
# identified by a small integer so the parallel backend can name the
# phase in a fixed-size binary control block (no pickling on the hot
# path).  The codes are part of the parent<->worker wire protocol; keep
# them stable.

PHASE_PULL = 1
PHASE_GATHER = 2
PHASE_PUSH = 3

PHASE_NAMES_BY_ID = {PHASE_PULL: "pull", PHASE_GATHER: "gather",
                     PHASE_PUSH: "push"}

#: min/max aggregation codes for the same control block.
AGGREGATION_CODES = {"min": 0, "max": 1}
AGGREGATION_BY_CODE = {code: name for name, code in AGGREGATION_CODES.items()}

# ----------------------------------------------------------------------
# live telemetry segment layout
# ----------------------------------------------------------------------
# One int64 row per executor (pool worker or the serial dispatch),
# written lock-free by its owner between kernel blocks and *read-only*
# sampled by the parent's TelemetrySampler thread — no pipe traffic, no
# locks: each writer owns exactly one row, and single-element int64
# loads/stores are atomic on every platform numpy supports.  The row is
# padded to TEL_COLS (128 bytes, two cache lines) so concurrent writers
# never false-share a line.  Telemetry is a pure side channel: nothing
# in the execution path ever reads it back, which is what keeps results
# bit-identical with the plane on or off.

TEL_HEARTBEAT = 0    # bumps on every observable progress step
TEL_EPOCH = 1        # dispatch epoch currently being served
TEL_PHASE = 2        # phase id being executed (0 = idle between phases)
TEL_CHUNKS = 3       # kernel blocks completed, cumulative over the run
TEL_STEALS = 4       # blocks claimed outside the static share, cumulative
TEL_KERNEL_NS = 5    # nanoseconds inside fused kernels, cumulative
TEL_PROGRESS_NS = 6  # time.monotonic_ns() stamp of the last heartbeat
TEL_TASKS = 7        # task-list entries processed, cumulative
TEL_EDGES = 8        # edges relaxed/gathered/expanded, cumulative
TEL_COLS = 16        # row width: 16 * int64 = 128-byte padded slot


def new_telemetry_block(rows: int) -> np.ndarray:
    """Zeroed telemetry segment with one padded slot per executor."""
    return np.zeros((rows, TEL_COLS), dtype=np.int64)


def telemetry_begin(row: np.ndarray, epoch: int, phase_id: int) -> None:
    """Mark the row's owner as serving ``phase_id`` under ``epoch``."""
    row[TEL_EPOCH] = epoch
    row[TEL_PHASE] = phase_id
    row[TEL_PROGRESS_NS] = time.monotonic_ns()
    row[TEL_HEARTBEAT] += 1


def telemetry_advance(
    row: np.ndarray, tasks: int, edges: int, kernel_ns: int, stolen: bool
) -> None:
    """Record one completed kernel block and stamp fresh progress."""
    row[TEL_CHUNKS] += 1
    row[TEL_TASKS] += tasks
    row[TEL_EDGES] += edges
    row[TEL_KERNEL_NS] += kernel_ns
    if stolen:
        row[TEL_STEALS] += 1
    row[TEL_PROGRESS_NS] = time.monotonic_ns()
    row[TEL_HEARTBEAT] += 1


def telemetry_end(row: np.ndarray) -> None:
    """Mark the row's owner idle (phase finished, ack about to send)."""
    row[TEL_PHASE] = 0
    row[TEL_PROGRESS_NS] = time.monotonic_ns()
    row[TEL_HEARTBEAT] += 1


def _row_segments(csr, degrees: np.ndarray, ids: np.ndarray):
    """``(sel, rows, counts, ptr, pick, edges)``: ``csr.indices[sel]``
    holds the in-edges of ``rows``, row ``i``'s ``counts[i]`` of them
    from ``ptr[i]`` to ``ptr[i + 1]``; ``edges`` counts those of ``ids``.
    ``rows`` is ``ids`` (``sel`` :func:`expand_rows`' positions) unless
    :func:`covering_span` takes ``slice(lo, hi)`` (``sel`` a slice: views,
    read in order); if that span has holes, ``pick`` selects ``ids``'
    entries of a per-row output.  Per row, edges and order are the same.
    """
    span = covering_span(csr.indptr, degrees, ids)
    if span is None:
        counts, sel = expand_rows(csr.indptr, ids, csr.base)
        ptr = np.zeros(ids.size + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        return sel, ids, counts, ptr, None, int(ptr[-1])
    lo, hi, edges = span
    ptr = csr.indptr[lo : hi + 1]
    start = int(ptr[0])
    sel = slice(start - csr.base, int(ptr[-1]) - csr.base)
    pick = None if hi - lo == ids.size else ids - lo
    # A span from edge 0 reads the CSR's own row pointer, uncopied.
    return (sel, slice(lo, hi), degrees[lo:hi], ptr - start if start else ptr,
            pick, edges)


def grouped_reduce(
    aggregation: str,
    per_edge: np.ndarray,
    group_counts: np.ndarray,
    boundaries: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Min/max over contiguous per-group blocks; empty groups get the
    identity.  (Arithmetic sums are :func:`repro.graph.csr.row_sums`.)

    ``boundaries`` is the exclusive prefix sum of ``group_counts``; pass
    it when already at hand (:func:`_row_segments` always has it).

    ``reduceat`` repeats the boundary element for a zero-width segment
    (the next group's first edge), which would silently hand an empty
    group its neighbour's candidate.  Empty groups must instead reduce
    to the aggregation identity (+inf for min, -inf for max) so
    ``app.better`` can never see a candidate that no edge produced.

    Blockwise-safe (flox-style): a grouped reduction over any
    concatenation of whole groups equals the same reduction over the
    full array, so callers may partition the group list into arbitrary
    contiguous blocks — as the parallel workers do — without changing a
    single output bit, provided no block splits a group's edge run.
    """
    if boundaries is None:
        boundaries = np.cumsum(group_counts) - group_counts
    ufunc, identity = ((np.minimum, np.inf) if aggregation == "min"
                       else (np.maximum, -np.inf))
    nonempty = group_counts > 0
    if nonempty.all():
        return ufunc.reduceat(per_edge, boundaries)
    out = np.full(group_counts.size, identity)
    out[nonempty] = ufunc.reduceat(per_edge, boundaries[nonempty])
    return out


def pull_apply_block(
    app,
    in_csr,
    in_deg: np.ndarray,
    values: np.ndarray,
    ids: np.ndarray,
    aggregation: str,
    result: np.ndarray,
    improved: np.ndarray,
    terms: Optional[np.ndarray] = None,
) -> int:
    """Fused pullFunc + improvement test over one block of destinations.

    Each id's min/max over all its in-edge candidates lands in
    ``result[ids]`` and ``improved[ids]`` records whether it beats the
    incumbent value.  Fusing the ``app.better`` test into the block is
    bit-identical to the engine's old full-array mask: for every vertex
    outside ``ids`` the old mask compared the aggregation *identity*
    against the incumbent, and the identity never wins (``inf < v`` and
    ``-inf > v`` are both false), so those entries were always false —
    exactly what a pre-zeroed ``improved`` already holds.

    ``terms`` is ``app.source_terms(values)``, computed once per phase by
    the phase's owner.  Given, a candidate is one term per edge and no
    weights are gathered; ``None`` takes the general contract,
    ``app.edge_candidates`` over the in-neighbours and their weights.
    Neither builds per-edge destination ``rows``; the candidates and the
    ``reduceat`` segments are the same either way.  Only ``ids``' entries
    are written, and only their edges (those relaxed) are returned.
    """
    sel, rows, counts, ptr, pick, edges = _row_segments(in_csr, in_deg, ids)
    srcs = in_csr.indices[sel]
    if terms is None:
        candidates = app.edge_candidates(values, srcs, in_csr.weights[sel])
    else:
        candidates = terms[srcs]
    reduced = grouped_reduce(aggregation, candidates, counts, ptr[:-1])
    if pick is not None:
        rows, reduced = ids, reduced[pick]
    result[rows] = reduced
    improved[rows] = app.better(reduced, values[rows])
    return edges


def gather_block(
    app,
    in_csr,
    in_deg: np.ndarray,
    values: np.ndarray,
    ids: np.ndarray,
    result: np.ndarray,
    terms: Optional[np.ndarray] = None,
) -> int:
    """Arithmetic gather over one block: per-destination contribution sums.

    Each row is one in-order :func:`row_sums` pass.  ``terms`` is
    ``app.source_terms(values)``, computed once per phase by the phase's
    owner: given, the kernel reads one term per in-neighbour id against
    unit weights, with no per-edge array built.  ``None`` takes the
    general contract, ``app.edge_contributions`` over the expanded
    edges, summed against unit terms.  One factor is 1.0 either way, so
    the two paths sum the same floats in the same order.

    A span without holes is zeroed and summed into in place,
    ``result[lo:hi]``; the other cases sum into a temporary that is then
    scattered.  Only ``result[ids]`` is written (0.0 for ids with no
    in-edges), and only their edges (those gathered) are returned.
    """
    sel, rows, counts, ptr, pick, edges = _row_segments(in_csr, in_deg, ids)
    srcs = in_csr.indices[sel]
    if terms is None:
        dsts = (np.arange(rows.start, rows.stop, dtype=np.int64)
                if isinstance(rows, slice) else rows)
        data = app.edge_contributions(
            values, srcs, np.repeat(dsts, counts), in_csr.weights[sel]
        )
        x = unit_view(values.size)
    else:
        data, x = unit_view(srcs.size), terms
    if isinstance(rows, slice) and pick is None:
        out = result[rows]
        out[...] = 0.0
        row_sums(ptr, srcs, data, x, out)
        return edges
    sums = np.zeros(ptr.size - 1)
    row_sums(ptr, srcs, data, x, sums)
    result[ids] = sums if pick is None else sums[pick]
    return edges


def push_candidates(
    app,
    out_csr,
    values: np.ndarray,
    ids: np.ndarray,
    terms: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(dsts, candidates)`` of the out-edges of ``ids`` in
    ``expand_sources`` order (``out_csr`` a CSR or a shard).  ``terms``
    as in :func:`pull_apply_block`: given, each source's term repeats
    over its out-edges, and no ``srcs`` or weights are built."""
    if terms is None:
        srcs, dsts, weights = out_csr.expand_sources(ids)
        return dsts, app.edge_candidates(values, srcs, weights)
    counts, sel = expand_rows(out_csr.indptr, ids, out_csr.base)
    return out_csr.indices[sel], np.repeat(terms[ids], counts)


def push_block(
    app,
    out_csr,
    values: np.ndarray,
    ids: np.ndarray,
    edge_dsts: np.ndarray,
    edge_cands: np.ndarray,
    base: int,
    end: int,
    terms: Optional[np.ndarray] = None,
) -> int:
    """Push candidates of one block of sources, written at serial offsets.

    ``[base, end)`` is the edge range ``expand_sources`` would fill for
    this block within the full task list, so blocks completed in any
    order reproduce the serial edge sequence byte for byte — the
    per-destination candidate order Table 2's update accounting
    depends on.  ``terms`` as in :func:`push_candidates`.  Returns the
    number of edges expanded.
    """
    dsts, candidates = push_candidates(app, out_csr, values, ids, terms)
    edge_dsts[base:end] = dsts
    edge_cands[base:end] = candidates
    return int(dsts.size)


def _in_row_order(pieces: list, column: int, dtype) -> np.ndarray:
    """Column ``column`` of per-piece outputs joined in ascending part
    (= row) order, whatever order the pieces ran in; the output of a
    single piece is returned as is."""
    if len(pieces) == 1:
        return pieces[0][column]
    if not pieces:
        return np.empty(0, dtype=dtype)
    pieces.sort(key=lambda piece: piece[0])
    return np.concatenate([piece[column] for piece in pieces])


class SerialDispatch:
    """The phase-dispatch interface and the one home of its phase bodies.

    The engine drives every superstep through a dispatch: the scratch
    arrays (``values``/``result``/``improved``), the fused kernels run
    by :meth:`pull_apply`, :meth:`gather` and :meth:`push`, and the
    engine-side expansions.  A backend subclasses this and says only
    how a phase is cut into blocks (:meth:`_blocks`) and what to report
    once a phase has read its edges (:meth:`_read_done`):
    :class:`repro.ooc.ShardStreamDispatch` streams shards through these
    bodies, and :class:`repro.parallel.ParallelExecutor` runs them
    inline once its pool has degraded.  Here each phase is a single
    block — the whole task list over the resident CSR.

    ``stats`` lists are empty (there are no workers to report) and
    ``last_dispatch`` stays ``None`` (no IPC happened), which is how
    the engine knows not to emit worker/dispatch trace events.
    """

    num_workers = 1
    last_dispatch = None
    #: Serial execution never degrades (there is no pool to lose).
    degraded = False

    def __init__(self, graph: Graph, app) -> None:
        n = graph.num_vertices
        self._app = app
        self._csr = {"in": graph.in_csr, "out": graph.out_csr}
        self.in_degrees = graph.in_csr.degrees()
        self.out_degrees = graph.out_csr.degrees()
        self.num_vertices = n
        self.values = np.zeros(n, dtype=np.float64)
        self.result = np.zeros(n, dtype=np.float64)
        self.improved = np.zeros(n, dtype=bool)
        #: one telemetry slot: the serial path feeds the same live
        #: sampler the pool does, so ``repro top`` works on any backend.
        self.telemetry = new_telemetry_block(1)
        self._epoch = 0

    @property
    def current_epoch(self) -> int:
        """Phases dispatched so far (the sampler's staleness reference)."""
        return self._epoch

    def _blocks(self, direction: str, ids: np.ndarray):
        """The ``(part, adjacency, ids)`` pieces a phase over ``ids``
        reads in ``direction``: here one, the resident CSR.

        Pull and gather pieces write disjoint rows, so the order pieces
        come in is free; push and expansion output is joined by
        ``part``.
        """
        return ((0, self._csr[direction], ids),)

    def _read_done(self, phase: str, direction: str) -> None:
        """Called once a phase has read its edges: nothing to report."""

    def _phase_done(self, phase_id: int, direction: str, tasks: int,
                    edges: int, t0: int) -> None:
        """One whole phase, started at ``t0``, as a single telemetry block:
        the row's end-of-phase state, written once with one clock read."""
        kernel_ns = time.perf_counter_ns() - t0
        self._epoch += 1
        row = self.telemetry[0]
        row[TEL_EPOCH] = self._epoch
        row[TEL_PHASE] = 0
        row[TEL_CHUNKS] += 1
        row[TEL_TASKS] += tasks
        row[TEL_EDGES] += edges
        row[TEL_KERNEL_NS] += kernel_ns
        row[TEL_PROGRESS_NS] = time.monotonic_ns()
        row[TEL_HEARTBEAT] += 1
        self._read_done(PHASE_NAMES_BY_ID[phase_id], direction)

    # ------------------------------------------------------------------
    def pull_apply(self, ids: np.ndarray, aggregation: str) -> list:
        """Fused pull + improvement mask for ``ids``; returns stats."""
        self.improved[...] = False
        t0 = time.perf_counter_ns()
        # Once per phase, not per block.
        terms = self._app.source_terms(self.values)
        edges = 0
        for _, csr, block in self._blocks("in", ids):
            edges += pull_apply_block(
                self._app, csr, self.in_degrees, self.values, block,
                aggregation, self.result, self.improved, terms,
            )
        self._phase_done(PHASE_PULL, "in", ids.size, edges, t0)
        return []

    def gather(self, ids: np.ndarray) -> list:
        """Arithmetic gather into a zeroed ``result``; returns stats."""
        self.result[...] = 0.0
        t0 = time.perf_counter_ns()
        terms = self._app.source_terms(self.values)
        edges = 0
        for _, csr, block in self._blocks("in", ids):
            edges += gather_block(
                self._app, csr, self.in_degrees, self.values, block,
                self.result, terms,
            )
        self._phase_done(PHASE_GATHER, "in", ids.size, edges, t0)
        return []

    def push(self, ids: np.ndarray):
        """Push candidates of ``ids`` in serial expansion order.

        Returns ``(dsts, candidates, out_counts, stats)``; the parent
        applies them (ordering-sensitive CAS semantics stay with the
        engine).
        """
        t0 = time.perf_counter_ns()
        terms = self._app.source_terms(self.values)
        pieces = [
            (part, *push_candidates(self._app, csr, self.values, block, terms))
            for part, csr, block in self._blocks("out", ids)
        ]
        dsts = _in_row_order(pieces, 1, np.int64)
        candidates = _in_row_order(pieces, 2, np.float64)
        self._phase_done(PHASE_PUSH, "out", ids.size, dsts.size, t0)
        return dsts, candidates, self.out_degrees[ids], []

    def _expand(self, direction: str, ids: np.ndarray) -> np.ndarray:
        """Concatenated ``direction``-neighbours of the sorted ``ids``."""
        pieces = [
            (part, expand_row_dsts(csr.indptr, csr.indices, block, csr.base))
            for part, csr, block in self._blocks(direction, ids)
        ]
        self._read_done("expand", direction)
        return _in_row_order(pieces, 1, np.int64)

    def expand_out_dsts(self, ids: np.ndarray) -> np.ndarray:
        """Concatenated out-neighbours of ``ids`` (frontier touch sets
        and the push side of the EC thaw) — the engine's own edge reads
        go through the dispatch so out-of-core backends can stream them."""
        return self._expand("out", ids)

    def expand_in_srcs(self, ids: np.ndarray) -> np.ndarray:
        """Concatenated in-neighbours of ``ids`` — the pull side of the
        EC thaw, for when the frozen set has fewer in-edges than the
        changed set has out-edges."""
        return self._expand("in", ids)

    def shard_decodes(self, direction: str, ids: np.ndarray) -> int:
        """Shards an expansion of ``ids`` would decode: none, the
        adjacency is resident."""
        return 0

    # ------------------------------------------------------------------
    def begin_superstep(self, superstep: int) -> None:
        """No-op superstep clock (worker faults need a pool to target)."""

    def detach_values(self) -> np.ndarray:
        """The values array, safe to own after ``close``."""
        return self.values

    def close(self) -> None:
        pass

    def __enter__(self) -> "SerialDispatch":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
