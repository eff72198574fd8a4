"""Out-of-core shard-streaming execution backend.

GraphD-style execution ("Efficient Processing of Very Large Graphs in a
Small Cluster", PAPERS.md) for the SLFE engine family: only the O(|V|)
per-vertex state — ``values``/``result``/``improved``, the two indptr
arrays and their degree diffs — stays resident; the O(|E|) adjacency is
streamed shard-at-a-time from the artifact store each superstep and
dropped again.  :class:`ShardStreamDispatch` implements the same
phase-dispatch interface as :class:`repro.core.runtime.SerialDispatch`
and :class:`repro.parallel.ParallelExecutor`, so the engine's run loops
are unchanged — one code path, three backends.

Bit-identity with serial is by construction, not by tolerance:

* Shards never split a row's edge run (:mod:`repro.graph.shards`), so
  each per-destination grouped reduction sees exactly the edge block a
  full-CSR pass would hand it.
* The engine's task id lists (``np.nonzero`` output, frontier ids) are
  sorted ascending; splitting a sorted list at shard row bounds with
  ``searchsorted`` hands each shard the rows a full pass would.  Pull
  and gather groups write disjoint result rows, so the order groups are
  visited in is free; push and expansion output is concatenated by
  ascending shard, reproducing the serial edge order byte for byte.

A small LRU of decoded shards (``--shard-cache``) plus a read-ahead
thread keep the stream from stalling on decode, and each phase sweeps
its shards from whichever end the LRU still holds (serpentine: a cyclic
sweep longer than the cache would never hit).  Every shard read from
the store is verified by :func:`repro.graph.shards.decode_shard`; only
a decoded shard sitting in the LRU is reused unchecked.  Every phase
emits one ``shard_io`` trace event (shards/bytes read, cache hits, read seconds,
peak RSS) that the metrics registry and the report's "Out-of-core I/O"
section consume.

:class:`SpilledGraph` is the scale lever: a :class:`Graph` whose CSRs
hold only ``indptr`` (touching ``indices``/``weights`` is a typed
:class:`EngineError`), loadable from a pre-sharded store entry via
:func:`load_spilled` — the full edge set never exists in memory at
once, which is what lets the bench run graphs 10-100x beyond the
in-memory stand-ins at flat peak RSS.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.runtime import (
    PHASE_GATHER,
    PHASE_PULL,
    PHASE_PUSH,
    expand_row_dsts,
    gather_block,
    new_telemetry_block,
    pull_apply_block,
    push_candidates,
    telemetry_advance,
    telemetry_begin,
    telemetry_end,
)
from repro.errors import EngineError, StoreError
from repro.graph.csr import CSR
from repro.graph.graph import Graph
from repro.graph.shards import ShardedCSR, ShardSlice
from repro.runconfig import current, install, resolve
from repro.store import ArtifactStore, graph_fingerprint
from repro.trace import recorder as trace_events

__all__ = [
    "ShardStreamDispatch",
    "SpilledCSR",
    "SpilledGraph",
    "spill_graph",
    "load_spilled",
    "install_ooc",
    "peak_rss_bytes",
]


def peak_rss_bytes() -> int:
    """This process's high-water resident set size in bytes (0 if the
    platform cannot report it)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.  Heuristics are worse
    # than naming the platform.
    import sys

    if sys.platform == "darwin":  # pragma: no cover - linux image
        return int(peak)
    return int(peak) * 1024


# Kept for perfbench/workloads.py; new code uses repro.runconfig.configured.
def install_ooc(shard_mb=None, shard_cache=None):
    """Set the configured shard knobs; returns the previous pair."""
    previous = install(shard_mb=shard_mb, shard_cache=shard_cache)
    return previous.shard_mb, previous.shard_cache


# ----------------------------------------------------------------------
# spilled graphs: indptr resident, edges on disk
# ----------------------------------------------------------------------
class SpilledCSR(CSR):
    """A CSR whose edge arrays live in the shard store, not in memory.

    Holds only ``indptr`` — everything degree- and shape-based
    (``num_vertices``, ``num_edges``, ``degrees``) works; any touch of
    ``indices``/``weights`` (and therefore ``expand_sources``) is a
    typed :class:`EngineError` naming the one backend that can run it.
    """

    __slots__ = ()

    def __init__(self, indptr: np.ndarray) -> None:
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        if indptr.ndim != 1 or indptr.size == 0 or indptr[0] != 0:
            raise EngineError("spilled CSR needs a valid indptr")
        if np.any(np.diff(indptr) < 0):
            raise EngineError("spilled CSR indptr must be non-decreasing")
        # Deliberately skip CSR.__init__: it validates (and would store)
        # the edge arrays this class exists to not have.
        self.indptr = indptr

    @property
    def num_edges(self) -> int:
        return int(self.indptr[-1])

    @property
    def indices(self):
        raise EngineError(
            "graph is spilled to the shard store; edge arrays are not "
            "resident (run it with backend='ooc')"
        )

    @property
    def weights(self):
        raise EngineError(
            "graph is spilled to the shard store; edge arrays are not "
            "resident (run it with backend='ooc')"
        )


class SpilledGraph(Graph):
    """A :class:`Graph` whose adjacency lives in a shard store.

    ``shard_digest`` keys the manifests/parts in the
    :class:`~repro.store.ArtifactStore`; both directions' ``indptr``
    arrays are resident (they are the per-vertex metadata every
    degree-based decision needs), the edge arrays never are.
    """

    __slots__ = ("shard_digest",)

    def __init__(
        self,
        out_indptr: np.ndarray,
        in_indptr: np.ndarray,
        shard_digest: str,
        name: str = "",
    ) -> None:
        super().__init__(SpilledCSR(out_indptr), name=name)
        self._in_csr = SpilledCSR(in_indptr)
        self.shard_digest = str(shard_digest)


def spill_graph(
    graph: Graph,
    store: ArtifactStore,
    shard_mb: Optional[float] = None,
) -> str:
    """Shard ``graph`` (both directions) into ``store``; returns its
    content digest — the handle :func:`load_spilled` reopens."""
    return store.put_sharded_graph(graph, resolve("shard_mb", shard_mb))


def load_spilled(store: ArtifactStore, digest: str) -> SpilledGraph:
    """Reopen a pre-sharded graph without materialising its edges."""
    loaded = {}
    for direction in ("in", "out"):
        entry = store.get_shard_manifest(digest, direction)
        if entry is None:
            raise StoreError(
                "no %r shard manifest for digest %s in the store; "
                "pre-shard with `repro cache shard` or spill_graph()"
                % (direction, digest)
            )
        loaded[direction] = entry
    name = str(loaded["out"][0].get("graph_name") or "spilled:%s" % digest[:12])
    return SpilledGraph(
        out_indptr=loaded["out"][1],
        in_indptr=loaded["in"][1],
        shard_digest=digest,
        name=name,
    )


# ----------------------------------------------------------------------
# the dispatch
# ----------------------------------------------------------------------
class _ShardStream:
    """Decoded-shard LRU + read-ahead for one graph's two directions.

    The cache is keyed ``(direction, part)`` and bounded by *count* of
    decoded shards, shared across both directions.  A shard of two or
    more rows holds at most ``shard_mb`` MiB of the bytes it stores (a
    unit-weight shard 8 B an edge, a weighted one 16), so the resident
    edge bytes are at most ``shard_cache × shard_mb`` (a single row
    above the budget counts at its own size) regardless of phase mix.
    A single daemon thread decodes the announced next shard while the kernels
    chew the current one; all bookkeeping is under one lock.  A demand
    for the shard that thread is decoding waits for it.
    """

    def __init__(
        self,
        sharded: Dict[str, ShardedCSR],
        capacity: int,
    ) -> None:
        self._sharded = sharded
        self._capacity = int(capacity)
        self._lock = threading.Lock()
        self._cache: "OrderedDict[Tuple[str, int], ShardSlice]" = OrderedDict()
        # Phase-scoped I/O counters, drained by the dispatch per phase.
        self.shards_read = 0
        self.bytes_read = 0
        self.cache_hits = 0
        self.read_seconds = 0.0
        self._want: Optional[Tuple[str, int]] = None
        # What the read-ahead thread is decoding right now.
        self._inflight: Optional[Tuple[str, int]] = None
        self._wakeup = threading.Condition(self._lock)
        self._closed = False
        self._thread = threading.Thread(
            target=self._prefetch_loop, name="repro-ooc-prefetch", daemon=True
        )
        self._thread.start()

    # -- cache core ----------------------------------------------------
    def _insert(self, key: Tuple[str, int], shard: ShardSlice) -> None:
        # Caller holds the lock.
        self._cache[key] = shard
        self._cache.move_to_end(key)
        while len(self._cache) > self._capacity:
            self._cache.popitem(last=False)

    def _load(self, direction: str, part: int) -> ShardSlice:
        """Decode one shard (outside the lock) and account the I/O."""
        sharded = self._sharded[direction]
        meta = sharded.shard_meta(part)
        t0 = time.perf_counter()
        shard = sharded.load_shard(part)
        elapsed = time.perf_counter() - t0
        with self._lock:
            self.shards_read += 1
            self.bytes_read += int(meta.get("blob_bytes", 0))
            self.read_seconds += elapsed
            self._insert((direction, part), shard)
        return shard

    def get(self, direction: str, part: int) -> ShardSlice:
        """The decoded shard, from cache or the store."""
        key = (direction, part)
        with self._lock:
            while self._inflight == key:
                self._wakeup.wait()
            shard = self._cache.get(key)
            if shard is not None:
                self._cache.move_to_end(key)
                self.cache_hits += 1
                return shard
            if self._want == key:
                self._want = None  # the demand path got here first
        # Also where a failed read-ahead resurfaces, as the typed error.
        return self._load(direction, part)

    def resident(self, direction: str, part: int) -> bool:
        """Whether the decoded shard sits in the LRU right now."""
        with self._lock:
            return (direction, part) in self._cache

    def announce(self, direction: str, part: Optional[int]) -> None:
        """Hint the next shard the phase loop will ask for."""
        if part is None:
            return
        with self._lock:
            if self._closed or (direction, part) in self._cache:
                return
            self._want = (direction, part)
            self._wakeup.notify_all()

    def _prefetch_loop(self) -> None:
        while True:
            with self._lock:
                while self._want is None and not self._closed:
                    self._wakeup.wait()
                if self._closed:
                    return
                direction, part = self._want
                self._want = None
                if (direction, part) in self._cache:
                    continue
                self._inflight = (direction, part)
            try:
                self._load(direction, part)
            except Exception:
                # Read-ahead is an optimisation; the demand path will
                # re-raise the real (typed) error with full context.
                pass
            finally:
                with self._lock:
                    self._inflight = None
                    self._wakeup.notify_all()

    def drain_counters(self) -> Tuple[int, int, int, float]:
        """Return and reset (shards, bytes, hits, seconds)."""
        with self._lock:
            out = (
                self.shards_read,
                self.bytes_read,
                self.cache_hits,
                self.read_seconds,
            )
            self.shards_read = 0
            self.bytes_read = 0
            self.cache_hits = 0
            self.read_seconds = 0.0
            return out

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._want = None
            self._wakeup.notify_all()
        self._thread.join(timeout=5.0)
        with self._lock:
            self._cache.clear()


def _planned_mb(entry) -> float:
    """The ``shard_mb`` a stored ``(manifest, indptr)`` was planned at."""
    return float(entry[0]["shard_mb"])


def _concat_by_part(pieces: Dict[int, np.ndarray], dtype) -> np.ndarray:
    """Per-shard output joined in ascending shard (= row) order."""
    if not pieces:
        return np.empty(0, dtype=dtype)
    return np.concatenate([pieces[part] for part in sorted(pieces)])


class ShardStreamDispatch:
    """Out-of-core implementation of the phase-dispatch interface.

    Drop-in beside :class:`~repro.core.runtime.SerialDispatch`: same
    scratch arrays, same fused kernels, same telemetry block — but the
    kernels run shard-at-a-time over :class:`ShardSlice` views fetched
    from the artifact store, so the adjacency is never resident beyond
    the LRU window.

    Sharding is resolved in this order:

    1. a :class:`SpilledGraph` names its shards directly (``shard_digest``);
    2. an in-memory graph consults the store by content fingerprint
       (the ``repro cache shard`` warm path);
    3. on a miss the graph is sharded now and offered back — into the
       configured store when there is one, else into a private
       temporary store that :meth:`close` deletes.

    Shards planned at a larger ``shard_mb`` than this run's would break
    its resident bound: for an in-memory graph they are a miss, for a
    :class:`SpilledGraph` (no edges to re-shard) a :class:`StoreError`.
    A smaller plan is within the bound and is used as is.

    ``cold`` records which path ran (False only for path 1/2), so
    callers can verify pre-sharding actually avoided the build.
    """

    backend = "ooc"
    num_workers = 1
    last_dispatch = None
    #: Streaming never degrades (there is no pool to lose).
    degraded = False

    def __init__(
        self,
        graph: Graph,
        app,
        recorder=None,
        store: Optional[ArtifactStore] = None,
        shard_mb: Optional[float] = None,
        shard_cache: Optional[int] = None,
    ) -> None:
        self._app = app
        self._recorder = recorder
        self._shard_mb = resolve("shard_mb", shard_mb)
        self._capacity = resolve("shard_cache", shard_cache)
        self._superstep = 0
        self._tmp_root: Optional[str] = None

        store = store if store is not None else current().store
        if store is None:
            # No configured cache: stream through a private spill directory
            # (the point of ooc is bounded memory, not persistence).
            self._tmp_root = tempfile.mkdtemp(prefix="repro-ooc-")
            store = ArtifactStore(self._tmp_root, max_bytes=None)
        self._store = store

        self.cold = False
        opened = {}
        if isinstance(graph, SpilledGraph):
            digest = graph.shard_digest
        else:
            digest = str(graph_fingerprint(graph)["digest"])
            entry = store.get_shard_manifest(digest, "in")
            # Shards planned larger than this run's --shard-mb would
            # break its resident bound: re-shard them, like a miss.
            if entry is None or _planned_mb(entry) > self._shard_mb:
                self.cold = True
                store.put_sharded_graph(graph, self._shard_mb)
            else:
                opened["in"] = entry

        self._sharded: Dict[str, ShardedCSR] = {}
        for direction in ("in", "out"):
            # The warm path's existence probe is the "in" manifest.
            entry = opened.get(direction) or store.get_shard_manifest(
                digest, direction
            )
            if entry is None:
                raise StoreError(
                    "no %r shard manifest for digest %s" % (direction, digest)
                )
            if _planned_mb(entry) > self._shard_mb:
                # A spilled graph has no edges in memory to re-shard.
                raise StoreError(
                    "%r shards of digest %s were planned at %g MiB, above "
                    "this run's %g MiB shard size; re-spill them at that "
                    "size or less" % (direction, digest, _planned_mb(entry),
                                      self._shard_mb)
                )
            manifest, indptr = entry
            self._sharded[direction] = ShardedCSR(
                indptr,
                manifest,
                self._make_fetch(digest, direction),
            )
        self._stream = _ShardStream(self._sharded, self._capacity)
        # Row bounds per direction: shard k covers rows
        # [bounds[k], bounds[k+1]) — what searchsorted splits ids on.
        self._bounds = {
            d: sc.shard_bounds() for d, sc in self._sharded.items()
        }

        n = self._sharded["in"].num_vertices
        self.num_vertices = n
        self.in_degrees = self._sharded["in"].degrees()
        self.out_degrees = self._sharded["out"].degrees()
        self.values = np.zeros(n, dtype=np.float64)
        self.result = np.zeros(n, dtype=np.float64)
        self.improved = np.zeros(n, dtype=bool)
        self.telemetry = new_telemetry_block(1)
        self._epoch = 0

    def _make_fetch(self, digest: str, direction: str):
        def fetch(part: int) -> bytes:
            return self._store.get_shard_blob(digest, direction, part)

        return fetch

    # ------------------------------------------------------------------
    @property
    def current_epoch(self) -> int:
        """Phases dispatched so far (the sampler's staleness reference)."""
        return self._epoch

    @property
    def num_shards(self) -> Dict[str, int]:
        """Shard count per direction (diagnostics and tests)."""
        return {d: sc.num_shards for d, sc in self._sharded.items()}

    def _telemetry_phase(self, phase_id: int, tasks: int, edges: int,
                         kernel_ns: int) -> None:
        self._epoch += 1
        row = self.telemetry[0]
        telemetry_begin(row, self._epoch, phase_id)
        telemetry_advance(row, tasks, edges, kernel_ns, stolen=False)
        telemetry_end(row)

    def _emit_shard_io(self, phase: str, direction: str) -> None:
        shards, nbytes, hits, seconds = self._stream.drain_counters()
        rec = self._recorder
        if rec is None or not getattr(rec, "enabled", False):
            return
        rec.emit(
            trace_events.SHARD_IO,
            phase=phase,
            direction=direction,
            shards=shards,
            bytes=nbytes,
            cache_hits=hits,
            read_seconds=seconds,
            peak_rss_bytes=peak_rss_bytes(),
        )

    def _groups(self, direction: str, ids: np.ndarray):
        """Yield ``(part, ids_in_part)`` for a sorted id list.

        The sortedness precondition is what makes a searchsorted split
        hand each shard the rows serial would (and therefore the whole
        backend bit-identical to serial); it is cheap to check against
        an O(|E|) phase, so check it.

        Parts come from whichever end the stream still holds decoded
        (a sweep of ``S`` behind a cache of ``c < S`` then reads
        ``S - c``, not ``S``); callers whose output order matters key
        it by ``part``.
        """
        if ids.size == 0:
            return
        if ids.size > 1 and not np.all(ids[:-1] < ids[1:]):
            raise EngineError(
                "ooc dispatch requires strictly ascending task ids"
            )
        bounds = self._bounds[direction]
        splits = np.searchsorted(ids, bounds[1:-1])
        groups = np.split(ids, splits)
        parts = [p for p, g in enumerate(groups) if g.size]
        resident = self._stream.resident
        if resident(direction, parts[-1]) and not resident(direction, parts[0]):
            parts.reverse()
        for i, part in enumerate(parts):
            # Read-ahead: decode the next needed shard while the fused
            # kernel runs over this one.
            self._stream.announce(
                direction, parts[i + 1] if i + 1 < len(parts) else None
            )
            yield part, groups[part]

    # ------------------------------------------------------------------
    def pull_apply(self, ids: np.ndarray, aggregation: str) -> list:
        """Fused pull + improvement mask, streamed over in-shards."""
        self.improved[...] = False
        t0 = time.perf_counter_ns()
        edges = 0
        # Once per phase, not per shard.
        terms = self._app.source_terms(self.values)
        for part, group in self._groups("in", ids):
            shard = self._stream.get("in", part)
            edges += pull_apply_block(
                self._app, shard, self.in_degrees, self.values, group,
                aggregation, self.result, self.improved, terms,
            )
        self._telemetry_phase(
            PHASE_PULL, ids.size, edges, time.perf_counter_ns() - t0
        )
        self._emit_shard_io("pull", "in")
        return []

    def gather(self, ids: np.ndarray) -> list:
        """Arithmetic gather into a zeroed ``result``, streamed."""
        self.result[...] = 0.0
        t0 = time.perf_counter_ns()
        edges = 0
        # Once per phase, not per shard.
        terms = self._app.source_terms(self.values)
        for part, group in self._groups("in", ids):
            shard = self._stream.get("in", part)
            edges += gather_block(
                self._app, shard, self.in_degrees, self.values, group,
                self.result, terms,
            )
        self._telemetry_phase(
            PHASE_GATHER, ids.size, edges, time.perf_counter_ns() - t0
        )
        self._emit_shard_io("gather", "in")
        return []

    def push(self, ids: np.ndarray):
        """Push candidates of ``ids`` in serial expansion order.

        Each shard expands its slice of a sorted id list; concatenated
        by ascending shard, whatever order they were visited in, the
        expansions reproduce the full-CSR expansion byte for byte.
        """
        t0 = time.perf_counter_ns()
        dst_parts = {}
        cand_parts = {}
        # Once per phase, not per shard.
        terms = self._app.source_terms(self.values)
        for part, group in self._groups("out", ids):
            shard = self._stream.get("out", part)
            dst_parts[part], cand_parts[part] = push_candidates(
                self._app, shard, self.values, group, terms
            )
        dsts = _concat_by_part(dst_parts, np.int64)
        candidates = _concat_by_part(cand_parts, np.float64)
        self._telemetry_phase(
            PHASE_PUSH, ids.size, dsts.size, time.perf_counter_ns() - t0
        )
        self._emit_shard_io("push", "out")
        return dsts, candidates, self.out_degrees[ids], []

    def shard_decodes(self, direction: str, ids: np.ndarray) -> int:
        """Shards holding the sorted ``ids`` that are not decoded in the
        LRU now: what expanding them in ``direction`` would read."""
        cuts = np.searchsorted(ids, self._bounds[direction])
        return sum(
            not self._stream.resident(direction, int(part))
            for part in np.flatnonzero(np.diff(cuts))
        )

    def _expand_neighbors(self, direction: str, ids: np.ndarray) -> np.ndarray:
        """Concatenated ``direction``-neighbours of the sorted ``ids``,
        streamed from the shards that hold them."""
        parts = {}
        for part, group in self._groups(direction, ids):
            shard = self._stream.get(direction, part)
            parts[part] = expand_row_dsts(
                shard.indptr, shard.indices, group, shard.base
            )
        self._emit_shard_io("expand", direction)
        return _concat_by_part(parts, np.int64)

    def expand_out_dsts(self, ids: np.ndarray) -> np.ndarray:
        """Concatenated out-neighbours of ``ids``, streamed from the
        out-shards (frontier touch sets and push-side EC thaw)."""
        return self._expand_neighbors("out", ids)

    def expand_in_srcs(self, ids: np.ndarray) -> np.ndarray:
        """Concatenated in-neighbours of ``ids``, streamed from the
        in-shards (pull-side EC thaw): only the shards holding a frozen
        vertex are read."""
        return self._expand_neighbors("in", ids)

    # ------------------------------------------------------------------
    def begin_superstep(self, superstep: int) -> None:
        """Superstep clock for trace context (no pool to arm faults on)."""
        self._superstep = int(superstep)

    def detach_values(self) -> np.ndarray:
        """The values array, safe to own after ``close``."""
        return self.values

    def close(self) -> None:
        self._stream.close()
        if self._tmp_root is not None:
            shutil.rmtree(self._tmp_root, ignore_errors=True)
            self._tmp_root = None

    def __enter__(self) -> "ShardStreamDispatch":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
