"""Content-addressed on-disk cache for preprocessing artifacts.

The paper's amortisation argument (Section 6.2, Figure 8: ~8.7 jobs per
graph at Facebook) assumes the two preprocessing products — the
formatted binary graph and the RR guidance of Algorithm 1 — are
generated once and *reused* by every subsequent job on the same graph.
:class:`ArtifactStore` is that reuse layer:

* **Content addressing.**  Every entry is keyed by a canonical key
  string hashed to a filename.  Graph entries are keyed by their
  provenance spec (dataset key, scale divisor, weighted flag, generator
  version); guidance entries are keyed by the *content fingerprint* of
  the graph they were computed on (:func:`graph_fingerprint`: vertex
  and edge counts plus a streaming SHA-256 over the CSR arrays) plus
  the root set, the guidance variant (``unit``/``weighted``), and a
  format version.  A different graph, scale, or root set can therefore
  never be *looked up* into the wrong artifact.
* **Validated loads.**  Loading re-checks the stored metadata against
  the file contents — array shapes, dtypes, mutual consistency, and
  the recorded fingerprint against the graph the caller is holding —
  and raises :class:`repro.errors.StoreError` on any mismatch, so a
  tampered or mis-filed artifact surfaces as a typed error instead of
  a silently wrong answer.
* **Atomic writes.**  Payload and metadata are written to temporary
  files in the store directory and published with :func:`os.replace`,
  so a crash mid-write can never leave a truncated entry that a later
  job half-reads.  The payload is published before the metadata and an
  entry only *exists* once its metadata does, so every observable
  entry has a complete payload.
* **Bounded size.**  A size-capped LRU policy (``max_bytes``) evicts
  the least-recently-used entries after each write, keeping the cache
  directory bounded across arbitrarily many jobs.  Recency is the
  sidecar's mtime: a hit costs one ``utime``, never a rewrite.

An ambient store — :func:`install_store` / :func:`active_store`,
mirroring the trace recorder and fault-plan installation — lets the
CLI's ``--cache-dir`` flag reach :func:`repro.graph.datasets.load` and
:func:`repro.core.rrg.generate_guidance` without threading a parameter
through every experiment driver.  Cache traffic is observable: every
request emits a ``cache`` trace event (kind, outcome, bytes) that
:func:`repro.obs.metrics.populate_from_trace` projects into the
``repro_cache_events`` / ``repro_cache_bytes`` counter families, and
the store keeps an in-process :class:`CacheStats` tally.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
import zipfile
import zlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.rrg import RRGuidance, validate_guidance
from repro.errors import StoreError
from repro.graph.csr import CSR
from repro.graph.graph import Graph
from repro.trace import recorder as trace_events
from repro.trace.recorder import Recorder, active_recorder

__all__ = [
    "FORMAT_VERSION",
    "DEFAULT_MAX_BYTES",
    "CacheStats",
    "EntryInfo",
    "ArtifactStore",
    "graph_fingerprint",
    "graph_spec_key",
    "install_store",
    "uninstall_store",
    "active_store",
]

#: Bump when the on-disk layout or array schema changes; entries written
#: under a different version never load (they read as misses).
FORMAT_VERSION = 1

#: Default LRU size cap: 1 GiB, far above any stand-in working set but a
#: hard bound for long-lived cache directories.
DEFAULT_MAX_BYTES = 1 << 30

_HASH_CHUNK = 1 << 22


# ----------------------------------------------------------------------
# fingerprints and keys
# ----------------------------------------------------------------------
def _hash_array(digest, array: np.ndarray) -> None:
    """Feed one array into ``digest``: dtype, shape, then raw bytes.

    The bytes are streamed in fixed chunks so fingerprinting a large CSR
    (or its stride-0 unit weights) never materialises a copy of it.
    """
    arr = np.asarray(array)
    digest.update(str(arr.dtype).encode("utf-8"))
    digest.update(str(arr.shape).encode("utf-8"))
    flat, step = arr.reshape(-1), max(1, _HASH_CHUNK // arr.itemsize)
    for offset in range(0, flat.size, step):
        digest.update(flat[offset:offset + step].tobytes())


def graph_fingerprint(graph: Graph) -> Dict[str, object]:
    """Cheap content identity of a graph.

    ``num_vertices`` and ``num_edges`` plus a streaming SHA-256 over the
    out-CSR arrays (``indptr``, ``indices``, ``weights``).  Two graphs
    share a fingerprint iff their adjacency structure and weights are
    bit-identical — regardless of how either was produced (generator,
    edge-list file, binary file, or a previous cache load).
    """
    digest = hashlib.sha256()
    digest.update(b"repro-graph-fingerprint-v%d" % FORMAT_VERSION)
    out = graph.out_csr
    for array in (out.indptr, out.indices, out.weights):
        _hash_array(digest, array)
    return {
        "num_vertices": int(graph.num_vertices),
        "num_edges": int(graph.num_edges),
        "digest": digest.hexdigest(),
    }


def graph_spec_key(
    dataset: str, scale_divisor: int, weighted: bool, generator: str = "v1"
) -> str:
    """Canonical lookup key for a synthetic stand-in graph.

    Synthetic graphs are fully determined by their generator recipe
    (dataset key, scale divisor, weighted flag, generator version/seed
    scheme), so the store can answer "is this graph already formatted?"
    *before* building it — the whole point of caching the formatting
    step.
    """
    return "graph/%s/scale=%d/weighted=%d/gen=%s/v%d" % (
        dataset, scale_divisor, int(bool(weighted)), generator,
        FORMAT_VERSION,
    )


def _roots_digest(roots: np.ndarray) -> str:
    digest = hashlib.sha256()
    _hash_array(digest, np.sort(np.asarray(roots, dtype=np.int64)))
    return digest.hexdigest()[:16]


def _guidance_key(
    fingerprint: Dict[str, object], roots: np.ndarray, variant: str
) -> str:
    return "guidance/%s/roots=%s/variant=%s/v%d" % (
        fingerprint["digest"], _roots_digest(roots), variant,
        FORMAT_VERSION,
    )


def _filename_stem(key: str) -> str:
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:32]


#: An entry is a ``.json`` sidecar plus one payload: arrays as a
#: compressed ``.npz``, an already-compressed shard blob as itself.
_PAYLOAD_SUFFIXES = (".npz", ".bin")


def _entry_files(stem_path: str) -> List[str]:
    """Every file ``<stem_path>``'s entry may own, sidecar first — the
    order removal takes them in (the reverse of the publish order)."""
    return [stem_path + ".json"] + [
        stem_path + suffix for suffix in _PAYLOAD_SUFFIXES
    ]


# ----------------------------------------------------------------------
# store
# ----------------------------------------------------------------------
@dataclass
class CacheStats:
    """In-process tally of one store's traffic (also traced per event)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    corruptions: int = 0
    by_kind: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def count(self, kind: str, outcome: str) -> None:
        per_kind = self.by_kind.setdefault(
            kind,
            {"hit": 0, "miss": 0, "store": 0, "evict": 0, "corrupt": 0},
        )
        per_kind[outcome] = per_kind.get(outcome, 0) + 1
        attr = {
            "hit": "hits",
            "miss": "misses",
            "store": "stores",
            "evict": "evictions",
            "corrupt": "corruptions",
        }[outcome]
        setattr(self, attr, getattr(self, attr) + 1)

    def summary(self) -> str:
        return "%d hit(s), %d miss(es), %d store(s), %d eviction(s)" % (
            self.hits, self.misses, self.stores, self.evictions,
        )


@dataclass(frozen=True)
class EntryInfo:
    """One cache entry as listed by ``repro cache ls``."""

    kind: str
    key: str
    stem: str
    nbytes: int
    created: float
    last_used: float
    meta: Dict[str, object]


class ArtifactStore:
    """Persistent, validated cache of preprocessing artifacts.

    Parameters
    ----------
    root:
        Cache directory (created on first write).  Entries live under
        ``<root>/graphs``, ``<root>/guidance`` and ``<root>/shards`` as
        a payload (``.npz`` arrays, or a shard part's ``.bin`` blob)
        plus a ``.json`` metadata sidecar per entry.
    max_bytes:
        LRU size cap over all payloads and sidecars; ``None`` disables
        eviction.
    recorder:
        Trace sink for ``cache`` events.  When omitted, the ambient
        recorder (:func:`repro.trace.recorder.active_recorder`) is used
        at emit time, which is how CLI runs get cache traffic into
        their ``--metrics-out`` registry.
    """

    _KINDS = ("graph", "guidance", "shard")
    _DIRS = {"graph": "graphs", "guidance": "guidance", "shard": "shards"}

    def __init__(
        self,
        root: str,
        max_bytes: Optional[int] = DEFAULT_MAX_BYTES,
        recorder: Optional[Recorder] = None,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise StoreError("max_bytes must be positive or None")
        self.root = os.path.abspath(root)
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        self._recorder = recorder
        # One lock, one order, for every path that publishes or removes
        # entry files.  Without it a concurrent writer mid-publish (the
        # .npz landed, the .json hasn't) can race the LRU evictor into
        # unlinking the sidecar of a *different* generation, leaving an
        # orphaned payload that ls/info miscount and clear() never sees.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _rec(self) -> Recorder:
        return self._recorder if self._recorder is not None else active_recorder()

    def _emit(self, kind: str, outcome: str, key: str, nbytes: int = 0) -> None:
        self.stats.count(kind, outcome)
        recorder = self._rec()
        if recorder.enabled:
            recorder.emit(
                trace_events.CACHE,
                kind=kind, outcome=outcome, key=key, bytes=int(nbytes),
            )

    def _paths(self, kind: str, key: str, suffix: str = ".npz") -> tuple:
        stem = os.path.join(
            self.root, self._DIRS[kind], _filename_stem(key)
        )
        return stem + suffix, stem + ".json"

    @staticmethod
    def _atomic_write(path: str, write) -> int:
        """Publish what ``write(handle)`` produces at ``path`` (temp
        file, fsync, rename); returns the file's size."""
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                write(handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except OSError:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return os.path.getsize(path)

    def _read_meta(self, meta_path: str) -> Optional[Dict[str, object]]:
        try:
            with open(meta_path, "r", encoding="utf-8") as handle:
                meta = json.load(handle)
        except OSError:
            return None
        except ValueError as exc:
            raise StoreError(
                "corrupt cache metadata %s: %s" % (meta_path, exc)
            ) from exc
        if not isinstance(meta, dict):
            raise StoreError("corrupt cache metadata %s" % meta_path)
        return meta

    def _load_arrays(self, npz_path: str, meta: Dict[str, object]):
        """The entry's arrays, checked against the recorded schema."""
        schema = meta.get("arrays")
        if not isinstance(schema, dict) or not schema:
            raise StoreError("%s: metadata lists no arrays" % npz_path)
        try:
            with np.load(npz_path, allow_pickle=False) as data:
                arrays = {name: data[name] for name in schema}
        except OSError as exc:
            raise StoreError("cannot read %s: %s" % (npz_path, exc)) from exc
        except (KeyError, ValueError, zipfile.BadZipFile, zlib.error) as exc:
            raise StoreError(
                "corrupt cache payload %s: %s" % (npz_path, exc)
            ) from exc
        for name, spec in schema.items():
            array = arrays[name]
            if list(array.shape) != list(spec["shape"]):
                raise StoreError(
                    "%s: array %r has shape %s, expected %s"
                    % (npz_path, name, list(array.shape), spec["shape"])
                )
            if str(array.dtype) != spec["dtype"]:
                raise StoreError(
                    "%s: array %r has dtype %s, expected %s"
                    % (npz_path, name, array.dtype, spec["dtype"])
                )
        return arrays

    def _write_entry(
        self,
        kind: str,
        key: str,
        payload: Union[Dict[str, np.ndarray], bytes],
        extra: Dict[str, object],
    ) -> Dict[str, object]:
        """Publish one entry: ``payload`` is a dict of arrays (stored
        as ``.npz``) or a ready-made blob (stored as ``.bin``)."""
        is_blob = isinstance(payload, bytes)
        payload_path, meta_path = self._paths(
            kind, key, ".bin" if is_blob else ".npz"
        )

        def write_payload(handle) -> None:
            if is_blob:
                handle.write(payload)
            else:
                np.savez_compressed(handle, **payload)

        # Publish (payload, then metadata) and evict under the same
        # lock, in the same order the evictor takes it: an eviction can
        # then never interleave between the two renames and orphan a
        # half-published entry.
        with self._lock:
            nbytes = self._atomic_write(payload_path, write_payload)
            now = time.time()
            meta = {
                "format_version": FORMAT_VERSION,
                "kind": kind,
                "key": key,
                "created": now,
                "last_used": now,
                "nbytes": nbytes,
            }
            if not is_blob:
                meta["arrays"] = {
                    name: {"shape": list(a.shape), "dtype": str(a.dtype)}
                    for name, a in payload.items()
                }
            meta.update(extra)
            sidecar = json.dumps(meta, indent=1, sort_keys=True).encode("utf-8")
            self._atomic_write(meta_path, lambda handle: handle.write(sidecar))
            self._emit(kind, "store", key, nbytes)
            self._evict_over_cap(keep=_filename_stem(key))
        return meta

    @staticmethod
    def _touch(meta_path: str) -> None:
        """Refresh LRU recency: a sidecar's mtime is its ``last_used``.
        The time is passed explicitly because the kernel's own "now"
        is a jiffy coarse and could order a hit before an earlier write.
        """
        now = time.time_ns()
        try:
            os.utime(meta_path, ns=(now, now))
        except OSError:
            pass  # LRU freshness is best-effort; the hit still stands

    def _open_entry(self, kind: str, key: str):
        """(arrays, meta) for ``key``, or None on a miss.

        Raises :class:`StoreError` when the entry exists but fails any
        validation — corrupt payload, schema mismatch, version skew is
        the one exception (treated as a miss, since old entries after a
        format bump are expected, not suspicious).
        """
        npz_path, meta_path = self._paths(kind, key)
        meta = self._read_meta(meta_path)
        if meta is None:
            self._emit(kind, "miss", key)
            return None
        if meta.get("format_version") != FORMAT_VERSION:
            self._emit(kind, "miss", key)
            return None
        if meta.get("kind") != kind or meta.get("key") != key:
            raise StoreError(
                "%s: metadata describes %r/%r, expected %r/%r"
                % (meta_path, meta.get("kind"), meta.get("key"), kind, key)
            )
        if not os.path.exists(npz_path):
            raise StoreError(
                "%s: metadata present but payload %s is missing"
                % (meta_path, npz_path)
            )
        arrays = self._load_arrays(npz_path, meta)
        self._touch(meta_path)
        return arrays, meta

    # ------------------------------------------------------------------
    # graphs
    # ------------------------------------------------------------------
    def put_graph(
        self,
        spec_key: str,
        graph: Graph,
        source: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        """Store a formatted graph under its provenance ``spec_key``."""
        fingerprint = graph_fingerprint(graph)
        return self._write_entry(
            "graph",
            spec_key,
            {
                "indptr": graph.out_csr.indptr,
                "indices": graph.out_csr.indices,
                "weights": graph.out_csr.weights,
            },
            {
                "fingerprint": fingerprint,
                "name": graph.name,
                "source": source or {},
            },
        )

    def get_graph(self, spec_key: str) -> Optional[Graph]:
        """Load a formatted graph, or ``None`` on a miss.

        The loaded arrays are re-fingerprinted and checked against the
        recorded fingerprint, so a flipped byte anywhere in the payload
        is a :class:`StoreError`, never a silently different graph.
        """
        entry = self._open_entry("graph", spec_key)
        if entry is None:
            return None
        arrays, meta = entry
        try:
            graph = Graph(
                CSR(arrays["indptr"], arrays["indices"], arrays["weights"]),
                name=str(meta.get("name", "")),
            )
        except Exception as exc:
            raise StoreError(
                "cache entry %r is not a valid CSR: %s" % (spec_key, exc)
            ) from exc
        fingerprint = graph_fingerprint(graph)
        recorded = meta.get("fingerprint") or {}
        if fingerprint != recorded:
            raise StoreError(
                "cache entry %r failed its integrity check "
                "(stored fingerprint %s, loaded content %s)"
                % (spec_key, recorded.get("digest"), fingerprint["digest"])
            )
        self._emit("graph", "hit", spec_key, int(meta.get("nbytes", 0)))
        return graph

    # ------------------------------------------------------------------
    # guidance
    # ------------------------------------------------------------------
    def put_guidance(
        self,
        graph: Graph,
        guidance: RRGuidance,
        variant: str = "unit",
    ) -> Dict[str, object]:
        """Store RR guidance keyed by ``graph``'s content fingerprint."""
        if guidance.num_vertices != graph.num_vertices:
            raise StoreError(
                "guidance covers %d vertices but the graph has %d"
                % (guidance.num_vertices, graph.num_vertices)
            )
        fingerprint = graph_fingerprint(graph)
        key = _guidance_key(fingerprint, guidance.roots, variant)
        return self._write_entry(
            "guidance",
            key,
            {
                "last_iter": guidance.last_iter,
                "visited": guidance.visited,
                "bfs_dist": guidance.bfs_dist,
                "roots": guidance.roots,
            },
            {
                "fingerprint": fingerprint,
                "variant": variant,
                "graph_name": graph.name,
                "num_iterations": int(guidance.num_iterations),
                "edge_ops": int(guidance.edge_ops),
            },
        )

    def get_guidance(
        self,
        graph: Graph,
        roots: np.ndarray,
        variant: str = "unit",
    ) -> Optional[RRGuidance]:
        """Load guidance for ``graph``/``roots``, or ``None`` on a miss.

        Validation covers the array schema, the guidance invariants
        (:func:`repro.core.rrg.validate_guidance`), and the recorded
        graph fingerprint against the graph the caller is actually
        holding — guidance saved for a different graph, scale divisor,
        or root set is a typed :class:`StoreError` (when mis-filed) or
        a clean miss (when keyed honestly), never a wrong answer.

        The returned guidance reports ``edge_ops`` as stored (the
        generation cost); callers accounting for *this* job's work
        should zero it — a cache hit performs no edge scans.
        """
        fingerprint = graph_fingerprint(graph)
        key = _guidance_key(fingerprint, np.asarray(roots, np.int64), variant)
        entry = self._open_entry("guidance", key)
        if entry is None:
            return None
        arrays, meta = entry
        recorded = meta.get("fingerprint") or {}
        if recorded != fingerprint:
            raise StoreError(
                "guidance entry %r was saved for a different graph "
                "(stored %s |V|=%s |E|=%s, current %s |V|=%d |E|=%d)"
                % (
                    key,
                    recorded.get("digest"), recorded.get("num_vertices"),
                    recorded.get("num_edges"),
                    fingerprint["digest"], graph.num_vertices,
                    graph.num_edges,
                )
            )
        guidance = RRGuidance(
            last_iter=arrays["last_iter"],
            visited=arrays["visited"],
            bfs_dist=arrays["bfs_dist"],
            num_iterations=int(meta.get("num_iterations", 0)),
            edge_ops=int(meta.get("edge_ops", 0)),
            roots=arrays["roots"],
        )
        validate_guidance(
            guidance,
            num_vertices=graph.num_vertices,
            error=StoreError,
            source="cache entry %r" % key,
        )
        self._emit("guidance", "hit", key, int(meta.get("nbytes", 0)))
        return guidance

    # ------------------------------------------------------------------
    # edge shards (out-of-core backend)
    # ------------------------------------------------------------------
    @staticmethod
    def _shard_manifest_key(digest: str, direction: str) -> str:
        from repro.graph.shards import SHARD_FORMAT_VERSION

        return "shard/%s/%s/manifest/v%d" % (
            digest, direction, SHARD_FORMAT_VERSION,
        )

    @staticmethod
    def _shard_part_key(digest: str, direction: str, part: int) -> str:
        from repro.graph.shards import SHARD_FORMAT_VERSION

        return "shard/%s/%s/part/%06d/v%d" % (
            digest, direction, int(part), SHARD_FORMAT_VERSION,
        )

    def put_shard_manifest(
        self,
        digest: str,
        direction: str,
        manifest: Dict[str, object],
        indptr: np.ndarray,
    ) -> Dict[str, object]:
        """Store a shard manifest + its ``indptr`` for one direction.

        ``direction`` is ``"in"`` (incoming adjacency: rows are
        destinations — what pull/gather stream) or ``"out"`` (rows are
        sources — what push and thaw expansion stream).
        """
        if direction not in ("in", "out"):
            raise StoreError("unknown shard direction %r" % (direction,))
        return self._write_entry(
            "shard",
            self._shard_manifest_key(digest, direction),
            {"indptr": np.asarray(indptr, np.int64)},
            {"manifest": manifest, "digest": digest, "direction": direction},
        )

    def get_shard_manifest(
        self, digest: str, direction: str
    ) -> Optional[Tuple[Dict[str, object], np.ndarray]]:
        """(manifest, indptr) for a sharded direction, or ``None``.

        The manifest is re-validated against the loaded ``indptr``
        before being returned, so a corrupted shard table is a typed
        :class:`StoreError`, never a mis-streamed superstep.
        """
        from repro.graph import shards as shard_fmt

        key = self._shard_manifest_key(digest, direction)
        entry = self._open_entry("shard", key)
        if entry is None:
            return None
        arrays, meta = entry
        manifest = meta.get("manifest")
        if not isinstance(manifest, dict):
            raise StoreError("shard entry %r has no manifest" % key)
        indptr = np.asarray(arrays["indptr"], np.int64)
        shard_fmt.validate_manifest(
            manifest, indptr, source="cache entry %r" % key
        )
        self._emit("shard", "hit", key, int(meta.get("nbytes", 0)))
        return manifest, indptr

    def put_shard_blob(
        self,
        digest: str,
        direction: str,
        part: int,
        blob: bytes,
        shard_meta: Dict[str, object],
    ) -> Dict[str, object]:
        """Store one compressed shard payload, as itself: it is already
        compressed and the manifest carries its length and checksum."""
        return self._write_entry(
            "shard",
            self._shard_part_key(digest, direction, part),
            bytes(blob),
            {"shard": shard_meta, "digest": digest, "direction": direction},
        )

    def get_shard_blob(self, digest: str, direction: str, part: int) -> bytes:
        """The compressed payload for shard ``part``.

        Unlike the graph/guidance getters this never returns ``None``:
        a caller only asks for a part after loading the manifest that
        promises it, so a missing or evicted part is a hole in the
        sharded graph — a typed :class:`StoreError`.  The bytes are
        returned as read: :func:`repro.graph.shards.decode_shard`
        checks every one of them against the validated manifest.
        """
        key = self._shard_part_key(digest, direction, part)
        blob_path, meta_path = self._paths("shard", key, ".bin")
        try:
            with open(blob_path, "rb") as handle:
                blob = handle.read()
        except OSError as exc:
            self._emit("shard", "miss", key)
            raise StoreError(
                "shard part %r is missing from the store (evicted or never "
                "written); re-shard with `repro cache shard` [%s]" % (key, exc)
            ) from exc
        self._touch(meta_path)
        self._emit("shard", "hit", key, len(blob))
        return blob

    def put_shard_alias(self, spec_key: str, digest: str) -> Dict[str, object]:
        """Map a dataset spec key to a sharded graph's content digest,
        so `repro cache shard` warm-ups are findable without rebuilding
        the graph just to fingerprint it."""
        return self._write_entry(
            "shard",
            "shard/alias/%s" % spec_key,
            {
                "digest_utf8": np.frombuffer(
                    digest.encode("utf-8"), dtype=np.uint8
                )
            },
            {"alias_digest": digest},
        )

    def get_shard_alias(self, spec_key: str) -> Optional[str]:
        entry = self._open_entry("shard", "shard/alias/%s" % spec_key)
        if entry is None:
            return None
        _, meta = entry
        digest = meta.get("alias_digest")
        if not isinstance(digest, str) or not digest:
            raise StoreError(
                "shard alias for %r has no digest" % (spec_key,)
            )
        return digest

    def put_sharded_graph(
        self,
        graph: Graph,
        shard_mb: float,
        spec_key: Optional[str] = None,
    ) -> str:
        """Shard ``graph`` (both directions) into the store.

        Returns the graph's content digest, under which the manifests
        and parts are keyed.  Idempotent: re-sharding the same graph at
        the same format version overwrites byte-identical entries.
        """
        from repro.graph import shards as shard_fmt

        digest = str(graph_fingerprint(graph)["digest"])
        for direction, csr in (("in", graph.in_csr), ("out", graph.out_csr)):
            manifest, blobs = shard_fmt.build_shards(csr, shard_mb)
            # Carried so a spilled reopen can name the graph without
            # ever materialising it (validate_manifest ignores extras).
            manifest["graph_name"] = graph.name
            for entry, blob in zip(manifest["shards"], blobs):
                self.put_shard_blob(
                    digest, direction, int(entry["part"]), blob, entry
                )
            # Manifest last: its presence promises every part above.
            self.put_shard_manifest(digest, direction, manifest, csr.indptr)
        if spec_key is not None:
            self.put_shard_alias(spec_key, digest)
        return digest

    # ------------------------------------------------------------------
    # lenient consult (regenerate-on-corruption) helpers
    # ------------------------------------------------------------------
    def consult_graph(self, spec_key: str) -> Optional[Graph]:
        """:meth:`get_graph`, but a corrupt entry is dropped and reads
        as a miss (with a warning) instead of failing the job — the
        cache must never make a run *less* reliable than no cache."""
        try:
            return self.get_graph(spec_key)
        except StoreError as exc:
            self._discard_corrupt("graph", spec_key, exc)
            return None

    def consult_guidance(
        self, graph: Graph, roots: np.ndarray, variant: str = "unit"
    ) -> Optional[RRGuidance]:
        """:meth:`get_guidance` with the same drop-and-warn policy, and
        with ``edge_ops`` zeroed: a hit performs no edge scans *in this
        job*, which is exactly the amortisation being measured."""
        try:
            cached = self.get_guidance(graph, roots, variant)
        except StoreError as exc:
            key = _guidance_key(
                graph_fingerprint(graph), np.asarray(roots, np.int64), variant
            )
            self._discard_corrupt("guidance", key, exc)
            return None
        if cached is None:
            return None
        return replace(cached, edge_ops=0)

    def offer_graph(
        self,
        spec_key: str,
        graph: Graph,
        source: Optional[Dict[str, object]] = None,
    ) -> bool:
        """:meth:`put_graph`, but a failed write (disk full, read-only
        cache directory) is a warning, not a job failure."""
        try:
            self.put_graph(spec_key, graph, source=source)
            return True
        except OSError as exc:
            self._warn_write_failure("graph", spec_key, exc)
            return False

    def offer_guidance(
        self, graph: Graph, guidance: RRGuidance, variant: str = "unit"
    ) -> bool:
        """:meth:`put_guidance` with the same best-effort semantics."""
        try:
            self.put_guidance(graph, guidance, variant=variant)
            return True
        except OSError as exc:
            self._warn_write_failure("guidance", variant, exc)
            return False

    @staticmethod
    def _warn_write_failure(kind: str, key: str, exc: OSError) -> None:
        import warnings

        warnings.warn(
            "could not cache %s %r: %s" % (kind, key, exc),
            RuntimeWarning,
            stacklevel=3,
        )

    def _discard_corrupt(self, kind: str, key: str, exc: StoreError) -> None:
        import warnings

        self._emit(kind, "corrupt", key)
        warnings.warn(
            "dropping corrupt %s cache entry: %s" % (kind, exc),
            RuntimeWarning,
            stacklevel=3,
        )
        for path in self._paths(kind, key):
            try:
                os.unlink(path)
            except OSError:
                pass

    # ------------------------------------------------------------------
    # management (ls / info / clear / eviction)
    # ------------------------------------------------------------------
    def entries(self) -> List[EntryInfo]:
        """All valid entries, most recently used first."""
        found: List[EntryInfo] = []
        for kind in self._KINDS:
            directory = os.path.join(self.root, self._DIRS[kind])
            if not os.path.isdir(directory):
                continue
            for name in sorted(os.listdir(directory)):
                if not name.endswith(".json"):
                    continue
                meta_path = os.path.join(directory, name)
                try:
                    meta = self._read_meta(meta_path)
                except StoreError:
                    continue
                if meta is None or meta.get("kind") != kind:
                    continue
                # A hit moves the sidecar's mtime; the JSON field still
                # counts for entries whose hits older code wrote into it.
                meta["last_used"] = max(
                    os.path.getmtime(meta_path),
                    float(meta.get("last_used", 0.0)),
                )
                found.append(
                    EntryInfo(
                        kind=kind,
                        key=str(meta.get("key", "")),
                        stem=name[: -len(".json")],
                        nbytes=sum(
                            os.path.getsize(path)
                            for path in _entry_files(meta_path[: -len(".json")])
                            if os.path.exists(path)
                        ),
                        created=float(meta.get("created", 0.0)),
                        last_used=meta["last_used"],
                        meta=meta,
                    )
                )
        found.sort(key=lambda entry: entry.last_used, reverse=True)
        return found

    def find(self, prefix: str) -> List[EntryInfo]:
        """Entries whose logical key or filename stem starts with ``prefix``."""
        return [
            entry
            for entry in self.entries()
            if entry.key.startswith(prefix) or entry.stem.startswith(prefix)
        ]

    def total_bytes(self) -> int:
        return sum(entry.nbytes for entry in self.entries())

    def clear(self) -> int:
        """Remove every entry (plus orphans); returns how many went.

        Counts removed *entries*; orphaned payloads swept on the way out
        are reported separately by :meth:`sweep_orphans` (which this
        calls) and are included in the return value so ``repro cache
        clear`` leaves a genuinely empty store.
        """
        with self._lock:
            removed = 0
            for entry in self.entries():
                if self._remove_entry(entry):
                    removed += 1
            removed += self.sweep_orphans()
        return removed

    def sweep_orphans(self) -> int:
        """Unlink payloads with no metadata sidecar (and stale temps).

        An orphan can only be produced by a crash between the two
        publish renames or by pre-fix eviction races; either way it is
        invisible to :meth:`entries` (which scans ``.json`` sidecars),
        silently miscounted by ``ls``/``info`` disk totals, and never
        reclaimed by LRU eviction.  Returns the number of files removed.
        """
        removed = 0
        with self._lock:
            for kind in self._KINDS:
                directory = os.path.join(self.root, self._DIRS[kind])
                if not os.path.isdir(directory):
                    continue
                for name in sorted(os.listdir(directory)):
                    path = os.path.join(directory, name)
                    stem_path, suffix = os.path.splitext(path)
                    orphan = suffix in _PAYLOAD_SUFFIXES and not (
                        os.path.exists(stem_path + ".json")
                    )
                    if not (orphan or suffix == ".tmp"):
                        continue
                    try:
                        os.unlink(path)
                        removed += 1
                    except OSError:
                        pass
        return removed

    def _remove_entry(self, entry: EntryInfo) -> bool:
        directory = os.path.join(self.root, self._DIRS[entry.kind])
        removed = False
        # Metadata first — the exact reverse of the publish order.  An
        # entry stops being observable before its payload disappears,
        # so no reader can ever see a sidecar whose payload is gone.
        with self._lock:
            for path in _entry_files(os.path.join(directory, entry.stem)):
                try:
                    os.unlink(path)
                    removed = True
                except OSError:
                    pass
        return removed

    def _evict_over_cap(self, keep: Optional[str] = None) -> int:
        """LRU eviction down to ``max_bytes``; returns entries evicted.

        The just-written entry (stem ``keep``) is only evicted when it alone
        exceeds the cap — the cap is a hard bound, not a suggestion.
        Runs under the store lock (the same one writers hold across
        their publish renames), so eviction can never observe — or
        create — a half-published entry.
        """
        if self.max_bytes is None:
            return 0
        with self._lock:
            entries = self.entries()
            total = sum(entry.nbytes for entry in entries)
            evicted = 0
            # entries() is MRU-first; evict from the tail (least recently
            # used) until the cap is met, sparing the just-written entry.
            for entry in reversed(entries):
                if total <= self.max_bytes:
                    return evicted
                if entry.stem == keep:
                    continue
                if self._remove_entry(entry):
                    total -= entry.nbytes
                    evicted += 1
                    self._emit(entry.kind, "evict", entry.key, entry.nbytes)
            if total > self.max_bytes:
                # Only the kept entry remains and it alone exceeds the
                # cap: the cap is a hard bound, so it goes too.
                for entry in self.entries():
                    if self._remove_entry(entry):
                        evicted += 1
                        self._emit(
                            entry.kind, "evict", entry.key, entry.nbytes
                        )
            return evicted


# ----------------------------------------------------------------------
# ambient installation (mirrors repro.trace.recorder.install)
# ----------------------------------------------------------------------
_INSTALLED: Optional[ArtifactStore] = None


def install_store(store: Optional[ArtifactStore]) -> Optional[ArtifactStore]:
    """Set the ambient artifact store; returns the previous one.

    :func:`repro.graph.datasets.load` and
    :func:`repro.core.rrg.generate_guidance` consult the installed
    store when the caller passes none, which is how the CLI's
    ``--cache-dir`` flag reaches code built deep inside experiment
    drivers without new plumbing.
    """
    global _INSTALLED
    previous = _INSTALLED
    _INSTALLED = store
    return previous


def uninstall_store() -> None:
    """Remove the ambient store (back to cache-off behaviour)."""
    install_store(None)


def active_store() -> Optional[ArtifactStore]:
    """The ambient store, or ``None`` when caching is off."""
    return _INSTALLED
