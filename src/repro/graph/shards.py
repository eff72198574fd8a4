"""Sharded CSR edge format for out-of-core streaming.

GraphD-style out-of-core execution ("Efficient Processing of Very Large
Graphs in a Small Cluster") keeps only compact per-vertex state resident
and streams edges from disk.  This module defines the on-disk edge
format that makes that possible here:

* A CSR's rows are split into **contiguous row-range shards** — for the
  incoming adjacency a row is a destination, so a shard covers a
  contiguous destination range.  A shard NEVER splits a row's edge run
  (the same invariant as the parallel backend's chunker), which is what
  makes shard-at-a-time execution of the fused kernels in
  :mod:`repro.core.runtime` bit-identical to serial by construction:
  every per-destination grouped reduction sees exactly the edge block it
  would see in one full-CSR pass.
* Each shard's edge payload (``indices`` then ``weights``, raw
  little-endian bytes; ``indices`` alone if every weight is 1.0) is
  compressed — zstandard when the optional module is importable, zlib
  otherwise — and carries a SHA-256 checksum of the compressed blob
  plus its exact decoded size, so truncation and bit-flips surface as
  typed :class:`repro.errors.StoreError`\\ s, never as a silently
  different graph.
* A JSON-able **manifest** records the shard table (row range, global
  edge base, edge count, checksum, codec, sizes); the ``indptr`` array
  (O(|V|+1), the only per-vertex edge metadata) travels beside it.

Persistence of manifests and blobs is the artifact store's job
(:class:`repro.store.ArtifactStore`, kind ``"shard"``); streaming them
through a superstep is :mod:`repro.ooc`'s.  This module is pure format.
"""

from __future__ import annotations

import hashlib
import zlib
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import StoreError
from repro.graph.csr import CSR, expand_rows, is_unit, unit_view

__all__ = [
    "SHARD_FORMAT_VERSION",
    "EDGE_BYTES",
    "available_codec",
    "plan_shards",
    "encode_shard",
    "decode_shard",
    "build_shards",
    "validate_manifest",
    "ShardSlice",
    "ShardedCSR",
]

#: Bump when the blob layout, the manifest schema or how the store files
#: a part changes: the version is in every store key, so shards of
#: another version read as a miss and are re-sharded cold.  v2: a part
#: is the compressed blob itself (``.bin``), not an ``.npz`` around it.
#: v3: a shard of unit weights stores no weights (``unit_weights``).
SHARD_FORMAT_VERSION = 3

#: Raw bytes per edge a shard is planned at: int64 neighbour + float64 weight.
EDGE_BYTES = 16

try:  # optional, never installed here — gate, don't require
    import zstandard as _zstd
except ImportError:  # pragma: no cover - environment-dependent
    _zstd = None


def available_codec() -> str:
    """The best codec this interpreter can use (``zstd`` or ``zlib``)."""
    return "zstd" if _zstd is not None else "zlib"


def _compress(raw: bytes, codec: str) -> bytes:
    if codec == "zlib":
        return zlib.compress(raw, 6)
    if codec == "zstd":
        if _zstd is None:
            raise StoreError("shard codec 'zstd' requested but zstandard is not importable")
        return _zstd.ZstdCompressor().compress(raw)
    raise StoreError("unknown shard codec %r" % (codec,))


def _decompress(blob: bytes, codec: str, expected: int) -> bytes:
    if codec == "zlib":
        try:
            return zlib.decompress(blob)
        except zlib.error as exc:
            raise StoreError("corrupt shard payload: %s" % (exc,)) from exc
    if codec == "zstd":
        if _zstd is None:
            raise StoreError(
                "shard was written with codec 'zstd' but zstandard is "
                "not importable here"
            )
        try:  # pragma: no cover - zstd absent in the baked image
            return _zstd.ZstdDecompressor().decompress(
                blob, max_output_size=expected
            )
        except Exception as exc:
            raise StoreError("corrupt shard payload: %s" % (exc,)) from exc
    raise StoreError("unknown shard codec %r" % (codec,))


def plan_shards(indptr: np.ndarray, shard_mb: float) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` row ranges of ~``shard_mb`` MiB of edges.

    Cuts land only on row boundaries: a row's whole edge run always sits
    inside one shard.  A single row larger than the budget gets a shard
    of its own (the budget is a target, the invariant is a guarantee).
    An empty graph yields an empty shard table.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    n = indptr.size - 1
    if n <= 0:
        return []
    budget = max(1, int(float(shard_mb) * (1 << 20)) // EDGE_BYTES)
    bounds: List[Tuple[int, int]] = []
    lo = 0
    while lo < n:
        target = int(indptr[lo]) + budget
        hi = int(np.searchsorted(indptr, target, side="right")) - 1
        hi = min(max(hi, lo + 1), n)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def encode_shard(indices: np.ndarray, weights: np.ndarray, codec: Optional[str] = None) -> Tuple[bytes, Dict[str, object]]:
    """Compress one shard's edge arrays; returns ``(blob, meta)``.

    ``meta`` carries everything :func:`decode_shard` needs to validate:
    the codec, edge count, whether the weights are unit (then not
    stored), raw and compressed byte sizes, and the SHA-256 of the
    compressed blob.
    """
    codec = codec or available_codec()
    indices = np.ascontiguousarray(indices, dtype="<i8")
    weights = np.asarray(weights, dtype="<f8")
    if indices.shape != weights.shape:
        raise StoreError("shard indices and weights must align")
    unit = is_unit(weights)
    raw = indices.tobytes() + (b"" if unit else weights.tobytes())
    blob = _compress(raw, codec)
    return blob, {
        "codec": codec,
        "edges": int(indices.size),
        "unit_weights": unit,
        "raw_bytes": len(raw),
        "blob_bytes": len(blob),
        "checksum": hashlib.sha256(blob).hexdigest(),
    }


def decode_shard(blob: bytes, meta: Dict[str, object]) -> Tuple[np.ndarray, np.ndarray]:
    """Checksum-verify and decompress one shard blob back to arrays.

    Every failure mode — wrong length, flipped bit, truncated stream,
    raw size mismatch — is a typed :class:`StoreError` naming what
    diverged.  Both arrays are read-only views of the one decoded
    buffer (unit weights: :func:`~repro.graph.csr.unit_view`): nothing
    downstream writes through a shard.
    """
    expected_blob = int(meta.get("blob_bytes", -1))
    if len(blob) != expected_blob:
        raise StoreError(
            "shard blob is %d bytes, manifest says %d (truncated?)"
            % (len(blob), expected_blob)
        )
    digest = hashlib.sha256(blob).hexdigest()
    if digest != meta.get("checksum"):
        raise StoreError(
            "shard checksum mismatch: stored %s, read %s"
            % (meta.get("checksum"), digest)
        )
    edges = int(meta.get("edges", -1))
    unit = meta.get("unit_weights") is True
    expected = edges * (8 if unit else EDGE_BYTES)
    raw = _decompress(blob, str(meta.get("codec", "")), expected)
    if len(raw) != expected or len(raw) != int(meta.get("raw_bytes", -1)):
        raise StoreError(
            "shard decoded to %d bytes, expected %d" % (len(raw), expected)
        )
    indices = np.frombuffer(raw, dtype="<i8", count=edges).astype(np.int64, copy=False)
    if unit:
        return indices, unit_view(edges)
    weights = np.frombuffer(raw, dtype="<f8", count=edges, offset=edges * 8).astype(np.float64, copy=False)
    return indices, weights


def build_shards(csr: CSR, shard_mb: float, codec: Optional[str] = None) -> Tuple[Dict[str, object], List[bytes]]:
    """Split ``csr`` into shards; returns ``(manifest, blobs)`` aligned.

    The manifest is JSON-ready; ``blobs[i]`` is the compressed payload
    of ``manifest["shards"][i]``.
    """
    codec = codec or available_codec()
    shards: List[Dict[str, object]] = []
    blobs: List[bytes] = []
    for part, (lo, hi) in enumerate(plan_shards(csr.indptr, shard_mb)):
        base = int(csr.indptr[lo])
        end = int(csr.indptr[hi])
        blob, meta = encode_shard(
            csr.indices[base:end], csr.weights[base:end], codec
        )
        meta.update({"part": part, "lo": int(lo), "hi": int(hi), "base": base})
        shards.append(meta)
        blobs.append(blob)
    manifest = {
        "format_version": SHARD_FORMAT_VERSION,
        "codec": codec,
        "num_vertices": int(csr.num_vertices),
        "num_edges": int(csr.num_edges),
        "shard_mb": float(shard_mb),
        "shards": shards,
    }
    return manifest, blobs


def validate_manifest(manifest: Dict[str, object], indptr: np.ndarray, source: str = "shard manifest") -> Dict[str, object]:
    """Check a manifest against its indptr; raises :class:`StoreError`.

    Verifies the version, that the shard table tiles ``[0, |V|)`` with
    no gap or overlap, and that every shard's edge count and base match
    ``indptr`` — the invariants the streaming dispatch relies on.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    n = indptr.size - 1
    if manifest.get("format_version") != SHARD_FORMAT_VERSION:
        raise StoreError(
            "%s: format version %r, expected %d"
            % (source, manifest.get("format_version"), SHARD_FORMAT_VERSION)
        )
    if int(manifest.get("num_vertices", -1)) != n:
        raise StoreError(
            "%s: covers %r vertices but indptr describes %d"
            % (source, manifest.get("num_vertices"), n)
        )
    if int(manifest.get("num_edges", -1)) != int(indptr[-1]):
        raise StoreError(
            "%s: covers %r edges but indptr describes %d"
            % (source, manifest.get("num_edges"), int(indptr[-1]))
        )
    shards = manifest.get("shards")
    if not isinstance(shards, list) or (n > 0 and not shards):
        raise StoreError("%s: missing shard table" % source)
    expect_lo = 0
    for entry in shards:
        lo, hi = int(entry["lo"]), int(entry["hi"])
        if lo != expect_lo or hi <= lo or hi > n:
            raise StoreError(
                "%s: shard %r covers [%d, %d), expected to start at %d"
                % (source, entry.get("part"), lo, hi, expect_lo)
            )
        if int(entry["base"]) != int(indptr[lo]):
            raise StoreError(
                "%s: shard %r base %r disagrees with indptr"
                % (source, entry.get("part"), entry.get("base"))
            )
        if int(entry["edges"]) != int(indptr[hi] - indptr[lo]):
            raise StoreError(
                "%s: shard %r edge count %r disagrees with indptr"
                % (source, entry.get("part"), entry.get("edges"))
            )
        expect_lo = hi
    if n > 0 and expect_lo != n:
        raise StoreError(
            "%s: shard table ends at row %d, expected %d"
            % (source, expect_lo, n)
        )
    return manifest


class ShardSlice:
    """One decoded shard, addressable by *global* row ids.

    Exposes exactly the surface the fused kernels consume —
    ``expand_sources(ids)`` and ``indptr`` — so
    :func:`repro.core.runtime.pull_apply_block` and friends run verbatim
    against a shard.  ``indptr`` is the full global array (shared,
    O(|V|)); only this shard's edge arrays, offset by ``base``, are
    resident.  Callers must pass row ids inside ``[lo, hi)``.
    """

    __slots__ = ("lo", "hi", "base", "indptr", "indices", "weights")

    def __init__(self, lo: int, hi: int, base: int, indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray) -> None:
        self.lo = int(lo)
        self.hi = int(hi)
        self.base = int(base)
        self.indptr = indptr
        self.indices = indices
        self.weights = weights

    def expand_sources(self, vertices: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`repro.graph.csr.CSR.expand_sources`, shard-local edges.

        Identical output to the full CSR's method for any ``vertices``
        within this shard's row range, because a shard never splits a
        row's edge run.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        counts, sel = expand_rows(self.indptr, vertices, self.base)
        return np.repeat(vertices, counts), self.indices[sel], self.weights[sel]


class ShardedCSR:
    """A CSR whose edge arrays live in shards behind a blob fetcher.

    Parameters
    ----------
    indptr:
        Full global row-pointer array (the O(|V|) resident metadata).
    manifest:
        Manifest as produced by :func:`build_shards`; validated here.
    fetch:
        ``fetch(part) -> bytes``: the compressed blob of shard ``part``
        (typically a closure over an :class:`repro.store.ArtifactStore`).
    """

    __slots__ = ("indptr", "manifest", "_fetch")

    def __init__(self, indptr: np.ndarray, manifest: Dict[str, object], fetch: Callable[[int], bytes]) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.manifest = validate_manifest(manifest, self.indptr)
        self._fetch = fetch

    @property
    def num_vertices(self) -> int:
        return self.indptr.size - 1

    @property
    def num_shards(self) -> int:
        return len(self.manifest["shards"])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def shard_bounds(self) -> np.ndarray:
        """Row cut points ``[lo_0, lo_1, ..., num_vertices]`` (len S+1)."""
        lows = [int(s["lo"]) for s in self.manifest["shards"]]
        lows.append(self.num_vertices)
        return np.asarray(lows, dtype=np.int64)

    def shard_meta(self, part: int) -> Dict[str, object]:
        return self.manifest["shards"][part]

    def load_shard(self, part: int) -> ShardSlice:
        """Fetch, verify, and decode one shard into a :class:`ShardSlice`."""
        meta = self.shard_meta(part)
        blob = self._fetch(part)
        indices, weights = decode_shard(blob, meta)
        return ShardSlice(
            int(meta["lo"]), int(meta["hi"]), int(meta["base"]),
            self.indptr, indices, weights,
        )
