"""Every shard read from the store is verified; nothing else changes.

The out-of-core read path is one ``open().read()`` per fetch, so the
checks that used to be spread over an ``.npz`` load now live in exactly
one place — :func:`repro.graph.shards.decode_shard`, against the
manifest validated once per dispatch.  What must hold, for any graph,
cache capacity, phase and kind of damage:

* a part damaged on disk (flipped bit, truncation, unlink) raises a
  typed :class:`StoreError` from the next phase that has to read it —
  never a different result — while a decoded copy still resident in the
  LRU is served without touching the store;
* reads from the store and verifications are the same count;
* the read-ahead thread neither masks an error nor decodes a shard the
  demand path is already waiting for, and a demand never hangs on it;
* a shard of unit weights stores its indices alone and is checked just
  the same;
* parts written by an older format (v1 ``.npz``-wrapped, v2 with every
  weight stored, v3 with unit shards planned at 16 B an edge) read as a
  miss.
"""

import hashlib
import os
import sys
import tempfile
import threading
import time
import zlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from repro.apps import SSSP, PageRank
from repro.bench.workloads import ARITH_TOLERANCE, experiment_cluster
from repro.core.engine import SLFEEngine
from repro.core.runtime import SerialDispatch
from repro.errors import StoreError
from repro.graph import shards as shards_mod
from repro.graph.shards import ShardedCSR, build_shards
from repro.ooc import (
    ShardStreamDispatch,
    _ShardStream,
    load_spilled,
)
from repro.runconfig import configured
from repro.store import ArtifactStore, graph_fingerprint
from repro.trace import recorder as trace_events
from repro.trace.recorder import TraceRecorder

from tests.conftest import make_random_graph
from tests.strategies.graphs import seeded_digraphs

#: 32 edges per shard: a few hundred edges make 4-12 shards a direction.
SHARD_MB = 32 * shards_mod.EDGE_BYTES / 2**20
JOIN_S = 10.0


class CountingStore(ArtifactStore):
    """Records every part read that returned bytes."""

    def __init__(self, root):
        super().__init__(root, max_bytes=None)
        self.reads = []  # list.append is atomic across the two threads

    def get_shard_blob(self, digest, direction, part):
        blob = super().get_shard_blob(digest, direction, part)
        self.reads.append((direction, part))
        return blob


#: Unit (every shard indices only) or weighted graphs.
graphs = seeded_digraphs(min_vertices=8, max_vertices=40, min_edges=100,
                         max_edges=300)


# ----------------------------------------------------------------------
# damage x phase (the phase fixes the direction it streams)
# ----------------------------------------------------------------------
def _gather(d, ids):
    d.gather(ids)
    return (d.result[ids].tobytes(),)


def _pull_apply(d, ids):
    d.pull_apply(ids, "min")
    return d.result[ids].tobytes(), d.improved[ids].tobytes()


def _push(d, ids):
    dsts, candidates, degrees, _ = d.push(ids)
    return dsts.tobytes(), candidates.tobytes(), degrees.tobytes()


PHASES = {
    "gather": ("in", PageRank, _gather),
    "pull_apply": ("in", SSSP, _pull_apply),
    "push": ("out", SSSP, _push),
    "expand_in_srcs": ("in", SSSP, lambda d, ids: d.expand_in_srcs(ids).tobytes()),
    "expand_out_dsts": ("out", SSSP, lambda d, ids: d.expand_out_dsts(ids).tobytes()),
}


def _rewrite(path, edit):
    with open(path, "rb") as handle:
        blob = bytearray(handle.read())
    with open(path, "wb") as handle:
        handle.write(edit(blob))


def _flip(path, where, bit):
    def edit(blob):
        blob[int(where * len(blob))] ^= 1 << bit
        return blob

    _rewrite(path, edit)


DAMAGE = {
    "flip": _flip,
    "truncate": lambda path, where, bit: _rewrite(
        path, lambda blob: blob[: int(where * len(blob))]
    ),
    "unlink": lambda path, where, bit: os.unlink(path),
}


def _part_payload(store, digest, direction, part):
    (entry,) = store.find(
        "shard/%s/%s/part/%06d/" % (digest, direction, part)
    )
    return os.path.join(store.root, "shards", entry.stem + ".bin")


@pytest.mark.parametrize("damage", sorted(DAMAGE))
@pytest.mark.parametrize("phase", sorted(PHASES))
@given(
    graph=graphs,
    capacity=st.integers(1, 3),
    victim=st.integers(0, 1 << 16),
    where=st.floats(0.0, 1.0, exclude_max=True),
    bit=st.integers(0, 7),
)
def test_damaged_part_is_a_typed_error_once_it_must_be_read(
    phase, damage, graph, capacity, victim, where, bit
):
    direction, app_cls, run = PHASES[phase]
    app = app_cls()
    if app_cls is PageRank:
        app.bind(graph)  # dispatches take a bound app for gather
    with tempfile.TemporaryDirectory() as root:
        store = CountingStore(root)
        digest = store.put_sharded_graph(graph, SHARD_MB)
        table = store.get_shard_manifest(digest, direction)[0]["shards"]
        unit = graph.out_csr.unit_weights
        assert all(entry["unit_weights"] is unit for entry in table)
        assume(len(table) > capacity)  # room to push the victim out
        victim %= len(table)
        lo, hi = table[victim]["lo"], table[victim]["hi"]
        everything = np.arange(graph.num_vertices, dtype=np.int64)
        inside = everything[lo:hi]
        outside = np.concatenate([everything[:lo], everything[hi:]])
        with ShardStreamDispatch(
            graph, app, store=store, shard_mb=SHARD_MB, shard_cache=capacity
        ) as d:
            assert not d.cold
            d.values[...] = np.random.default_rng(victim).uniform(
                1.0, 2.0, graph.num_vertices
            )
            run(d, everything)  # a clean first pass
            clean = run(d, inside)  # leaves the victim resident
            DAMAGE[damage](
                _part_payload(store, digest, direction, victim), where, bit
            )

            # Resident: served from the LRU, the store is not read.
            reads = len(store.reads)
            assert run(d, inside) == clean
            assert len(store.reads) == reads

            # Pushed out by > capacity other parts: the next phase that
            # needs it reads the damage, whichever thread gets there
            # first, and says so.
            run(d, outside)
            assert not d._stream.resident(direction, victim)
            with pytest.raises(StoreError):
                run(d, everything)
            # Damaged bytes were read and then refused; a missing file
            # never produced any.
            assert ((direction, victim) in store.reads[reads:]) == (
                damage != "unlink"
            )


def test_read_ahead_that_hit_the_damage_first_does_not_mask_it():
    graph = make_random_graph(num_vertices=30, num_edges=200, seed=21)
    app = PageRank()
    app.bind(graph)
    with tempfile.TemporaryDirectory() as root:
        store = CountingStore(root)
        digest = store.put_sharded_graph(graph, SHARD_MB)
        _flip(_part_payload(store, digest, "in", 1), 0.5, 3)
        with ShardStreamDispatch(
            graph, app, store=store, shard_mb=SHARD_MB, shard_cache=2
        ) as d:
            stream = d._stream
            stream.announce("in", 1)
            deadline = time.monotonic() + JOIN_S
            while ("in", 1) not in store.reads or stream._inflight:
                assert time.monotonic() < deadline
                time.sleep(0.002)
            # The read-ahead read it, failed verification and kept
            # quiet; the demand path must still fail, typed.
            assert not stream.resident("in", 1)
            with pytest.raises(StoreError, match="checksum"):
                stream.get("in", 1)
            with pytest.raises(StoreError, match="checksum"):
                d.gather(np.arange(graph.num_vertices, dtype=np.int64))


# ----------------------------------------------------------------------
# reads == verifications
# ----------------------------------------------------------------------
def test_every_read_from_the_store_is_verified(monkeypatch):
    """One PageRank job per kind of shard (weighted, unit): part reads,
    SHA-256 computations, inflates and decodes are the same number, and
    it is the number the trace reports.  A decoded shard reused from the
    LRU is the only unverified reuse — and it is not a read."""
    checks = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            checks[name] += 1  # read after the job: its threads are joined
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        shards_mod, "hashlib",
        SimpleNamespace(sha256=counting("sha256", hashlib.sha256)),
    )
    monkeypatch.setattr(
        shards_mod, "_decompress", counting("inflate", shards_mod._decompress)
    )
    monkeypatch.setattr(
        shards_mod, "decode_shard", counting("decode", shards_mod.decode_shard)
    )
    for weighted in (True, False):
        checks.update(sha256=0, inflate=0, decode=0)
        graph = make_random_graph(
            num_vertices=60, num_edges=400, seed=8, weighted=weighted
        )
        with tempfile.TemporaryDirectory() as root:
            store = CountingStore(root)
            store.put_sharded_graph(graph, SHARD_MB)
            checks.update(sha256=0)  # encoding hashed each blob once
            recorder = TraceRecorder()
            with configured(store=store, shard_mb=SHARD_MB, shard_cache=2):
                result = SLFEEngine(
                    graph, config=experiment_cluster(num_nodes=2),
                    backend="ooc", recorder=recorder,
                ).run_arithmetic(PageRank(), tolerance=ARITH_TOLERANCE)
        assert result.iterations > 2
        reads = len(store.reads)
        assert reads > 0
        assert checks == {"sha256": reads, "inflate": reads, "decode": reads}
        events = recorder.events_named(trace_events.SHARD_IO)
        assert sum(e.payload["shards"] for e in events) == reads
        assert sum(e.payload["cache_hits"] for e in events) > 0


# ----------------------------------------------------------------------
# decode: read-only views of one buffer, unit weights of none
# ----------------------------------------------------------------------
PAYLOADS = {
    "weighted": lambda rng, m: rng.uniform(-5.0, 5.0, m),
    "unit": lambda rng, m: np.ones(m),
}


@given(
    payload=st.sampled_from(sorted(PAYLOADS)),
    edges=st.integers(0, 200),
    seed=st.integers(0, 2**16),
)
@example(payload="weighted", edges=17, seed=1)
@example(payload="unit", edges=17, seed=1)
@example(payload="weighted", edges=0, seed=1)  # empty: vacuously unit
def test_decode_returns_read_only_views_of_one_buffer(payload, edges, seed):
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, 1 << 40, size=edges, dtype=np.int64)
    weights = PAYLOADS[payload](rng, edges)
    blob, meta = shards_mod.encode_shard(indices, weights)
    unit = payload == "unit" or edges == 0
    assert meta["unit_weights"] is unit
    assert meta["raw_bytes"] == edges * (8 if unit else 16)
    got_indices, got_weights = shards_mod.decode_shard(blob, meta)
    assert got_indices.tobytes() == indices.tobytes()
    assert got_weights.tobytes() == weights.tobytes()
    assert got_indices.dtype == np.int64 and got_weights.dtype == np.float64
    for array in (got_indices, got_weights):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0
    # No half-payload copy: indices are a window on the inflated bytes,
    # and so are weighted weights; unit ones are no bytes at all.
    assert isinstance(got_indices.base, bytes)
    if unit:
        assert got_weights.strides == (0,)
    else:
        assert got_weights.base is got_indices.base


def test_a_unit_shard_decoded_as_weighted_is_refused():
    """The unit flag sits under the size check: a manifest entry whose
    flag was flipped either way decodes to the wrong size, typed."""
    for weights in (np.ones(50), np.full(50, 2.0)):
        blob, meta = shards_mod.encode_shard(np.arange(50), weights)
        meta["unit_weights"] = not meta["unit_weights"]
        with pytest.raises(StoreError, match="decoded to"):
            shards_mod.decode_shard(blob, meta)


# ----------------------------------------------------------------------
# read-ahead hand-off
# ----------------------------------------------------------------------
class Fetcher:
    """Blob source for a bare stream: counts fetches per part, can hold
    a chosen part at a gate, fail it, and flags overlapping fetches of
    one part."""

    def __init__(self, blobs, gated=None, failing=(), delay=0.0):
        self.blobs = blobs
        self.gated = gated
        self.failing = set(failing)
        self.delay = delay
        self.entered = threading.Event()
        self.gate = threading.Event()
        self.calls = []
        self.active = set()
        self.overlapped = False

    def __call__(self, part):
        self.calls.append(part)
        if part in self.active:
            self.overlapped = True
        self.active.add(part)
        try:
            time.sleep(self.delay)  # widens the window an overlap needs
            if part == self.gated:
                self.entered.set()
                assert self.gate.wait(JOIN_S)
            if part in self.failing:
                raise StoreError("part %d is gone" % part)
            return self.blobs[part]
        finally:
            self.active.discard(part)


def _bare_stream(fetcher_kwargs, capacity=2, seed=5):
    graph = make_random_graph(num_vertices=40, num_edges=300, seed=seed)
    manifest, blobs = build_shards(graph.in_csr, SHARD_MB)
    assert len(blobs) >= 4
    fetcher = Fetcher(blobs, **fetcher_kwargs)
    sharded = ShardedCSR(graph.in_csr.indptr, manifest, fetcher)
    return _ShardStream({"in": sharded}, capacity), fetcher, graph


def _demand(stream, part):
    """``stream.get`` on its own thread; returns (thread, outcome list)."""
    outcome = []

    def target():
        try:
            outcome.append(stream.get("in", part))
        except Exception as exc:  # handed to the asserting thread
            outcome.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, outcome


def test_demand_waits_for_the_read_ahead_instead_of_decoding_twice():
    stream, fetcher, graph = _bare_stream(dict(gated=2))
    try:
        stream.announce("in", 2)
        assert fetcher.entered.wait(JOIN_S)  # read-ahead is mid-fetch
        thread, outcome = _demand(stream, 2)
        thread.join(0.2)
        assert thread.is_alive() and fetcher.calls == [2]
        fetcher.gate.set()
        thread.join(JOIN_S)
        assert not thread.is_alive()
    finally:
        fetcher.gate.set()
        stream.close()
    (shard,) = outcome
    expected = graph.in_csr.expand_sources(np.arange(shard.lo, shard.hi))[1]
    assert shard.indices.tobytes() == expected.tobytes()
    assert fetcher.calls == [2] and not fetcher.overlapped
    # One read, booked once; the demand counts as a hit on it.
    assert (stream.shards_read, stream.cache_hits) == (1, 1)


def test_read_ahead_failure_surfaces_on_the_demand_path_not_as_a_hang():
    stream, fetcher, _ = _bare_stream(dict(gated=1, failing=[1]))
    try:
        stream.announce("in", 1)
        assert fetcher.entered.wait(JOIN_S)
        thread, outcome = _demand(stream, 1)
        thread.join(0.2)
        assert thread.is_alive()  # waiting on the in-flight read-ahead
        fetcher.gate.set()  # ... which now fails, silently
        thread.join(JOIN_S)
        assert not thread.is_alive()
        # The demand retried by itself and got the typed error.
        assert isinstance(outcome[0], StoreError)
        assert fetcher.calls == [1, 1] and not fetcher.overlapped
        # The stream is still usable, and still failing honestly.
        assert stream.get("in", 0).lo == 0
        with pytest.raises(StoreError, match="is gone"):
            stream.get("in", 1)
    finally:
        fetcher.gate.set()
        stream.close()
    assert not stream._thread.is_alive()


def test_hand_off_under_a_hostile_scheduler():
    """Sweeps with read-ahead at a 1 us switch interval: no part is ever
    fetched by both threads at once, every fetch is booked exactly once,
    and every request is either a hit or a demand fetch."""
    stream, fetcher, _ = _bare_stream(dict(delay=2e-4), capacity=2)
    lows = stream._sharded["in"].shard_bounds()
    parts = len(fetcher.blobs)
    order = list(range(parts)) + list(range(parts - 1, -1, -1))
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    gets = 0
    try:
        for _ in range(40):
            for i, part in enumerate(order):
                stream.announce("in", order[(i + 1) % len(order)])
                assert stream.get("in", part).lo == lows[part]
                gets += 1
    finally:
        sys.setswitchinterval(previous)
        stream.close()
    assert not stream._thread.is_alive()
    assert not fetcher.overlapped
    assert stream.shards_read == len(fetcher.calls)
    assert stream.cache_hits <= gets <= stream.cache_hits + stream.shards_read


# ----------------------------------------------------------------------
# format bump
# ----------------------------------------------------------------------
def _old_shards(csr, version):
    """``(manifest, payloads)`` as the v1-v3 code wrote them.  Every
    version planned a shard at 16 B an edge; v3 stores a unit shard's
    indices alone, v1/v2 store ``indices ++ weights`` for every shard,
    and a v1 part is an ``.npz`` around it."""
    # Half the size at today's 8 B a unit edge is the same edge budget.
    manifest, blobs = build_shards(
        csr, SHARD_MB / 2 if csr.unit_weights else SHARD_MB
    )
    manifest.update(format_version=version, shard_mb=SHARD_MB)
    if version == 3:
        return manifest, blobs
    payloads = []
    for entry in manifest["shards"]:
        del entry["unit_weights"]
        edges = slice(entry["base"], entry["base"] + entry["edges"])
        raw = csr.indices[edges].tobytes() + csr.weights[edges].tobytes()
        blob = zlib.compress(raw, 6)
        entry.update(codec="zlib", raw_bytes=len(raw), blob_bytes=len(blob),
                     checksum=hashlib.sha256(blob).hexdigest())
        payloads.append(
            {"blob": np.frombuffer(blob, dtype=np.uint8)} if version == 1 else blob
        )
    return manifest, payloads


def test_older_format_parts_read_as_a_miss_and_reshard_cold(monkeypatch):
    """A store written by older code — manifest and parts under
    ``.../v1``, ``.../v2`` or ``.../v3`` keys: unit weights stored like
    any others, or unit shards planned at half the budget — is not an
    error and not a hit: the dispatch re-shards cold beside it."""
    assert shards_mod.SHARD_FORMAT_VERSION == 4
    graph = make_random_graph(num_vertices=30, num_edges=200, seed=13, weighted=False)
    app = PageRank()
    app.bind(graph)
    ids = np.arange(graph.num_vertices, dtype=np.int64)
    serial = SerialDispatch(graph, app)
    serial.values[...] = 1.0
    serial.gather(ids)
    digest = str(graph_fingerprint(graph)["digest"])
    for version in (1, 2, 3):
        with tempfile.TemporaryDirectory() as root:
            store = CountingStore(root)
            with monkeypatch.context() as old:
                old.setattr(shards_mod, "SHARD_FORMAT_VERSION", version)
                for direction, csr in (("in", graph.in_csr), ("out", graph.out_csr)):
                    manifest, payloads = _old_shards(csr, version)
                    for entry, payload in zip(manifest["shards"], payloads):
                        store._write_entry(
                            "shard",
                            store._shard_part_key(digest, direction, entry["part"]),
                            payload,
                            {"shard": entry, "digest": digest,
                             "direction": direction},
                        )
                    store.put_shard_manifest(digest, direction, manifest, csr.indptr)
            old_entries = {entry.key for entry in store.entries()}
            assert old_entries and all(
                k.endswith("/v%d" % version) for k in old_entries
            )

            with pytest.raises(StoreError, match="no 'in' shard manifest"):
                load_spilled(store, digest)
            with pytest.raises(StoreError, match="repro cache shard"):
                store.get_shard_blob(digest, "in", 0)
            with ShardStreamDispatch(
                graph, app, store=store, shard_mb=SHARD_MB, shard_cache=2
            ) as d:
                assert d.cold
                d.values[...] = 1.0
                d.gather(ids)
                streamed = d.result.copy()
            assert streamed.tobytes() == serial.result.tobytes()
            # The old generation is still listed (and evictable), untouched.
            assert old_entries < {entry.key for entry in store.entries()}
