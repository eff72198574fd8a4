"""Tests for the persistent preprocessing-artifact store."""

import os

import numpy as np
import pytest

from repro.apps import SSSP
from repro.core.engine import SLFEEngine
from repro.core.rrg import generate_guidance
from repro.errors import StoreError
from repro.graph import datasets
from repro.store import (
    ArtifactStore,
    active_store,
    graph_fingerprint,
    graph_spec_key,
    install_store,
)
from repro.runconfig import configured, current
from repro.trace.recorder import TraceRecorder

from tests.conftest import make_random_graph


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "cache"))


@pytest.fixture
def weighted_graph():
    return make_random_graph(num_vertices=60, num_edges=240, seed=7)


def _entry_files(store, entry):
    directory = os.path.join(store.root, store._DIRS[entry.kind])
    return (
        os.path.join(directory, entry.stem + ".npz"),
        os.path.join(directory, entry.stem + ".json"),
    )


class TestGraphEntries:
    def test_round_trip_is_bit_identical(self, store, weighted_graph):
        key = graph_spec_key("RND", 1, True)
        store.put_graph(key, weighted_graph)
        back = store.get_graph(key)
        assert np.array_equal(back.out_csr.indptr, weighted_graph.out_csr.indptr)
        assert np.array_equal(back.out_csr.indices, weighted_graph.out_csr.indices)
        assert np.array_equal(back.out_csr.weights, weighted_graph.out_csr.weights)
        assert back.name == weighted_graph.name
        assert graph_fingerprint(back) == graph_fingerprint(weighted_graph)

    def test_miss_returns_none(self, store):
        assert store.get_graph(graph_spec_key("LJ", 2000, False)) is None
        assert store.stats.misses == 1

    def test_flipped_payload_byte_is_typed_error(self, store, weighted_graph):
        key = graph_spec_key("RND", 1, True)
        store.put_graph(key, weighted_graph)
        npz_path, _meta = _entry_files(store, store.entries()[0])
        blob = bytearray(open(npz_path, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        open(npz_path, "wb").write(bytes(blob))
        with pytest.raises(StoreError):
            store.get_graph(key)

    def test_truncated_payload_is_typed_error(self, store, weighted_graph):
        key = graph_spec_key("RND", 1, True)
        store.put_graph(key, weighted_graph)
        npz_path, _meta = _entry_files(store, store.entries()[0])
        blob = open(npz_path, "rb").read()
        open(npz_path, "wb").write(blob[: len(blob) // 3])
        with pytest.raises(StoreError):
            store.get_graph(key)

    def test_consult_drops_corrupt_entry_and_warns(self, store, weighted_graph):
        key = graph_spec_key("RND", 1, True)
        store.put_graph(key, weighted_graph)
        npz_path, meta_path = _entry_files(store, store.entries()[0])
        open(npz_path, "wb").write(b"garbage")
        with pytest.warns(RuntimeWarning, match="dropping corrupt"):
            assert store.consult_graph(key) is None
        assert not os.path.exists(npz_path)
        assert not os.path.exists(meta_path)
        assert store.stats.corruptions == 1
        # The next consult is a clean miss, not another corruption.
        assert store.consult_graph(key) is None
        assert store.stats.corruptions == 1


class TestGuidanceEntries:
    def test_round_trip_is_bit_identical(self, store, weighted_graph):
        guidance = generate_guidance(weighted_graph, [0])
        store.put_guidance(weighted_graph, guidance)
        back = store.get_guidance(weighted_graph, np.array([0]))
        assert np.array_equal(back.last_iter, guidance.last_iter)
        assert np.array_equal(back.visited, guidance.visited)
        assert np.array_equal(back.bfs_dist, guidance.bfs_dist)
        assert np.array_equal(back.roots, guidance.roots)
        assert back.num_iterations == guidance.num_iterations
        # The strict API preserves the recorded generation cost …
        assert back.edge_ops == guidance.edge_ops

    def test_consult_hit_reports_zero_edge_ops(self, store, weighted_graph):
        guidance = generate_guidance(weighted_graph, [0])
        store.put_guidance(weighted_graph, guidance)
        cached = store.consult_guidance(weighted_graph, np.array([0]))
        # … while the lenient consult path zeroes it: a cache hit
        # performs no edge scans in this job (the paper's amortization).
        assert cached.edge_ops == 0
        assert np.array_equal(cached.last_iter, guidance.last_iter)

    def test_different_roots_are_different_entries(self, store, weighted_graph):
        store.put_guidance(weighted_graph, generate_guidance(weighted_graph, [0]))
        assert store.get_guidance(weighted_graph, np.array([1])) is None

    def test_wrong_graph_is_a_miss_when_keyed_honestly(self, store, weighted_graph):
        other = make_random_graph(num_vertices=61, num_edges=240, seed=8)
        store.put_guidance(weighted_graph, generate_guidance(weighted_graph, [0]))
        assert store.get_guidance(other, np.array([0])) is None

    def test_misfiled_wrong_graph_guidance_is_typed_error(
        self, store, weighted_graph
    ):
        """An entry whose payload was swapped onto another graph's key
        (bit-rot, manual copying) fails the fingerprint cross-check."""
        other = make_random_graph(num_vertices=60, num_edges=220, seed=9)
        store.put_guidance(weighted_graph, generate_guidance(weighted_graph, [0]))
        store.put_guidance(other, generate_guidance(other, [0]))
        # Both stand-ins are named "random"; disambiguate by fingerprint.
        by_digest = {
            e.meta["fingerprint"]["digest"]: e for e in store.entries()
        }
        src = _entry_files(
            store, by_digest[graph_fingerprint(weighted_graph)["digest"]]
        )
        dst = _entry_files(
            store, by_digest[graph_fingerprint(other)["digest"]]
        )
        # Forge: other's key now holds weighted_graph's payload + meta,
        # but with other's key recorded so the key check passes.
        import json

        meta = json.load(open(src[1]))
        victim_meta = json.load(open(dst[1]))
        meta["key"] = victim_meta["key"]
        open(dst[0], "wb").write(open(src[0], "rb").read())
        json.dump(meta, open(dst[1], "w"))
        with pytest.raises(StoreError, match="different graph"):
            store.get_guidance(other, np.array([0]))


class TestPropertyFreshVsCached:
    def test_sssp_values_bit_identical_with_cached_guidance(
        self, store, weighted_graph
    ):
        root = int(np.argmax(weighted_graph.out_degrees()))
        fresh = generate_guidance(weighted_graph, [root])
        store.put_guidance(weighted_graph, fresh)
        cached = store.get_guidance(weighted_graph, np.array([root]))
        a = SLFEEngine(weighted_graph).run_minmax(
            SSSP(), root=root, guidance=fresh
        )
        b = SLFEEngine(weighted_graph).run_minmax(
            SSSP(), root=root, guidance=cached
        )
        assert np.array_equal(a.values, b.values)
        assert a.iterations == b.iterations
        assert a.metrics.total_edge_ops == b.metrics.total_edge_ops


class TestAmbientInstall:
    @pytest.fixture(autouse=True)
    def _restore(self):
        with configured():
            yield
        datasets._cache.clear()

    def test_install_uninstall(self, store):
        assert active_store() is None
        previous = install_store(store)
        assert previous is None
        assert active_store() is store is current().store
        install_store(None)
        assert active_store() is None

    def test_generate_guidance_consults_ambient_store(
        self, store, weighted_graph
    ):
        install_store(store)
        first = generate_guidance(weighted_graph, [0])
        assert first.edge_ops > 0
        second = generate_guidance(weighted_graph, [0])
        assert second.edge_ops == 0  # cache hit: no scans this job
        assert np.array_equal(first.last_iter, second.last_iter)
        assert store.stats.hits == 1 and store.stats.stores == 1

    def test_datasets_load_uses_ambient_store(self, store):
        install_store(store)
        g1 = datasets.load("PK", scale_divisor=8000, use_cache=False)
        assert store.stats.by_kind["graph"]["store"] == 1
        g2 = datasets.load("PK", scale_divisor=8000, use_cache=False)
        assert store.stats.by_kind["graph"]["hit"] == 1
        assert graph_fingerprint(g1) == graph_fingerprint(g2)


class TestEvictionAndManagement:
    def test_lru_eviction_respects_cap(self, tmp_path, weighted_graph):
        store = ArtifactStore(str(tmp_path), max_bytes=None)
        store.put_graph(graph_spec_key("A", 1, True), weighted_graph)
        nbytes = store.total_bytes()
        # Cap fits two entries; the third write evicts the least
        # recently used one.
        store = ArtifactStore(str(tmp_path), max_bytes=int(nbytes * 2.5))
        store.put_graph(graph_spec_key("B", 1, True), weighted_graph)
        store.get_graph(graph_spec_key("A", 1, True))  # touch A: B is LRU
        store.put_graph(graph_spec_key("C", 1, True), weighted_graph)
        keys = {entry.key for entry in store.entries()}
        assert graph_spec_key("B", 1, True) not in keys
        assert graph_spec_key("A", 1, True) in keys
        assert graph_spec_key("C", 1, True) in keys
        assert store.stats.evictions == 1
        assert store.total_bytes() <= store.max_bytes

    def test_clear_and_find(self, store, weighted_graph):
        store.put_graph(graph_spec_key("A", 1, True), weighted_graph)
        store.put_guidance(weighted_graph, generate_guidance(weighted_graph, [0]))
        assert len(store.find("graph/")) == 1
        assert len(store.find("guidance/")) == 1
        assert store.clear() == 2
        assert store.entries() == []
        assert store.total_bytes() == 0

    def test_cache_events_reach_the_recorder(self, tmp_path, weighted_graph):
        recorder = TraceRecorder()
        store = ArtifactStore(str(tmp_path), recorder=recorder)
        key = graph_spec_key("A", 1, True)
        store.get_graph(key)
        store.put_graph(key, weighted_graph)
        store.get_graph(key)
        outcomes = [
            (event.payload["kind"], event.payload["outcome"])
            for event in recorder.events
            if event.name == "cache"
        ]
        assert outcomes == [
            ("graph", "miss"), ("graph", "store"), ("graph", "hit")
        ]


class TestRecencyAndBlobPayloads:
    """A hit refreshes recency with one ``utime``; shard parts are
    ``.bin`` payloads that every management path accounts for."""

    @staticmethod
    def _put_parts(store, count, size=4000):
        for part in range(count):
            store.put_shard_blob(
                "d" * 8, "in", part, bytes([part]) * size, {"part": part}
            )

    @staticmethod
    def _sidecar(store, entry):
        path = os.path.join(
            store.root, store._DIRS[entry.kind], entry.stem + ".json"
        )
        with open(path, "rb") as handle:
            return path, handle.read(), os.stat(path)

    def test_fetch_touches_the_sidecar_without_rewriting_it(
        self, store, weighted_graph
    ):
        key = graph_spec_key("A", 1, True)
        store.put_graph(key, weighted_graph)
        self._put_parts(store, 1)
        fetches = {
            "graph": lambda: store.get_graph(key),
            "shard": lambda: store.get_shard_blob("d" * 8, "in", 0),
        }
        for entry in store.entries():
            path, content, before = self._sidecar(store, entry)
            os.utime(path, ns=(10**18, 10**18))  # 2001: any hit is later
            assert fetches[entry.kind]() is not None
            _, after_content, after = self._sidecar(store, entry)
            assert after_content == content
            assert after.st_ino == before.st_ino
            assert after.st_mtime_ns > 10**18
            (listed,) = store.find(entry.key)
            assert listed.last_used == pytest.approx(after.st_mtime)
            assert listed.meta["last_used"] == listed.last_used

    def test_fetched_part_outlives_an_older_unfetched_one(self, tmp_path):
        store = ArtifactStore(str(tmp_path), max_bytes=None)
        self._put_parts(store, 2)
        store = ArtifactStore(
            str(tmp_path), max_bytes=int(store.total_bytes() * 1.25)
        )
        assert store.get_shard_blob("d" * 8, "in", 0) == b"\x00" * 4000
        store.put_shard_blob("d" * 8, "in", 2, b"\x02" * 4000, {"part": 2})
        assert store.stats.evictions == 1
        with pytest.raises(StoreError, match="evicted or never written"):
            store.get_shard_blob("d" * 8, "in", 1)
        assert store.get_shard_blob("d" * 8, "in", 0) == b"\x00" * 4000
        assert store.get_shard_blob("d" * 8, "in", 2) == b"\x02" * 4000

    def test_byte_totals_sweep_and_clear_are_exact_with_bin_payloads(
        self, store, weighted_graph
    ):
        store.put_graph(graph_spec_key("A", 1, True), weighted_graph)
        self._put_parts(store, 3)

        def on_disk():
            return {
                os.path.join(directory, name): os.path.getsize(
                    os.path.join(directory, name)
                )
                for directory, _, names in os.walk(store.root)
                for name in names
            }

        files = on_disk()
        assert sum(name.endswith(".bin") for name in files) == 3
        assert store.total_bytes() == sum(files.values())
        orphan = os.path.join(store.root, "shards", "no-sidecar.bin")
        with open(orphan, "wb") as handle:
            handle.write(b"x" * 10)
        assert store.total_bytes() == sum(files.values())  # not an entry
        assert store.sweep_orphans() == 1
        assert on_disk() == files
        assert store.clear() == 4
        assert on_disk() == {} and store.total_bytes() == 0
