"""Out-of-core backend: bit-identity, store integrity, satellites.

The contract under test is the strongest one the dispatch design can
make: because shards never split a destination's in-edge block and the
fused kernels see the same (sources, weights) expansion a resident CSR
would produce, the ooc backend is *bit-identical* to the serial
reference — not approximately equal — for every application, with and
without redundancy reduction, at any shard size and any cache capacity —
and therefore whatever order the serpentine scan visits the shards in.
"""

import os
import warnings

import numpy as np
import pytest

from repro.bench import workloads
from repro.bench.runner import run_workload
from repro.errors import EngineError, GraphIOError, StoreError
from repro.graph import io as graph_io
from repro.graph.graph import Graph
from repro.graph.shards import plan_shards
from repro.ooc import (
    ShardStreamDispatch,
    SpilledGraph,
    load_spilled,
    peak_rss_bytes,
    spill_graph,
)
from repro.runconfig import KNOBS, configured, install, resolve
from repro.store import ArtifactStore

from tests.conftest import make_random_graph

GRAPH_KEY = "PK"
#: ~10 KiB shards: 24-48 per direction on the PK stand-in.
TINY_SHARD_MB = 0.01


@pytest.fixture
def tiny_shards():
    """Force many small shards so every phase really streams.

    The cache holds two of them; the yielded setter picks another
    capacity for the rest of the test.
    """
    with configured(shard_mb=TINY_SHARD_MB, shard_cache=2):
        yield lambda capacity: install(shard_cache=capacity)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "store"))


@pytest.fixture
def ambient_store(store):
    with configured(store=store):
        yield store


def _run(app_name, engine_name, backend, **engine_kwargs):
    outcome = run_workload(
        engine_name, app_name, GRAPH_KEY, backend=backend, **engine_kwargs
    )
    return outcome.result


def _assert_identical(ooc, serial):
    assert ooc.iterations == serial.iterations
    # Byte-for-byte, not allclose: the ooc kernels must perform the
    # same float operations in the same order as the serial ones.
    assert np.array_equal(ooc.values, serial.values, equal_nan=True)
    for total in ("total_edge_ops", "total_messages", "total_updates"):
        assert getattr(ooc.metrics, total) == getattr(serial.metrics, total)


# ----------------------------------------------------------------------
# tentpole: the differential matrix
# ----------------------------------------------------------------------
class TestBitIdentity:
    @pytest.mark.parametrize("app_name", workloads.APP_ORDER)
    @pytest.mark.parametrize("engine_name", ["SLFE", "SLFE-noRR"])
    def test_matches_serial_exactly(
        self, app_name, engine_name, tiny_shards
    ):
        serial = _run(app_name, engine_name, "serial")
        # A cache of one, the streaming minimum, exactly the sweep and
        # one to spare: the scan reverses at every turn-around, at some
        # of them, and (everything resident) never.
        shards = len(plan_shards(serial.graph.in_csr.indptr, TINY_SHARD_MB))
        assert shards >= 3
        for capacity in (1, 2, shards, shards + 1):
            tiny_shards(capacity)
            _assert_identical(_run(app_name, engine_name, "ooc"), serial)

    def test_crash_rollback_matches_serial_exactly(self, tiny_shards):
        """A rollback replays supersteps against whatever the LRU holds
        by then, so the replay sweeps in a different order than the
        first attempt did — and must not show it."""
        from repro.cluster.faults import FaultPlan

        runs = [
            _run(
                "PR", "SLFE", backend,
                fault_plan=FaultPlan.parse("crash@7:1", num_nodes=8),
                checkpoint_every=3,
            )
            for backend in ("serial", "ooc")
        ]
        assert [r.metrics.rollbacks for r in runs] == [1, 1]
        _assert_identical(runs[1], runs[0])
        # The replay's work is accounted; the answer is the clean run's.
        clean = _run("PR", "SLFE", "serial")
        assert runs[1].values.tobytes() == clean.values.tobytes()
        assert runs[1].iterations == clean.iterations

    @pytest.mark.parametrize("spare", [0, 1])
    def test_turn_around_reads_only_what_fell_out_of_the_cache(
        self, monkeypatch, spare
    ):
        """Two full-range gathers over S shards behind c of cache, with
        read-ahead off: the second one starts at the end the first one
        left resident and reads S - c (a same-direction scan: S)."""
        from repro.ooc import _ShardStream
        from repro.trace import recorder as trace_events
        from repro.trace.recorder import TraceRecorder

        monkeypatch.setattr(
            _ShardStream, "announce", lambda self, direction, part: None
        )
        graph = make_random_graph(num_vertices=200, num_edges=3000, seed=6)
        app = workloads.make_app("PR")
        app.bind(graph)
        ids = np.arange(graph.num_vertices, dtype=np.int64)
        shards = len(plan_shards(graph.in_csr.indptr, TINY_SHARD_MB))
        capacity = 2 if spare else shards - 1
        assert 2 <= capacity < shards
        recorder = TraceRecorder()
        with ShardStreamDispatch(
            graph, app, recorder=recorder,
            shard_mb=TINY_SHARD_MB, shard_cache=capacity,
        ) as d:
            d.values[...] = 1.0
            for _ in range(3):
                d.gather(ids)
        reads = [
            event.payload["shards"]
            for event in recorder.events_named(trace_events.SHARD_IO)
        ]
        assert reads == [shards, shards - capacity, shards - capacity]

    def test_spilled_graph_identical_without_resident_edges(
        self, store, ambient_store, tiny_shards
    ):
        from repro.apps.pagerank import PageRank
        from repro.cluster.cluster import ClusterConfig
        from repro.core.engine import SLFEEngine

        graph = make_random_graph(num_vertices=120, num_edges=600, seed=3)
        reference = SLFEEngine(
            graph, config=ClusterConfig(num_nodes=1), enable_rr=False
        ).run_arithmetic(PageRank())

        digest = spill_graph(graph, store)
        spilled = load_spilled(store, digest)
        assert isinstance(spilled, SpilledGraph)
        result = SLFEEngine(
            spilled,
            config=ClusterConfig(num_nodes=1),
            enable_rr=False,
            backend="ooc",
        ).run_arithmetic(PageRank())
        assert result.iterations == reference.iterations
        assert np.array_equal(result.values, reference.values)


class TestShardStore:
    def test_cold_then_warm(self, ambient_store, tiny_shards):
        graph = make_random_graph(num_vertices=80, num_edges=400, seed=1)
        app = workloads.make_app("PR")
        with ShardStreamDispatch(graph, app) as dispatch:
            assert dispatch.cold
        with ShardStreamDispatch(graph, app) as dispatch:
            # Second open finds the manifest the first one published.
            assert not dispatch.cold

    def test_prespill_makes_dispatch_warm(self, ambient_store, tiny_shards):
        graph = make_random_graph(num_vertices=80, num_edges=400, seed=2)
        spill_graph(graph, ambient_store)
        with ShardStreamDispatch(graph, workloads.make_app("PR")) as d:
            assert not d.cold

    @pytest.mark.parametrize("damage", ["corrupt", "truncate"])
    def test_damaged_shard_is_typed_error(
        self, store, ambient_store, tiny_shards, damage
    ):
        graph = make_random_graph(num_vertices=80, num_edges=400, seed=4)
        digest = spill_graph(graph, store)
        blob = bytearray(store.get_shard_blob(digest, "in", 0))
        if damage == "corrupt":
            blob[-1] ^= 0xFF
        else:
            blob = blob[: len(blob) // 2]
        manifest, _ = store.get_shard_manifest(digest, "in")
        store.put_shard_blob(
            digest, "in", 0, bytes(blob), manifest["shards"][0]
        )
        spilled = load_spilled(store, digest)
        app = workloads.make_app("PR")
        app.bind(spilled)  # dispatches take a bound app
        with ShardStreamDispatch(spilled, app) as d:
            ids = np.arange(spilled.num_vertices, dtype=np.int64)
            with pytest.raises(StoreError):
                d.gather(ids)

    def test_missing_part_is_typed_error(self, store):
        with pytest.raises(StoreError, match="repro cache shard"):
            store.get_shard_blob("deadbeef", "in", 0)

    def test_spilled_csr_refuses_edge_access(self, store):
        graph = make_random_graph(num_vertices=40, num_edges=160, seed=5)
        spilled = load_spilled(store, spill_graph(graph, store))
        assert spilled.num_vertices == graph.num_vertices
        assert spilled.num_edges == graph.num_edges
        with pytest.raises(EngineError):
            spilled.out_csr.indices
        with pytest.raises(EngineError):
            spilled.out_csr.weights
        with pytest.raises(StoreError):
            load_spilled(store, "0000000000000000")


class TestKnobs:
    def test_ambient_resolution_and_restore(self):
        with configured(shard_mb=2.5, shard_cache=7):
            assert resolve("shard_mb") == 2.5
            assert resolve("shard_cache") == 7
            # Explicit beats configured.
            assert resolve("shard_mb", 1.0) == 1.0
            assert resolve("shard_cache", 3) == 3
        assert resolve("shard_cache") == KNOBS["shard_cache"].default

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_MB", "0.5")
        monkeypatch.setenv("REPRO_SHARD_CACHE", "9")
        assert resolve("shard_mb") == 0.5
        assert resolve("shard_cache") == 9

    @pytest.mark.parametrize("bad", [0, -1, "x", float("nan"), True])
    def test_bad_shard_mb_rejected(self, bad):
        with pytest.raises(EngineError):
            with configured(shard_mb=bad):
                pass

    @pytest.mark.parametrize("bad", [0, -3, "x", 1.5])
    def test_bad_shard_cache_rejected(self, bad):
        with pytest.raises(EngineError):
            with configured(shard_cache=bad):
                pass

    def test_peak_rss_positive_on_linux(self):
        assert peak_rss_bytes() >= 0


class TestObservability:
    def test_shard_io_events_and_metrics(self, tiny_shards):
        from repro.obs.metrics import registry_from_trace
        from repro.obs.report import build_report
        from repro.trace import recorder as ev
        from repro.trace.recorder import TraceRecorder

        recorder = TraceRecorder()
        run_workload("SLFE", "PR", GRAPH_KEY, recorder=recorder,
                     backend="ooc")
        events = recorder.events_named(ev.SHARD_IO)
        assert events
        assert sum(e.payload["shards"] for e in events) > 0

        from repro.obs import render_openmetrics

        registry = registry_from_trace(recorder)
        text = render_openmetrics(registry)
        assert "repro_ooc_shards_read" in text
        assert "repro_ooc_peak_rss_bytes" in text
        report = build_report(recorder)
        assert report["ooc"] is not None
        assert report["ooc"]["shards_read"] > 0


# ----------------------------------------------------------------------
# satellites
# ----------------------------------------------------------------------
class TestChunkedEdgeList:
    def _write(self, path, lines):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")

    def test_duplicate_across_chunk_boundary(self, tmp_path, monkeypatch):
        # Chunk size 3: the duplicate of the first edge lands in the
        # second chunk — per-chunk counting would miss it.
        monkeypatch.setattr(graph_io, "_CHUNK_LINES", 3)
        path = str(tmp_path / "edges.txt")
        self._write(path, [
            "0 1", "1 2", "2 2",          # chunk one (one self-loop)
            "3 4", "0 1", "4 5",          # chunk two (dup of edge one)
        ])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            graph = graph_io.read_edge_list(path)
        reports = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(reports) == 1
        message = str(reports[0].message)
        assert "1 self-loop(s)" in message
        assert "1 duplicate edge(s)" in message
        assert graph.num_edges == 6  # kept as-is, only reported

    def test_chunked_equals_unchunked(self, tmp_path, monkeypatch):
        path = str(tmp_path / "edges.txt")
        rng = np.random.default_rng(7)
        lines = [
            "%d %d %.3f" % (rng.integers(0, 50), rng.integers(0, 50),
                            rng.uniform(1, 10))
            for _ in range(200)
        ]
        self._write(path, lines)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            whole = graph_io.read_edge_list(path)
            monkeypatch.setattr(graph_io, "_CHUNK_LINES", 16)
            chunked = graph_io.read_edge_list(path)
        assert np.array_equal(whole.out_csr.indptr, chunked.out_csr.indptr)
        assert np.array_equal(
            whole.out_csr.indices, chunked.out_csr.indices
        )
        assert np.array_equal(
            whole.out_csr.weights, chunked.out_csr.weights
        )

    def test_clean_file_stays_silent(self, tmp_path):
        path = str(tmp_path / "edges.txt")
        self._write(path, ["0 1", "1 2", "2 0"])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            graph_io.read_edge_list(path)
        assert not [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]


class TestNpzRoundTrip:
    def test_name_with_separators_round_trips(self, tmp_path):
        graph = make_random_graph(num_vertices=30, num_edges=90, seed=8)
        graph.name = "snap/soc-LiveJournal1" + os.sep + "v2"
        path = str(tmp_path / "graph.npz")
        graph_io.save_npz(graph, path)
        # The file itself landed where asked — the name did not open a
        # subdirectory.
        assert os.path.exists(path)
        loaded = graph_io.load_npz(path)
        assert loaded.name == graph_io.sanitize_graph_name(graph.name)
        assert "/" not in loaded.name and "\\" not in loaded.name
        assert np.array_equal(
            loaded.out_csr.indices, graph.out_csr.indices
        )

    def test_manifest_mismatch_is_typed(self, tmp_path):
        graph = make_random_graph(num_vertices=30, num_edges=90, seed=9)
        path = str(tmp_path / "graph.npz")
        graph_io.save_npz(graph, path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {key: data[key] for key in data.files}
        arrays["manifest"] = np.asarray(
            [graph.num_vertices + 1, graph.num_edges], dtype=np.int64
        )
        np.savez_compressed(path, **arrays)
        with pytest.raises(GraphIOError, match="manifest says"):
            graph_io.load_npz(path)

    def test_sanitize_strips_traversal(self):
        assert ".." not in graph_io.sanitize_graph_name("../../etc/passwd")
        assert "/" not in graph_io.sanitize_graph_name("a/b/c")


class TestStoreHygiene:
    def test_sweep_orphans(self, store):
        graph = make_random_graph(num_vertices=20, num_edges=60, seed=10)
        spill_graph(graph, store)
        graphs_dir = os.path.join(store.root, "graphs")
        os.makedirs(graphs_dir, exist_ok=True)
        orphan = os.path.join(graphs_dir, "orphan-payload.npz")
        stale = os.path.join(graphs_dir, "half-written.npz.tmp")
        with open(orphan, "wb") as handle:
            handle.write(b"x")
        with open(stale, "wb") as handle:
            handle.write(b"x")
        assert store.sweep_orphans() == 2
        assert not os.path.exists(orphan)
        assert not os.path.exists(stale)
        # Real entries survived the sweep.
        assert store.entries()

    def test_clear_counts_orphans(self, store):
        graph = make_random_graph(num_vertices=20, num_edges=60, seed=11)
        spill_graph(graph, store)
        entries = len(store.entries())
        orphan = os.path.join(store.root, "graphs", "orphan.npz")
        os.makedirs(os.path.dirname(orphan), exist_ok=True)
        with open(orphan, "wb") as handle:
            handle.write(b"x")
        assert store.clear() == entries + 1
        assert store.entries() == []

    def test_eviction_leaves_no_orphans(self, tmp_path):
        # A capped store that must evict while a writer is publishing:
        # whatever survives, payloads and sidecars stay paired.
        small = ArtifactStore(str(tmp_path / "small"), max_bytes=40_000)
        for seed in range(6):
            graph = make_random_graph(
                num_vertices=60, num_edges=300, seed=seed
            )
            spill_graph(graph, small)
        assert small.sweep_orphans() == 0


class TestExpandRowDsts:
    def test_matches_csr_expansion(self):
        from repro.core.runtime import expand_row_dsts

        graph = make_random_graph(num_vertices=60, num_edges=400, seed=12)
        csr = graph.out_csr
        ids = np.arange(0, 60, 3, dtype=np.int64)
        _, expected, _ = csr.expand_sources(ids)
        got = expand_row_dsts(csr.indptr, csr.indices, ids)
        assert np.array_equal(got, expected)

    def test_empty_ids(self):
        from repro.core.runtime import expand_row_dsts

        graph = make_random_graph(num_vertices=10, num_edges=30, seed=13)
        csr = graph.out_csr
        got = expand_row_dsts(
            csr.indptr, csr.indices, np.empty(0, dtype=np.int64)
        )
        assert got.size == 0

    def test_unsorted_ids_rejected_by_dispatch(self, tiny_shards):
        graph = make_random_graph(num_vertices=40, num_edges=200, seed=14)
        app = workloads.make_app("PR")
        app.bind(graph)  # dispatches take a bound app
        with ShardStreamDispatch(graph, app) as d:
            with pytest.raises(EngineError, match="ascending"):
                d.gather(np.array([5, 2], dtype=np.int64))
