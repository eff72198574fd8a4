"""Shared fixtures, helpers and the suite-wide hygiene check.

The tiered Hypothesis profiles live in :mod:`tests.strategies.settings`
and are loaded here; every graph strategy lives in
:mod:`tests.strategies.graphs`.

Every test runs under :func:`hygiene`: after it, no shared-memory
segment this process created may still be linked, no
``multiprocessing`` child may be alive and no thread it started may
still run.  File descriptors are left out: the first pool a process
starts keeps three open for the life of the process.
"""

import os
import threading
import time
from multiprocessing import active_children, shared_memory
from unittest import mock

import numpy as np
import pytest

import tests.strategies.settings  # noqa: F401  (loads the profile)
from repro.graph import csr
from repro.graph.generators import figure1_graph
from repro.graph.graph import Graph
from repro.graph.shards import ShardSlice

HAS_SHM = os.path.isdir("/dev/shm")
needs_shm = pytest.mark.skipif(not HAS_SHM, reason="the pool needs /dev/shm")

#: Names of the shared-memory segments this process created, in order.
_CREATED = []


@pytest.fixture(scope="session", autouse=True)
def _record_segments():
    """Record the name of every segment created in this process."""
    init = shared_memory.SharedMemory.__init__

    def recording(self, name=None, create=False, size=0, **kwargs):
        init(self, name, create, size, **kwargs)
        if create:
            _CREATED.append(self.name)

    with mock.patch.object(shared_memory.SharedMemory, "__init__", recording):
        yield


class Segments:
    """The segments created since one test began."""

    def __init__(self):
        self._start = len(_CREATED)

    @property
    def created(self):
        return _CREATED[self._start:]

    def linked(self):
        return [name for name in self.created
                if os.path.exists(os.path.join("/dev/shm", name.lstrip("/")))]


def _settled(check, seconds=5.0):
    """``check()``'s leftovers, polled until empty or ``seconds`` pass:
    a killed child or a stopping thread may need a moment."""
    deadline = time.monotonic() + seconds
    while True:
        left = check()
        if not left or time.monotonic() > deadline:
            return left
        time.sleep(0.02)


@pytest.fixture(autouse=True)
def hygiene():
    """Fail a test that leaves a segment, a child or a thread behind;
    yields the :class:`Segments` record for tests that read it."""
    threads = set(threading.enumerate())
    segments = Segments()
    yield segments
    assert not _settled(segments.linked), "shared-memory segments left linked"
    assert not _settled(active_children), "multiprocessing children left alive"
    assert not _settled(lambda: [
        t for t in threading.enumerate() if t not in threads and t.is_alive()
    ]), "threads left running"


@pytest.fixture
def figure1():
    """The paper's Figure 1 example graph and its SSSP root."""
    return figure1_graph()


@pytest.fixture
def diamond():
    """A 4-vertex diamond DAG: 0 -> {1, 2} -> 3, unit weights."""
    edges = np.array([[0, 1], [0, 2], [1, 3], [2, 3]], dtype=np.int64)
    return Graph.from_edges(4, edges, name="diamond")


@pytest.fixture
def two_islands():
    """Two disconnected directed triangles: {0,1,2} and {3,4,5}."""
    edges = np.array(
        [[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]], dtype=np.int64
    )
    return Graph.from_edges(6, edges, name="two-islands")


def make_random_graph(num_vertices=50, num_edges=200, seed=0, weighted=True):
    """Small random digraph helper for tests that need variety."""
    rng = np.random.default_rng(seed)
    srcs = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    dsts = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    keep = srcs != dsts
    srcs, dsts = srcs[keep], dsts[keep]
    weights = rng.uniform(1.0, 10.0, size=srcs.size) if weighted else None
    return Graph.from_edges(num_vertices, (srcs, dsts), weights, name="random")


def pk_executor(**kwargs):
    """``(executor, run_graph)``: a worker pool over the weighted PK
    stand-in at its smallest, running ``app`` (SSSP by default)."""
    from repro.apps.sssp import SSSP
    from repro.bench import workloads
    from repro.parallel import ParallelExecutor

    graph = workloads.load_graph("PK", scale_divisor=16000, weighted=True)
    app = kwargs.pop("app", None) or SSSP()
    run_graph = app.prepare(graph)
    return ParallelExecutor(run_graph, app, **kwargs), run_graph


def pull_all(ex, run_graph):
    """One min pull over every vertex with an in-edge."""
    ids = np.arange(run_graph.num_vertices, dtype=np.int64)
    return ex.pull_apply(ids[run_graph.in_degrees() > 0], "min")


def each_span_cost():
    """Yield three times, with ``csr._SPAN_COST`` patched so the fused
    kernels take per-row positions for strictly ascending ids (edgeless
    spans aside), then always the covering span, then the shipped
    choice."""
    for cost in (0.0, float("inf"), csr._SPAN_COST):
        with mock.patch.object(csr, "_SPAN_COST", cost):
            yield cost


def shard_blocks(graph, ids, cut, direction="in"):
    """``(adjacency, ids)`` pairs to run a fused kernel over: the whole
    in-CSR (or out-CSR) when ``cut`` is ``None``, else the ascending
    ``ids`` split at row ``cut`` between two shards (the upper one with a
    non-zero ``base``), as the ooc dispatch hands them out."""
    n = graph.num_vertices
    csr_ = graph.in_csr if direction == "in" else graph.out_csr
    if cut is None:
        return [(csr_, ids)]
    cut = min(cut, n)
    base = int(csr_.indptr[cut])
    return [
        (ShardSlice(0, cut, 0, csr_.indptr, csr_.indices[:base],
                    csr_.weights[:base]), ids[ids < cut]),
        (ShardSlice(cut, n, base, csr_.indptr, csr_.indices[base:],
                    csr_.weights[base:]), ids[ids >= cut]),
    ]


def ragged_pool_blocks(graph, seed):
    """The pool's 256-task blocks of a ragged live list (a random 90 % of
    the vertices, ascending), at least one of which the shipped selector
    reads as a covering span with holes."""
    rng = np.random.default_rng(seed)
    ids = np.flatnonzero(rng.random(graph.num_vertices) < 0.9)
    blocks = [ids[lo:lo + 256] for lo in range(0, ids.size, 256)]
    degrees = graph.in_degrees()
    assert any(
        csr.covering_span(graph.in_csr.indptr, degrees, block) is not None
        and block[-1] - block[0] + 1 > block.size
        for block in blocks
    )
    return [(graph.in_csr, block) for block in blocks]
