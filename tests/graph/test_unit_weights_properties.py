"""Unit weights are not data: one identity property for the rule.

A CSR whose weights are absent, or exactly 1.0 on every edge, stores them
as one read-only stride-0 1.0 (``csr.unit_view``), and every layer that
derives weights from weights — the transpose, the symmetrised view, a
spilled shard, the pool's shared blocks — keeps it that way instead of
materialising ones.  What must hold:

* wherever an unweighted graph's weights surface — the CSRs, their
  shards, and every ``expand_sources`` of either — they are stride-0,
  byte-equal to ``np.ones(m)`` and refuse writes;
* weights with a single entry that is not exactly 1.0 (``-0.0``,
  ``1.0 + ulp``, anything weighted) stay contiguous, byte-equal arrays;
* ``graph_fingerprint`` — and with it every store key and guidance
  digest — hashes the same bytes as before the rule existed.
"""

import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import parallel
from repro.apps import SSSP
from repro.core.runtime import SerialDispatch
from repro.graph.csr import CSR
from repro.graph.graph import Graph
from repro.graph.shards import ShardSlice, build_shards, decode_shard
from repro.store import graph_fingerprint

#: ~4 edges per shard (a unit edge is planned at the 8 B it stores): a
#: few dozen edges make several shards.
SHARD_MB = 4 * 8 / 2**20


@st.composite
def multigraphs(draw):
    """Self-loops, duplicate edges and isolated vertices come out of
    unconstrained endpoint draws on a small vertex range; ``n == 0`` is
    the empty graph, ``n == 1`` a single vertex."""
    n = draw(st.integers(0, 12))
    m = draw(st.integers(0, 40)) if n else 0
    endpoint = st.integers(0, max(n - 1, 0))
    srcs = draw(st.lists(endpoint, min_size=m, max_size=m))
    dsts = draw(st.lists(endpoint, min_size=m, max_size=m))
    return Graph.from_edges(
        n, (np.asarray(srcs, dtype=np.int64), np.asarray(dsts, dtype=np.int64))
    )


def _shard_weights(csr):
    """Every shard of ``csr``, spilled and decoded: its weights."""
    manifest, blobs = build_shards(csr, SHARD_MB)
    return [decode_shard(blob, meta)[1]
            for meta, blob in zip(manifest["shards"], blobs)]


def _assert_unit(weights, m):
    assert weights.dtype == np.float64 and weights.shape == (m,)
    assert weights.tobytes() == np.ones(m).tobytes()
    assert weights.strides == (0,) and not weights.flags.writeable
    with pytest.raises(ValueError):
        weights[...] = 2.0


@given(multigraphs(), st.booleans())
def test_unweighted_graphs_hold_unit_views_everywhere(graph, explicit):
    if explicit:  # ones given as data are recognised as ones
        graph = graph.with_weights(np.ones(graph.num_edges))
    m = graph.num_edges
    for csr in (graph.out_csr, graph.in_csr):
        assert csr.unit_weights
        _assert_unit(csr.weights, m)
        assert sum(w.size for w in _shard_weights(csr)) == m
        for weights in _shard_weights(csr):
            _assert_unit(weights, weights.size)
    view = graph.undirected_view().out_csr
    assert view.unit_weights
    _assert_unit(view.weights, 2 * m)
    # Slices and gathers of the view are the ones they stand for.
    ids = np.arange(graph.num_vertices, dtype=np.int64)[::-1]
    _, _, gathered = graph.out_csr.expand_sources(ids)
    assert gathered.tobytes() == np.ones(m).tobytes()


@given(multigraphs(), st.sampled_from(["contiguous", "ragged", "repeated",
                                        "empty"]), st.data())
def test_expanded_unit_weights_are_views_not_ones(graph, kind, data):
    """``expand_sources`` of a unit CSR, and of each of its spilled
    shards, hands out the stride-0 view for any id list — not a gather
    into a fresh all-ones array."""
    n = graph.num_vertices
    endpoint = st.integers(0, max(n - 1, 0))
    if kind == "empty" or n == 0:
        ids = []
    elif kind == "contiguous":
        lo = data.draw(endpoint)
        ids = list(range(lo, data.draw(st.integers(lo, n - 1)) + 1))
    elif kind == "ragged":
        ids = sorted(set(data.draw(st.lists(endpoint, max_size=n))))
    else:  # unsorted, every id at least twice
        ids = data.draw(st.lists(endpoint, max_size=n)) * 2
    ids = np.asarray(ids, dtype=np.int64)
    for csr in (graph.out_csr, graph.in_csr):
        _, dsts, weights = csr.expand_sources(ids)
        _assert_unit(weights, dsts.size)
        assert dsts.size == int(csr.degrees()[ids].sum())
        manifest, blobs = build_shards(csr, SHARD_MB)
        for meta, blob in zip(manifest["shards"], blobs):
            indices, unit = decode_shard(blob, meta)
            shard = ShardSlice(meta["lo"], meta["hi"], meta["base"],
                               csr.indptr, indices, unit)
            mine = ids[(ids >= shard.lo) & (ids < shard.hi)]
            _, dsts, weights = shard.expand_sources(mine)
            _assert_unit(weights, dsts.size)
            assert dsts.size == int(csr.degrees()[mine].sum())


#: One entry that is not exactly 1.0 keeps the weights data.
ODD_ONES = [-0.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 0.5, np.nan]


@given(multigraphs(), st.sampled_from(ODD_ONES), st.data())
def test_weights_that_are_not_all_ones_stay_data(graph, odd, data):
    m = graph.num_edges
    if m == 0:
        return
    weights = np.ones(m)
    weights[data.draw(st.integers(0, m - 1))] = odd
    weighted = graph.with_weights(weights)
    out, inc = weighted.out_csr, weighted.in_csr
    assert out.weights.tobytes() == weights.tobytes()
    perm = graph.out_csr.transpose_permutation()
    assert inc.weights.tobytes() == weights[perm].tobytes()
    view = weighted.undirected_view().out_csr
    for csr in (out, inc, view):
        assert not csr.unit_weights
        assert csr.weights.flags.c_contiguous and csr.weights.strides == (8,)
        assert not csr.weights.flags.writeable
    # A shard is unit or not by its own content: the odd one's shard
    # keeps its bytes, and every shard decodes to the CSR's slice.
    assert (b"".join(w.tobytes() for w in _shard_weights(out))
            == out.weights.tobytes())


def test_fingerprints_are_the_parent_commits():
    """Digests computed before unit weights were a view: same bytes, same
    dtype, same shape, so store keys and guidance digests did not move."""
    e = np.arange(200, dtype=np.int64)
    cases = [
        (Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 2), (0, 1)]),
         "3b35ebfb639d5aa3f42493e38d866333f15519689c59714d8254869cbb4a6329"),
        (Graph.from_edges(50, ((e * 7) % 50, (e * 13 + 5) % 50)),
         "997184c6cb0bc1e5182e4a9382463fb5ce882d301eeac4b63c762d0a98bb998c"),
        (Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)], [0.5, 1.0, 2.0]),
         "9520bb6c60ff7fd1447c247fddd6763e528bc87391953c9a2e998a45bb7f11b6"),
        (Graph.from_edges(1, np.empty((0, 2))),
         "e9f00663bd9ed6817b6db1b0e25519097de4438a90166508e70b6d40d1f47578"),
    ]
    for graph, digest in cases:
        assert graph_fingerprint(graph)["digest"] == digest
        # A contiguous array of ones is the same content.
        ones = Graph(CSR(graph.out_csr.indptr, graph.out_csr.indices,
                         np.ascontiguousarray(graph.out_csr.weights)))
        assert graph_fingerprint(ones)["digest"] == digest


def _pool_graph():
    rng = np.random.default_rng(4)
    srcs = np.concatenate([rng.integers(0, 40, 300), np.arange(5)])
    dsts = np.concatenate([rng.integers(0, 40, 300), np.arange(5)])
    return Graph.from_edges(48, (srcs, dsts))  # 40..47 isolated


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="the pool needs /dev/shm")
@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_pool_shares_no_unit_weights_and_its_workers_read_ones(start_method):
    if start_method not in parallel.mp.get_all_start_methods():
        pytest.skip("no %s start method here" % start_method)
    graph = _pool_graph()
    app = SSSP()  # its pull reads the weights the worker rebuilt
    ids = np.flatnonzero(graph.in_degrees()).astype(np.int64)
    values = np.random.default_rng(1).uniform(0.0, 9.0, graph.num_vertices)
    serial = SerialDispatch(graph, app)
    serial.values[...] = values
    serial.pull_apply(ids, "min")
    with parallel.ParallelExecutor(
        graph, app, num_workers=1, start_method=start_method,
        max_respawns=0, allow_degrade=True,
    ) as ex:
        assert not [key for key in ex._spec if key.endswith("_weights")]
        # The CSRs a worker builds over the blocks it attaches; the
        # handles stay open while their views are read.
        handles = {key: parallel._attach(name)
                   for key, (name, _, _) in ex._spec.items()
                   if key.startswith(("in_", "out_"))}
        arrays = {key: np.ndarray(ex._spec[key][1], ex._spec[key][2],
                                  buffer=shm.buf)
                  for key, shm in handles.items()}
        for csr in parallel._shared_csrs(arrays):
            _assert_unit(csr.weights, graph.num_edges)
        del arrays, csr
        for shm in handles.values():
            shm.close()
        ex.values[...] = values
        ex.pull_apply(ids, "min")
        assert ex.result[ids].tobytes() == serial.result[ids].tobytes()
        # The degraded inline path reads the run graph's own CSRs.
        ex._procs[0].kill()
        ex._procs[0].join(timeout=5)
        ex.pull_apply(ids, "min")
        assert ex.degraded
        for csr in ex._csr.values():
            _assert_unit(csr.weights, graph.num_edges)
        assert ex.result[ids].tobytes() == serial.result[ids].tobytes()
    weighted = graph.with_weights(np.linspace(1.0, 3.0, graph.num_edges))
    with parallel.ParallelExecutor(weighted, app, num_workers=1,
                                   start_method=start_method) as ex:
        assert {"in_weights", "out_weights"} <= set(ex._spec)
