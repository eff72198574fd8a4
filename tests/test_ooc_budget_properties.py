"""A shard is planned at the bytes it stores, and the LRU keeps to it.

``--shard-mb`` is the uncompressed size of one shard and ``--shard-cache``
the number of decoded shards kept, so ``shard_cache × shard_mb`` bounds
the resident edge bytes.  What must hold, for unit-weight and weighted
graphs, any shard size and any cache capacity:

* every shard of two or more rows stores at most ``shard_mb`` MiB raw
  (a unit edge 8 B, a weighted one 16), and the planner fills it: the
  next row would not have fitted;
* after every phase of a random run the LRU holds at most ``capacity``
  decoded shards, and their bytes are at most ``capacity × shard_mb``
  with a single row above the budget counted at its own size (one such
  row cached: ``capacity × shard_mb`` plus the largest single-row shard).
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.apps import SSSP, PageRank
from repro.graph.shards import EDGE_BYTES, build_shards
from repro.ooc import ShardStreamDispatch

from tests.conftest import make_random_graph

graphs = st.builds(
    make_random_graph,
    num_vertices=st.integers(1, 40),
    num_edges=st.integers(0, 400),
    seed=st.integers(0, 2**16),
    weighted=st.booleans(),  # False: unit weights, 8 B an edge
)

#: Shard budgets from one edge to a few hundred.
budgets = st.integers(8, 4096)


def _decoded_bytes(shard):
    """What a decoded shard keeps resident: indices, and weights unless
    they are the stride-0 unit view."""
    weights = 0 if shard.weights.strides == (0,) else shard.weights.nbytes
    return shard.indices.nbytes + weights


@given(graphs, budgets)
def test_every_multi_row_shard_fits_the_budget_and_fills_it(graph, budget):
    shard_mb = budget / 2**20
    for csr in (graph.in_csr, graph.out_csr):
        edge_bytes = 8 if csr.unit_weights else EDGE_BYTES
        manifest, _ = build_shards(csr, shard_mb)
        shards = manifest["shards"]
        for entry, following in zip(shards, shards[1:] + [None]):
            if entry["hi"] - entry["lo"] > 1:
                assert entry["raw_bytes"] <= budget, entry
            if following is not None:
                # Cut only where the next row would overflow the budget.
                next_row = int(csr.indptr[entry["hi"] + 1]
                               - csr.indptr[entry["hi"]])
                assert (entry["edges"] + next_row) * edge_bytes > budget


#: The phases each app runs; both expand in either direction.
PHASES = {
    PageRank: ("gather", "expand_in", "expand_out"),
    SSSP: ("pull_apply", "push", "expand_in", "expand_out"),
}


@st.composite
def runs(draw):
    """An app and the phases of a random run: ``(phase, ids seed)``."""
    app_cls = draw(st.sampled_from(sorted(PHASES, key=lambda c: c.__name__)))
    step = st.tuples(st.sampled_from(PHASES[app_cls]), st.integers(0, 2**16))
    return app_cls, draw(st.lists(step, min_size=1, max_size=8))


def _run_phase(d, phase, ids):
    if phase == "gather":
        d.gather(ids)
    elif phase == "pull_apply":
        d.pull_apply(ids, "min")
    elif phase == "push":
        d.push(ids)
    elif phase == "expand_in":
        d.expand_in_srcs(ids)
    else:
        d.expand_out_dsts(ids)


@given(graphs, budgets, st.integers(1, 4), runs())
def test_the_lru_keeps_to_capacity_times_shard_mb(graph, budget, capacity,
                                                   run):
    app_cls, steps = run
    app = app_cls()
    if app_cls is PageRank:
        app.bind(graph)  # dispatches take a bound app for gather
    n = graph.num_vertices
    with ShardStreamDispatch(
        graph, app, shard_mb=budget / 2**20, shard_cache=capacity
    ) as d:
        d.values[...] = np.arange(n, dtype=np.float64)
        for phase, seed in steps:
            ids = np.flatnonzero(np.random.default_rng(seed).random(n) < 0.6)
            _run_phase(d, phase, ids)
            with d._stream._lock:
                cached = list(d._stream._cache.values())
            assert len(cached) <= capacity
            sizes = [_decoded_bytes(shard) for shard in cached]
            for shard, size in zip(cached, sizes):
                assert size <= budget or shard.hi - shard.lo == 1
            over = sum(max(0, size - budget) for size in sizes)
            assert sum(sizes) <= capacity * budget + over
