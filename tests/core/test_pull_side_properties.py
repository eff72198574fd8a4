"""A min/max pull reads the side with fewer edges, and no run can tell.

Below |E| / 2 active out-edges a pull superstep pushes the frontier
once; when the started destinations' in-edges outnumber those
out-edges, their results come from the pushed candidates instead of a
full gather, and only the catch-ups keep the gather.  The oracle is the
dense pull, forced by patching the side choice
(``engine._frontier_is_cheaper``) to refuse the frontier; what must not
move is a byte of the values, the iteration count, or any superstep's
edge ops, updates and messages:

* property: Hypothesis graphs (self-loops, duplicate edges, zero and
  negative weights, isolated and disconnected vertices, empty and
  single-vertex graphs)
  x SSSP / CC / BFS / WP x RR on and off x ``dense_denominator`` x
  serial / ooc, with and without a crash + rollback;
* matrix: seeded social graphs on serial, pool and ooc, where the
  frontier side is really taken;
* precondition: no vertex outside ``initial_frontier`` proposes a
  candidate that beats an out-neighbour's initial value — what lets a
  started destination ignore every in-neighbour outside the frontier.
"""

import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps import BFS, SSSP, ConnectedComponents, WidestPath
from repro.bench.workloads import default_root, experiment_cluster
from repro.cluster.faults import FaultPlan
from repro.core import engine as engine_mod
from repro.core.engine import SLFEEngine
from repro.graph import generators
from repro.graph.graph import Graph
from repro.runconfig import configured

NODES = 2
CRASH = "crash@3:1"
APPS = {"SSSP": SSSP, "CC": ConnectedComponents, "BFS": BFS,
        "WP": WidestPath}
ROOTED = ("SSSP", "BFS", "WP")

needs_shm = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="the pool needs /dev/shm"
)

_WEIGHTS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 7.0, -1.0, -3.0])


@st.composite
def runs(draw):
    """``(graph, app name, root)``: unconstrained endpoint draws on a
    small vertex range give self-loops, duplicate edges and isolated
    vertices; ``n == 0`` is the empty graph (CC only: the rooted apps
    need a root), ``n == 1`` a single vertex."""
    name = draw(st.sampled_from(sorted(APPS)))
    n = draw(st.integers(1 if name in ROOTED else 0, 20))
    m = draw(st.integers(0, 80)) if n else 0
    endpoint = st.integers(0, max(n - 1, 0))
    srcs = draw(st.lists(endpoint, min_size=m, max_size=m))
    dsts = draw(st.lists(endpoint, min_size=m, max_size=m))
    weights = np.asarray(
        draw(st.lists(_WEIGHTS, min_size=m, max_size=m)), dtype=np.float64
    )
    if name == "SSSP":
        weights = np.abs(weights)  # SSSP rejects negative weights
    graph = Graph.from_edges(
        n, (np.asarray(srcs, dtype=np.int64), np.asarray(dsts, dtype=np.int64)),
        weights,
    )
    root = draw(st.integers(0, n - 1)) if name in ROOTED else None
    return graph, name, root


def _fingerprint(result):
    records = result.metrics.records
    return (
        result.values.tobytes(),
        result.iterations,
        [r.mode for r in records],
        [r.edge_ops_per_node.tolist() for r in records],
        [r.updates for r in records],
        [r.messages for r in records],
        result.degraded,
    )


def _run(graph, name, root, enable_rr=True, denominator=20,
         backend="serial", crash=False):
    engine = SLFEEngine(
        graph, config=experiment_cluster(num_nodes=NODES),
        enable_rr=enable_rr, dense_denominator=denominator,
        backend=backend, num_workers=2 if backend == "parallel" else None,
        fault_plan=FaultPlan.parse(CRASH, num_nodes=NODES) if crash else None,
        checkpoint_every=2 if crash else None,
    )
    if backend != "ooc":
        return engine.run_minmax(APPS[name](), root=root)
    # ~10 KiB shards behind a two-shard cache: every expansion streams.
    with configured(shard_mb=0.01, shard_cache=2):
        return engine.run_minmax(APPS[name](), root=root)


def _dense_and_chosen(patch, *args, **kwargs):
    """``(dense oracle, the engine's choice, frontier-side supersteps)``."""
    taken = [0]
    pull_from_frontier = engine_mod._pull_from_frontier

    def counting(*a):
        taken[0] += 1
        return pull_from_frontier(*a)

    patch.setattr(engine_mod, "_frontier_is_cheaper", lambda *a: False)
    dense = _fingerprint(_run(*args, **kwargs))
    patch.undo()
    patch.setattr(engine_mod, "_pull_from_frontier", counting)
    chosen = _fingerprint(_run(*args, **kwargs))
    patch.undo()
    return dense, chosen, taken[0]


@given(
    runs(),
    st.booleans(),
    st.sampled_from([2, 20, 200]),
    st.sampled_from(["serial", "ooc"]),
    st.booleans(),
)
def test_either_side_is_the_dense_pull(case, enable_rr, denominator,
                                       backend, crash):
    graph, name, root = case
    with pytest.MonkeyPatch.context() as patch:
        dense, chosen, _ = _dense_and_chosen(
            patch, graph, name, root, enable_rr, denominator, backend, crash
        )
    assert chosen == dense


@pytest.fixture(scope="module")
def social():
    graph = generators.social_network(
        600, avg_degree=14, shortcut_density=0.05, hub_bias=1.5, seed=7
    )
    return graph, generators.random_weights(graph, 1.0, 10.0, seed=7)


@pytest.mark.parametrize("name", sorted(APPS))
@pytest.mark.parametrize("enable_rr", [True, False], ids=["rr", "norr"])
@pytest.mark.parametrize("backend", [
    "serial", pytest.param("parallel", marks=needs_shm), "ooc",
])
@pytest.mark.parametrize("crash", [False, True], ids=["clean", "crash"])
def test_frontier_side_is_taken_and_matches_dense(
    monkeypatch, social, name, enable_rr, backend, crash
):
    graph = social[0] if name in ("CC", "BFS") else social[1]
    root = default_root(graph) if name in ROOTED else None
    dense, chosen, taken = _dense_and_chosen(
        monkeypatch, graph, name, root, enable_rr, 20, backend, crash
    )
    assert chosen == dense
    assert taken > 0  # the frontier side really stood in for a pull


@pytest.mark.parametrize("name", sorted(APPS))
@given(case=runs())
def test_no_idle_vertex_beats_an_initial_value(name, case):
    graph, _, root = case
    if name in ROOTED and graph.num_vertices == 0:
        return
    if name in ROOTED and root is None:
        root = 0
    if name == "SSSP":
        graph = graph.with_weights(np.abs(graph.out_csr.weights))
    app = APPS[name]()
    run_graph = app.prepare(graph)
    values = app.initial_values(run_graph, root)
    idle = np.ones(run_graph.num_vertices, dtype=bool)
    idle[app.initial_frontier(run_graph, root)] = False
    srcs, dsts, weights = run_graph.out_csr.expand_sources(
        np.flatnonzero(idle)
    )
    candidates = app.edge_candidates(values, srcs, weights)
    assert not app.better(candidates, values[dsts]).any()


@st.composite
def mixed_runs(draw):
    """``(graph, app name, root)``: a dense random core (pull
    supersteps) with a path hanging off it (push supersteps)."""
    name = draw(st.sampled_from(["SSSP", "CC", "WP"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    core, tail = draw(st.integers(20, 60)), draw(st.integers(8, 30))
    chain = np.arange(core - 1, core + tail - 1)
    srcs = np.concatenate([rng.integers(0, core, 6 * core), chain])
    dsts = np.concatenate([rng.integers(0, core, 6 * core), chain + 1])
    weights = rng.choice([0.5, 1.0, 2.0, 7.0], srcs.size)
    graph = Graph.from_edges(core + tail, (srcs, dsts), weights)
    return graph, name, None if name == "CC" else 0


@given(mixed_runs(), st.booleans())
def test_every_committed_frontier_is_strictly_ascending(case, enable_rr):
    """``_StartLate.commit`` adopts ``changed`` as the frontier's ids
    unchecked: from pull and push supersteps alike it must be strictly
    ascending and within the vertex range."""
    graph, name, root = case
    committed = []
    commit = engine_mod._StartLate.commit

    def recording(step, changed):
        committed.append(changed.copy())
        return commit(step, changed)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_mod._StartLate, "commit", recording)
        result = _run(graph, name, root, enable_rr)
    modes = [record.mode for record in result.metrics.records]
    assert {"push", "pull"} <= set(modes)
    assert len(committed) == len(modes)
    for changed in committed:
        assert changed.dtype == np.int64
        assert (changed[1:] > changed[:-1]).all()
        assert not changed.size or 0 <= changed[0] <= changed[-1] < graph.num_vertices
