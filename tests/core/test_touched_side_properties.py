"""A pull superstep's touched set is the same mask read from either side,
the engine reads the cheaper one, and min/max runs cannot tell.

Three layers of evidence:

* property: for random graph x frontier, the idle side (``bincount`` of
  the idle vertices' out-edges against the in-degree) and the
  full-frontier shortcut give exactly the mask the scatter of the
  frontier's out-edges does (kept here as the oracle); below |E| / 2
  the engine scatters the ``dsts`` of the frontier's push itself;
* counting: on seeded social graphs every pull superstep reads
  ``min(active out-edges, |E| - active out-edges)`` edges for its
  touched set (the frontier's push, or the idle side's expansion), and
  both sides really occur;
* matrix: CC and SSSP, RR on and off, on serial / pool / ooc, with the
  switch forced to each side: values, ``total_edge_ops`` and every
  superstep's ``skipped`` equal the always-scatter serial run.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps import SSSP, ConnectedComponents
from repro.bench.workloads import default_root, experiment_cluster
from repro.core import engine as engine_mod
from repro.core.engine import SLFEEngine, _touched
from repro.core.frontier import Frontier, choose_mode
from repro.core.runtime import SerialDispatch
from repro.graph import generators
from repro.graph.graph import Graph
from repro.runconfig import configured

#: ``_IDLE_SIDE`` values that force the switch: every non-empty edge set
#: reads the idle side, or none does.
ALWAYS_IDLE = -1.0
ALWAYS_SCATTER = float("inf")
SIDES = (ALWAYS_IDLE, engine_mod._IDLE_SIDE, ALWAYS_SCATTER)


def scatter_touched(graph: Graph, frontier: Frontier) -> np.ndarray:
    """The parent commit's touched set: scatter the frontier's
    out-edges into a fresh mask."""
    touched = np.zeros(graph.num_vertices, dtype=bool)
    if frontier:
        touched[graph.out_csr.expand_sources(frontier.ids)[1]] = True
    return touched


@st.composite
def touched_cases(draw):
    n = draw(st.integers(1, 24))
    m = draw(st.integers(0, 90))
    # Self-loops, duplicate edges, isolated and zero-in-degree vertices
    # all come out of unconstrained endpoint draws on a small range.
    endpoint = st.integers(0, n - 1)
    srcs = draw(st.lists(endpoint, min_size=m, max_size=m))
    dsts = draw(st.lists(endpoint, min_size=m, max_size=m))
    graph = Graph.from_edges(
        n, (np.asarray(srcs, dtype=np.int64), np.asarray(dsts, dtype=np.int64))
    )
    kind = draw(st.sampled_from(["empty", "full", "sparse", "dense"]))
    if kind in ("empty", "full"):
        active = np.arange(n if kind == "full" else 0)
    else:
        # "dense" is the complement of a few vertices: past |E|/2 on
        # most graphs, where "sparse" mostly stays below it.
        few = draw(st.lists(endpoint, max_size=max(n // 4, 1)))
        picked = np.zeros(n, dtype=bool)
        picked[few] = True
        active = np.flatnonzero(picked if kind == "sparse" else ~picked)
    return graph, Frontier(n, active)


@given(touched_cases())
def test_either_side_gives_the_scatter_mask(case):
    graph, frontier = case
    expected = scatter_touched(graph, frontier)
    dispatch = SerialDispatch(graph, SSSP())
    touched = _touched(dispatch, frontier, dispatch.in_degrees > 0)
    assert touched.dtype == bool
    assert touched.tobytes() == expected.tobytes()
    pushed = np.zeros(graph.num_vertices, dtype=bool)
    pushed[dispatch.push(frontier.ids)[0]] = True
    assert pushed.tobytes() == expected.tobytes()


def test_full_frontier_expands_nothing():
    graph = generators.social_network(200, avg_degree=8, seed=3)
    dispatch = SerialDispatch(graph, SSSP())

    def refuse(ids):
        raise AssertionError("a full frontier expanded %d ids" % ids.size)

    dispatch.expand_out_dsts = refuse
    frontier = Frontier.all_vertices(graph.num_vertices)
    touched = _touched(dispatch, frontier, dispatch.in_degrees > 0)
    assert touched.tobytes() == scatter_touched(graph, frontier).tobytes()


def _app(graph, app_name):
    """A fresh ``(app, root)`` for one min/max run."""
    if app_name == "CC":
        return ConnectedComponents(), None
    return SSSP(), default_root(graph)


# ----------------------------------------------------------------------
# counting: each pull superstep expands the cheaper side
# ----------------------------------------------------------------------
@pytest.mark.parametrize("app_name", ["CC", "SSSP"])
@pytest.mark.parametrize("seed", [3, 7])
def test_pull_expands_the_cheaper_side_every_superstep(
    monkeypatch, app_name, seed
):
    graph = generators.social_network(
        600, avg_degree=14, shortcut_density=0.05, hub_bias=1.5, seed=seed
    )
    # Edges read per superstep, by the frontier's push or the idle
    # side's expansion, and each superstep's active out-edges.
    expanded, active = [], []

    class CountingDispatch(SerialDispatch):
        def begin_superstep(self, superstep):
            super().begin_superstep(superstep)
            expanded.append(0)

        def expand_out_dsts(self, ids):
            out = super().expand_out_dsts(ids)
            expanded[-1] += out.size
            return out

        def push(self, ids):
            out = super().push(ids)
            expanded[-1] += out[0].size
            return out

    def recording(active_edges, num_edges, denominator):
        active.append(active_edges)
        return choose_mode(active_edges, num_edges, denominator)

    monkeypatch.setattr(engine_mod, "SerialDispatch", CountingDispatch)
    monkeypatch.setattr(engine_mod, "choose_mode", recording)
    if app_name == "SSSP":
        graph = generators.random_weights(graph, 1.0, 10.0, seed=seed)
    app, root = _app(graph, app_name)
    result = SLFEEngine(
        graph, config=experiment_cluster(num_nodes=4)
    ).run_minmax(app, root=root)
    edges = result.graph.num_edges  # CC's symmetrised run graph
    sides = [
        (cost, a) for cost, a, record in
        zip(expanded, active, result.metrics.records)
        if record.mode == "pull"
    ]
    assert sides
    assert [cost for cost, _ in sides] == [
        min(a, edges - a) for _, a in sides
    ]
    if app_name == "CC":
        # The all-vertex start, then a frontier past |E|/2 that is not
        # full (idle side), then small ones (the frontier's push).
        assert sides[0] == (0, edges)
        assert any(0 < edges - a < a for _, a in sides)
    assert any(0 < a <= edges - a for _, a in sides)


# ----------------------------------------------------------------------
# matrix: whole runs with the switch forced each way
# ----------------------------------------------------------------------
def _fingerprint(result):
    metrics = result.metrics
    return (
        result.values.tobytes(),
        result.iterations,
        metrics.total_edge_ops,
        [record.skipped_vertices for record in metrics.records],
        [record.mode for record in metrics.records],
        result.degraded,  # the pool really ran its workers
    )


@pytest.fixture(scope="module")
def matrix_graphs():
    graph = generators.social_network(
        600, avg_degree=14, shortcut_density=0.05, hub_bias=1.5, seed=7
    )
    weighted = generators.random_weights(graph, 1.0, 10.0, seed=7)
    return {"CC": graph, "SSSP": weighted}


def _run(graph, app_name, enable_rr, backend):
    app, root = _app(graph, app_name)
    engine = SLFEEngine(
        graph, config=experiment_cluster(num_nodes=4), enable_rr=enable_rr,
        backend=backend, num_workers=2 if backend == "parallel" else None,
    )
    if backend != "ooc":
        return engine.run_minmax(app, root=root)
    # ~10 KiB shards behind a two-shard cache: every expansion streams.
    with configured(shard_mb=0.01, shard_cache=2):
        return engine.run_minmax(app, root=root)


@pytest.mark.parametrize("app_name", ["CC", "SSSP"])
@pytest.mark.parametrize("enable_rr", [True, False], ids=["rr", "norr"])
def test_forced_sides_match_the_scatter_on_every_backend(
    monkeypatch, matrix_graphs, app_name, enable_rr
):
    graph = matrix_graphs[app_name]
    monkeypatch.setattr(engine_mod, "_IDLE_SIDE", ALWAYS_SCATTER)
    expected = _fingerprint(_run(graph, app_name, enable_rr, "serial"))
    if enable_rr:
        assert sum(expected[3]) > 0  # start-late really skipped
    for backend in ("serial", "parallel", "ooc"):
        for side in SIDES:
            monkeypatch.setattr(engine_mod, "_IDLE_SIDE", side)
            got = _fingerprint(_run(graph, app_name, enable_rr, backend))
            assert got == expected, (backend, side)
