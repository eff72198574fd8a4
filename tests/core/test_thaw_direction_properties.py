"""The finish-early thaw finds the same set from either side, expands
the cheaper one, and leaves PageRank+RR bit-identical on every backend.

Four layers of evidence:

* property: for random graph x EC mask x changed mask the push side
  (out-edges of the changed vertices) and the pull side (in-edges of the
  frozen vertices) thaw exactly the set the parent commit's
  ``np.unique`` formulation did;
* counting: on seeded social graphs the edges expanded for the thaw in
  each superstep equal ``min(sum in_deg[EC], sum out_deg[changed])``;
* side: the side is ranked by ``(shards to decode, edges)``.  In memory
  nothing is decoded and the edge rule above decides every superstep;
  out of core the side taken never decodes more than the other, and an
  in-direction that fits the cache is decoded once per run;
* matrix: PageRank+RR on serial / pool / ooc / degraded-inline / a
  crash-rollback plan against the parent commit's algorithm, kept here
  as a plain loop (general ``edge_contributions`` gather summed in
  edge order by ``np.bincount``, per-superstep ``nonzero``, push-only
  thaw through ``np.unique``).
"""

import os
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps import PageRank
from repro.bench.workloads import ARITH_TOLERANCE, experiment_cluster
from repro.cluster.costmodel import CostModel
from repro.cluster.faults import FaultPlan
from repro.core import engine as engine_mod
from repro.core.engine import (
    SLFEEngine,
    _thaw_from_changed,
    _thaw_from_frozen,
    _thaw_moved_inputs,
)
from repro.core.rrg import default_roots, generate_guidance
from repro.core.runtime import SerialDispatch
from repro.core.state import StabilityTracker
from repro.graph import generators
from repro.graph.graph import Graph
from repro.graph.shards import plan_shards
from repro.runconfig import configured
from repro.trace import recorder as trace_events
from repro.trace.recorder import TraceRecorder

from tests.conftest import needs_shm
from tests.strategies.graphs import digraphs

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

NODES = 4
EPSILON = 1e-7  # the engine's stability_epsilon default
MIN_STABLE_ROUNDS = 3  # ... and its min_stable_rounds


# ----------------------------------------------------------------------
# the parent commit's thaw, kept as the oracle
# ----------------------------------------------------------------------
def unique_push_thaw(graph: Graph, ec: np.ndarray, changed: np.ndarray):
    """Frozen out-neighbours of ``changed``, ascending (``np.unique``)."""
    dsts = graph.out_csr.expand_sources(changed)[1]
    return np.unique(dsts[ec[dsts]])


def _tracker_with_ec(ec: np.ndarray) -> StabilityTracker:
    tracker = StabilityTracker(np.ones(ec.size, dtype=np.int64))
    tracker.restore_state(np.full(ec.size, 5, dtype=np.int64), ec)
    return tracker


def _masks(n):
    """An ``n``-vertex mask: none, all, or any vertices set."""
    bits = st.lists(st.booleans(), min_size=n, max_size=n)
    return st.one_of(st.just([False] * n), st.just([True] * n), bits).map(
        lambda mask: np.asarray(mask, dtype=bool))


def thaw_cases():
    """``(graph, ec, changed)``: self-loops, duplicate edges, zero in- and
    out-degree vertices; two masks."""
    return digraphs(min_vertices=1, max_vertices=24, max_edges=90,
                    weights=(None,)).flatmap(lambda graph: st.tuples(
        st.just(graph), _masks(graph.num_vertices),
        _masks(graph.num_vertices)))


@given(thaw_cases())
def test_push_and_pull_thaw_the_same_set(case):
    graph, ec, changed_mask = case
    # Changed vertices are live ones; an all-frozen mask leaves none.
    changed_mask = changed_mask & ~ec
    changed = np.nonzero(changed_mask)[0]
    frozen = np.nonzero(ec)[0]
    expected = unique_push_thaw(graph, ec, changed)
    dispatch = SerialDispatch(graph, PageRank())

    outcomes = []
    for thaw in (
        lambda t: _thaw_from_changed(t, dispatch, changed),
        lambda t: _thaw_from_frozen(t, dispatch, frozen, changed_mask),
        lambda t: _thaw_moved_inputs(t, dispatch, changed_mask, changed),
    ):
        tracker = _tracker_with_ec(ec.copy())
        version = tracker.ec_version
        count = thaw(tracker)
        assert count == expected.size
        assert np.array_equal(np.nonzero(ec & ~tracker.ec_mask)[0], expected)
        assert not (tracker.ec_mask & ~ec).any()  # nothing newly frozen
        assert (tracker.stable_count[expected] == 0).all()
        assert (tracker.ec_version != version) == bool(expected.size)
        outcomes.append(tracker.ec_mask.copy())
    assert all(np.array_equal(outcomes[0], other) for other in outcomes[1:])


@given(st.lists(st.integers(0, 11), max_size=40), st.lists(st.booleans(),
                                                           min_size=12,
                                                           max_size=12))
def test_tracker_thaw_matches_unique_on_any_id_list(vertices, ec_bits):
    """Unsorted, repeated, empty: same ascending set, same count."""
    ec = np.asarray(ec_bits, dtype=bool)
    vertices = np.asarray(vertices, dtype=np.int64)
    expected = np.unique(vertices[ec[vertices]])
    tracker = _tracker_with_ec(ec.copy())
    assert tracker.thaw(vertices) == expected.size
    assert np.array_equal(np.nonzero(ec & ~tracker.ec_mask)[0], expected)


# ----------------------------------------------------------------------
# counting: the engine expands the cheaper side, every superstep
# ----------------------------------------------------------------------
def _counted_run(monkeypatch, graph, guidance=None):
    """A serial PageRank+RR run; per thawing superstep, the edges the
    thaw expanded and the two sides' exact edge counts."""
    expanded, sides = [], []

    class CountingDispatch(SerialDispatch):
        def expand_out_dsts(self, ids):
            out = super().expand_out_dsts(ids)
            expanded.append(out.size)
            return out

        def expand_in_srcs(self, ids):
            out = super().expand_in_srcs(ids)
            expanded.append(out.size)
            return out

    real_thaw = engine_mod._thaw_moved_inputs

    def recording_thaw(tracker, dispatch, changed_mask, changed):
        frozen_edges = int(dispatch.in_degrees[tracker.ec_mask].sum())
        changed_edges = int(dispatch.out_degrees[changed].sum())
        if changed.size and tracker.num_ec:
            sides.append((frozen_edges, changed_edges))
        return real_thaw(tracker, dispatch, changed_mask, changed)

    monkeypatch.setattr(engine_mod, "SerialDispatch", CountingDispatch)
    monkeypatch.setattr(engine_mod, "_thaw_moved_inputs", recording_thaw)
    result = SLFEEngine(
        graph, config=experiment_cluster(num_nodes=8), backend="serial"
    ).run_arithmetic(PageRank(), tolerance=ARITH_TOLERANCE, guidance=guidance)
    return result, expanded, sides


@pytest.mark.parametrize("seed", [7, 11])
def test_thaw_expands_the_cheaper_side_every_superstep(monkeypatch, seed):
    graph = generators.social_network(
        600, avg_degree=14, shortcut_density=0.05, hub_bias=1.5, seed=seed
    )
    _, expanded, sides = _counted_run(monkeypatch, graph)
    assert expanded == [min(pair) for pair in sides]
    # Both directions really occur on this graph.
    assert any(f < c for f, c in sides) and any(f >= c for f, c in sides)


def test_pr_rr_thaw_touches_under_a_million_edges(monkeypatch):
    """ISSUE 13's acceptance count on the benchmark's own ``pr-rr``
    input (seed 20180827): the parent's push-only thaw expanded 9.56 M
    edges per job."""
    from perfbench import workloads as wl

    workload = wl.WORKLOADS["pr-rr"]
    graph = wl.build_graph(workload, 20180827)
    guidance = wl.preprocess(*wl.guidance_inputs(workload, graph, None))
    result, expanded, sides = _counted_run(monkeypatch, graph, guidance)
    assert result.converged
    assert expanded == [min(pair) for pair in sides]
    assert sum(changed for _, changed in sides) > 9_000_000  # push-only
    assert sum(expanded) <= 1_000_000


# ----------------------------------------------------------------------
# matrix: every backend against the parent commit's algorithm
# ----------------------------------------------------------------------
def parent_pagerank_rr(graph: Graph, guidance, cluster):
    """PageRank with finish-early exactly as the parent commit ran it.

    Returns ``(values, iterations, edge_ops_by_iteration, messages,
    updates, skipped)``.
    """
    app = PageRank()
    app.bind(graph)
    n = graph.num_vertices
    in_csr = graph.in_csr
    values = app.initial_values(graph).astype(np.float64)
    threshold = np.maximum(
        guidance.last_iter.astype(np.int64), MIN_STABLE_ROUNDS
    )
    stable_count = np.zeros(n, dtype=np.int64)
    stable_value = np.full(n, np.nan)
    ec = np.zeros(n, dtype=bool)
    edge_ops, messages, updates, skipped = [], 0, 0, 0
    iteration = 0
    while iteration < app.default_max_iterations:
        live_mask = ~ec
        live = np.nonzero(live_mask)[0]
        if live.size == 0:
            break  # every vertex frozen: no superstep runs or counts
        iteration += 1
        rows, srcs, weights = in_csr.expand_sources(live)
        # Each destination's contributions summed in edge order from
        # +0.0, as the engine's compiled row sum does.
        gathered = np.bincount(
            rows, weights=app.edge_contributions(values, srcs, rows, weights),
            minlength=n,
        )
        edge_ops.append(int(srcs.size))
        new_values = values.copy()
        new_values[live] = app.apply(gathered, values)[live]
        delta = np.abs(new_values[live] - values[live])
        # StabilityTracker.observe
        with np.errstate(invalid="ignore"):
            unchanged = np.abs(new_values - stable_value) <= EPSILON
        changed_mask = live_mask & ~unchanged
        stable_count[live_mask & unchanged] += 1
        stable_count[changed_mask] = 0
        stable_value[live_mask] = new_values[live_mask]
        ec |= live_mask & (stable_count >= threshold)
        changed = np.nonzero(changed_mask)[0]
        if changed.size and ec.any():
            thawed = unique_push_thaw(graph, ec, changed)
            ec[thawed] = False
            stable_count[thawed] = 0
        messages += cluster.messages_for_changed(changed)[0]
        updates += int(changed.size)
        skipped += n - int(live.size)
        values = new_values
        if delta.size == 0 or float(delta.max()) < ARITH_TOLERANCE:
            break
    return values, iteration, edge_ops, messages, updates, skipped


@pytest.fixture(scope="module")
def matrix_case():
    graph = generators.social_network(
        600, avg_degree=14, shortcut_density=0.05, hub_bias=1.5, seed=7
    )
    guidance = generate_guidance(graph, default_roots(graph))
    config = experiment_cluster(num_nodes=NODES)
    cluster = SLFEEngine(graph, config=config)._make_cluster(graph)
    expected = parent_pagerank_rr(graph, guidance, cluster)
    assert 0 < expected[5]  # finish-early really froze vertices
    return graph, guidance, config, expected


def _engine_run(matrix_case, backend="serial", workers=None, spec=None,
                checkpoint_every=None, recorder=None):
    graph, guidance, config, _ = matrix_case
    plan = FaultPlan.parse(spec, num_nodes=NODES) if spec else None
    return SLFEEngine(
        graph, config=config, backend=backend, num_workers=workers,
        fault_plan=plan, checkpoint_every=checkpoint_every, recorder=recorder,
    ).run_arithmetic(PageRank(), tolerance=ARITH_TOLERANCE, guidance=guidance)


def _assert_matches_parent(result, matrix_case):
    config = matrix_case[2]
    values, iterations, edge_ops, messages, updates, skipped = matrix_case[3]
    assert result.values.tobytes() == values.tobytes()
    assert result.iterations == iterations
    metrics = result.metrics
    assert metrics.edge_ops_by_iteration().tolist() == edge_ops
    assert metrics.total_messages == messages
    assert metrics.total_updates == updates
    assert metrics.total_skipped == skipped
    return CostModel(config).evaluate(metrics).execution_seconds


def test_matrix_serial_pool_ooc_match_the_parent_algorithm(matrix_case):
    modeled = {
        backend: _assert_matches_parent(
            _engine_run(matrix_case, backend, workers), matrix_case
        )
        for backend, workers in (("serial", None), ("parallel", 2))
    }
    # ~10 KiB shards behind a two-shard cache: every phase streams.
    recorder = TraceRecorder()
    with configured(shard_mb=0.01, shard_cache=2):
        modeled["ooc"] = _assert_matches_parent(
            _engine_run(matrix_case, "ooc", recorder=recorder), matrix_case
        )
    assert len(set(modeled.values())) == 1, modeled
    # The thaw streams the side it expands: out-shards when it pushes
    # from the changed set, in-shards when it pulls from the frozen set
    # (the parent only ever read out-shards here).
    thaw_reads = {
        event.payload["direction"]
        for event in recorder.events_named(trace_events.SHARD_IO)
        if event.payload["phase"] == "expand"
    }
    assert thaw_reads == {"in", "out"}


# ----------------------------------------------------------------------
# the side each backend picks: (shards to decode, edges)
# ----------------------------------------------------------------------
def _sided_run(monkeypatch, matrix_case, backend, workers=None,
               recorder=None):
    """An RR PageRank run of the matrix case recording, per thawing
    superstep, ``(old edge rule's side, side taken, decodes per side,
    EC set after the thaw)``; sides are ``"pull"`` / ``"push"``."""
    taken, records = [], []
    real_thaw = engine_mod._thaw_moved_inputs

    def recording_thaw(tracker, dispatch, changed_mask, changed):
        frozen = np.nonzero(tracker.ec_mask)[0]
        if not (changed.size and frozen.size):
            return real_thaw(tracker, dispatch, changed_mask, changed)
        edge_rule = (
            "pull"
            if dispatch.in_degrees[frozen].sum()
            < dispatch.out_degrees[changed].sum()
            else "push"
        )
        decodes = {"pull": dispatch.shard_decodes("in", frozen),
                   "push": dispatch.shard_decodes("out", changed)}
        count = real_thaw(tracker, dispatch, changed_mask, changed)
        records.append(
            (edge_rule, taken.pop(), decodes, tracker.ec_mask.copy())
        )
        return count

    with monkeypatch.context() as patch:
        for name, side in (("_thaw_from_frozen", "pull"),
                           ("_thaw_from_changed", "push")):
            def thaw_side(*args, _real=getattr(engine_mod, name),
                          _side=side):
                taken.append(_side)
                return _real(*args)

            patch.setattr(engine_mod, name, thaw_side)
        patch.setattr(engine_mod, "_thaw_moved_inputs", recording_thaw)
        result = _engine_run(matrix_case, backend, workers,
                             recorder=recorder)
    assert records and not taken
    return result, records


def _ec_sets(records):
    return [ec.tobytes() for *_, ec in records]


@pytest.mark.parametrize("backend,workers", [("serial", None),
                                             ("parallel", 2)])
def test_in_memory_the_side_is_the_edge_rule(monkeypatch, matrix_case,
                                             backend, workers):
    """Nothing is decoded in memory, so the edge counts decide alone."""
    result, records = _sided_run(monkeypatch, matrix_case, backend, workers)
    _assert_matches_parent(result, matrix_case)
    assert all(decodes == {"pull": 0, "push": 0}
               for _, _, decodes, _ in records)
    assert [taken for _, taken, _, _ in records] == [
        rule for rule, _, _, _ in records
    ]
    assert {rule for rule, _, _, _ in records} == {"pull", "push"}


@pytest.fixture
def no_read_ahead(monkeypatch):
    """Decodes only on demand, so a phase reads what it was costed at."""
    from repro.ooc import _ShardStream

    monkeypatch.setattr(
        _ShardStream, "announce", lambda self, direction, part: None
    )


def test_ooc_the_side_taken_never_decodes_more(monkeypatch, matrix_case,
                                               no_read_ahead):
    """~10 KiB shards behind a two-shard cache: neither direction fits,
    and the thaw takes the side with fewer shards to decode."""
    serial = _sided_run(monkeypatch, matrix_case, "serial")[1]
    with configured(shard_mb=0.01, shard_cache=2):
        result, records = _sided_run(monkeypatch, matrix_case, "ooc")
    _assert_matches_parent(result, matrix_case)
    assert _ec_sets(records) == _ec_sets(serial)
    for _, taken, decodes, _ in records:
        other = "push" if taken == "pull" else "pull"
        assert decodes[taken] <= decodes[other]


def test_ooc_an_in_direction_that_fits_is_decoded_once(monkeypatch,
                                                        matrix_case,
                                                        no_read_ahead):
    """The gather leaves every in-shard resident, so the thaw pulls from
    them and never reads an out-shard that would evict one."""
    graph = matrix_case[0]
    shard_mb = 0.02
    in_shards = len(plan_shards(graph.in_csr, shard_mb))
    assert in_shards > 1
    serial = _sided_run(monkeypatch, matrix_case, "serial")[1]
    recorder = TraceRecorder()
    with configured(shard_mb=shard_mb, shard_cache=in_shards):
        result, records = _sided_run(monkeypatch, matrix_case, "ooc",
                                     recorder=recorder)
    _assert_matches_parent(result, matrix_case)
    assert _ec_sets(records) == _ec_sets(serial)
    # The decode count decides: in memory the edges pick both sides.
    assert {taken for _, taken, _, _ in records} == {"pull"}
    assert {rule for rule, _, _, _ in records} == {"pull", "push"}
    reads = {"in": 0, "out": 0}
    for event in recorder.events_named(trace_events.SHARD_IO):
        reads[event.payload["direction"]] += event.payload["shards"]
    assert reads == {"in": in_shards, "out": 0}


@needs_shm
def test_matrix_degraded_inline_matches_the_parent_algorithm(matrix_case):
    # Past the first freeze, so the inline path gathers a general
    # (non-contiguous) task list through the terms kernel too.
    with configured(max_respawns=0):
        result = _engine_run(matrix_case, "parallel", 2,
                             spec="worker-crash@60:gather-1")
    assert result.degraded is True
    _assert_matches_parent(result, matrix_case)


#: ``(edge_ops, messages, updates, skipped, edge_ops_by_node)`` of
#: ``crash@66:1`` + ``checkpoint_every=10`` on the matrix graph, run on
#: the parent commit (934488a).
PARENT_CRASH_TOTALS = (
    596591, 6581, 35117, 6746, [146029, 137335, 152751, 160476],
)


def test_matrix_crash_rollback_matches_the_parent_algorithm(matrix_case):
    """A node crash while vertices are frozen: the rollback restores the
    EC set (the cached live list must follow it) and the takeover moves
    ownership (the cached per-node op counts must follow that).  The
    answer and the superstep count are the clean run's; the accounting
    also replays, so its totals are pinned to what the parent commit
    measures for this exact plan."""
    values, iterations = matrix_case[3][:2]
    result = _engine_run(matrix_case, spec="crash@66:1", checkpoint_every=10)
    assert result.metrics.rollbacks == 1 and result.metrics.recoveries == 1
    assert result.values.tobytes() == values.tobytes()
    assert result.iterations == iterations
    metrics = result.metrics
    assert (
        metrics.total_edge_ops,
        metrics.total_messages,
        metrics.total_updates,
        metrics.total_skipped,
        metrics.edge_ops_by_node().tolist(),
    ) == PARENT_CRASH_TOTALS

