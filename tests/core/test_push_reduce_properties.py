"""The fused push reduce is the parent commit's push block, bit for bit,
and sorts only the candidates that can write; the ids-first
``Frontier`` never mis-stores a set; the start-late debt counter is the
scan it replaced.

* kernel identity: ``segmented_improvements`` (drop non-improving
  candidates, one destination sort of the rest -> exact min/max,
  improved destinations, CAS-write count) against the parent commit's
  ``np.full`` + ``ufunc.at`` + rank-code ``segmented_improvements`` +
  ``better`` + ``nonzero``, kept verbatim below as the oracle;
* kernel work: the destination sort sees exactly the candidates that
  beat their incumbent, and a batch where none does is never sorted;
* whole runs: SSSP / WidestPath on a weighted lattice (the shape where
  most candidates lose) match the oracle-reduced run value for value,
  superstep for superstep, on serial, pool, ooc and async;
* ``Frontier``: mask <=> ids <=> count against a plain ``set`` after any
  sequence of edits, whatever shape the input ids arrive in;
* the debt / pending counters the loop now carries against
  ``count_nonzero(missed & ~started)`` / ``count_nonzero(~started)`` of
  the very arrays it checkpoints, every superstep, across rollbacks, on
  serial, pool and ooc.
"""

import os
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps import SSSP, ConnectedComponents, WidestPath, reference
from repro.bench.workloads import experiment_cluster
from repro.cluster.checkpoint import CheckpointStore
from repro.cluster.faults import FaultPlan
from repro.core import accounting
from repro.core.accounting import segmented_improvements
from repro.core.async_engine import AsyncEngine
from repro.core.engine import SLFEEngine
from repro.core.frontier import Frontier
from repro.graph import generators
from repro.runconfig import configured
from repro.trace import recorder as trace_events
from repro.trace.recorder import TraceRecorder

NODES = 4
_HUGE = 1e300


# ----------------------------------------------------------------------
# the parent commit's push block, kept verbatim as the oracle
# ----------------------------------------------------------------------
def parent_segmented_improvements(dsts, candidates, incumbents,
                                  aggregation="min"):
    if dsts.size == 0:
        return 0
    values = np.asarray(candidates, dtype=np.float64)
    if aggregation == "max":
        values = -values
        incumbent_at = -np.asarray(incumbents, dtype=np.float64)[dsts]
    else:
        incumbent_at = np.asarray(incumbents, dtype=np.float64)[dsts]
    values = np.clip(values, -_HUGE, _HUGE)
    incumbent_at = np.clip(incumbent_at, -_HUGE, _HUGE)

    order = np.argsort(dsts, kind="stable")
    seg_dst = dsts[order]
    seg_val = values[order]
    seg_inc = incumbent_at[order]

    is_start = np.ones(seg_dst.size, dtype=bool)
    is_start[1:] = seg_dst[1:] != seg_dst[:-1]
    rank = np.cumsum(is_start) - 1

    codes = np.unique(seg_val, return_inverse=True)[1].astype(np.int64)
    spread = np.int64(codes.max()) + 2
    shifted = codes - rank * spread
    running = np.minimum.accumulate(shifted)
    beats_prefix = np.ones(seg_val.size, dtype=bool)
    beats_prefix[1:] = shifted[1:] < running[:-1]
    beats_prefix[is_start] = True

    improves = beats_prefix & (seg_val < seg_inc)
    return int(np.count_nonzero(improves))


def parent_push_block(dsts, candidates, values, aggregation):
    """``(update_count, changed, written values)`` of one push superstep
    as ``SLFEEngine._run_minmax`` computed them at the parent commit."""
    n = values.size
    update_count = 0
    agg = np.full(n, np.inf if aggregation == "min" else -np.inf)
    if dsts.size:
        if aggregation == "min":
            np.minimum.at(agg, dsts, candidates)
        else:
            np.maximum.at(agg, dsts, candidates)
        update_count = parent_segmented_improvements(
            dsts, candidates, values, aggregation
        )
    improved = agg < values if aggregation == "min" else agg > values
    changed = np.nonzero(improved)[0]
    return update_count, changed, agg[changed]


def assert_same_as_parent(dsts, candidates, values, bitwise=True):
    dsts = np.asarray(dsts, dtype=np.int64)
    candidates = np.asarray(candidates, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    for aggregation in ("min", "max"):
        before = values.copy()
        count, changed, written = segmented_improvements(
            dsts, candidates, values, aggregation
        )
        assert values.tobytes() == before.tobytes()  # reads only
        want_count, want_changed, want_written = parent_push_block(
            dsts, candidates, values, aggregation
        )
        assert count == want_count
        assert changed.dtype == want_changed.dtype == np.int64
        assert changed.tolist() == want_changed.tolist()  # order included
        assert written.dtype == np.float64
        if bitwise:
            assert written.tobytes() == want_written.tobytes()
        else:
            assert np.array_equal(written, want_written)


# Few distinct values, so equal candidates, candidates equal to the
# incumbent and infinities all occur within one segment.
_VALUES = st.sampled_from(
    [-np.inf, -7.5, -1.0, 0.0, 0.25, 1.0, 1.0 + 2**-52, 3.0, 1e9, np.inf]
)


@st.composite
def push_batches(draw):
    n = draw(st.integers(1, 24))
    m = draw(st.integers(0, 90))
    spread = draw(st.sampled_from([1, min(2, n), n]))  # one hub ... all
    dsts = draw(st.lists(st.integers(0, spread - 1), min_size=m, max_size=m))
    candidates = draw(st.lists(_VALUES, min_size=m, max_size=m))
    values = draw(st.lists(_VALUES, min_size=n, max_size=n))
    return dsts, candidates, values


@given(push_batches())
def test_kernel_is_the_parent_push_block(batch):
    assert_same_as_parent(*batch)


def test_empty_batch():
    count, changed, written = segmented_improvements(
        np.empty(0, dtype=np.int64), np.empty(0), np.arange(3.0), "min"
    )
    assert (count, changed.size, written.size) == (0, 0, 0)
    assert changed.dtype == np.int64 and written.dtype == np.float64
    assert_same_as_parent([], [], [1.0, 2.0])


def test_all_distinct_unsorted_destinations():
    rng = np.random.default_rng(5)
    dsts = rng.permutation(500)[:300]
    assert_same_as_parent(dsts, rng.random(300), rng.random(500))


def test_every_candidate_on_one_destination():
    rng = np.random.default_rng(6)
    for candidates in (
        rng.random(200),                  # random: ~log m records
        np.arange(200.0, 0.0, -1.0),      # descending: every one a write
        np.arange(200.0),                 # ascending: one write
        np.full(200, 0.5),                # all equal: one write
    ):
        values = np.array([0.0, 1e6, 3.0])
        assert_same_as_parent(np.full(200, 1), candidates, values)
        assert_same_as_parent(np.full(200, 1), -candidates, -values)


def test_hub_of_multiplicity_ten_thousand_is_exact_and_fast():
    """The position sweep must hand a long segment to the cumulative-min
    pass, not walk it: a descending hub is 10^4 sweep rounds otherwise."""
    rng = np.random.default_rng(7)
    m = 10_000
    dsts = np.concatenate([np.full(m, 17), rng.integers(0, 64, 500)])
    for hub in (np.arange(m, 0.0, -1.0), rng.random(m) * m):
        candidates = np.concatenate([hub, rng.random(500) * m])
        order = rng.permutation(dsts.size)  # interleave hub and the rest
        values = np.full(64, float(m))
        assert_same_as_parent(dsts[order], candidates[order], values)
        start = time.perf_counter()
        segmented_improvements(dsts[order], candidates[order], values, "min")
        assert time.perf_counter() - start < 0.02  # 1-3 ms here


def test_infinite_incumbents_and_candidates():
    inf = np.inf
    dsts = [0, 0, 1, 1, 2, 2, 3, 3]
    candidates = [inf, 5.0, -inf, 1.0, inf, inf, -inf, -inf]
    assert_same_as_parent(dsts, candidates, [inf, inf, inf, -inf])
    assert_same_as_parent(dsts, candidates, [-inf, 7.0, 0.0, inf])


def test_equal_candidates_within_a_segment_write_once():
    dsts = [2, 2, 2, 0, 0]
    candidates = [4.0, 4.0, 4.0, 9.0, 9.0]
    assert_same_as_parent(dsts, candidates, [10.0, 0.0, 10.0])
    assert segmented_improvements(
        np.array(dsts), np.array(candidates), np.full(3, 10.0), "min"
    )[0] == 2


def test_signed_zeros():
    """``-0.0 == 0.0``: neither improves on the other, and which zero a
    mixed segment leaves is equal by value (the sign of a tie between
    zeros is whatever the ufunc's reduction order makes it)."""
    dsts = [0, 0, 1, 1, 2, 3]
    candidates = [0.0, -0.0, -0.0, 0.0, -0.0, 0.0]
    assert_same_as_parent(dsts, candidates, [5.0, -5.0, 0.0, -0.0],
                          bitwise=False)
    assert_same_as_parent(dsts, candidates, [-0.0, 0.0, 1.0, -1.0],
                          bitwise=False)


# ----------------------------------------------------------------------
# kernel work: only improving candidates reach the destination sort
# ----------------------------------------------------------------------
def _sorted_key_counts(monkeypatch):
    """Record the key count of every ``stable_group_order`` the kernel
    makes."""
    seen = []
    real = accounting.stable_group_order

    def counting(keys, num_keys):
        seen.append(keys.size)
        return real(keys, num_keys)

    monkeypatch.setattr(accounting, "stable_group_order", counting)
    return seen


@given(push_batches())
def test_the_sort_sees_only_improving_candidates(batch):
    dsts, candidates, values = (
        np.asarray(batch[0], dtype=np.int64),
        np.asarray(batch[1], dtype=np.float64),
        np.asarray(batch[2], dtype=np.float64),
    )
    for aggregation, beats in (("min", np.less), ("max", np.greater)):
        with pytest.MonkeyPatch.context() as patch:
            seen = _sorted_key_counts(patch)
            segmented_improvements(dsts, candidates, values, aggregation)
        improving = int(np.count_nonzero(beats(candidates, values[dsts])))
        assert seen == ([improving] if improving else [])


@pytest.mark.parametrize("aggregation", ["min", "max"])
def test_a_batch_where_nothing_improves_is_never_sorted(
    monkeypatch, aggregation
):
    seen = _sorted_key_counts(monkeypatch)
    dsts = np.array([0, 1, 1, 2, 0], dtype=np.int64)
    values = np.array([1.0, -np.inf, 2.0])
    if aggregation == "max":
        values = -values
    candidates = values[dsts] + (1.0 if aggregation == "min" else -1.0)
    candidates[1] = values[1]  # a tie is not an improvement either
    count, changed, written = segmented_improvements(
        dsts, candidates, values, aggregation
    )
    assert seen == []
    assert (count, changed.size, written.size) == (0, 0, 0)
    assert changed.dtype == np.int64 and written.dtype == np.float64
    assert_same_as_parent(dsts, candidates, values)


# ----------------------------------------------------------------------
# whole runs: the kernel against the oracle-reduced run
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def weighted_grid():
    return generators.random_weights(
        generators.grid_2d(24, 24), 1.0, 10.0, seed=24
    )


def _superstep_trail(result):
    return [
        (record.mode, record.edge_ops_per_node.tolist(), record.updates,
         record.messages, record.message_bytes, record.active_vertices,
         record.skipped_vertices)
        for record in result.metrics.records
    ]


def _assert_run_is_the_oracle_run(monkeypatch, run):
    """``run()`` once with the kernel, once with every push reduce
    replaced by the parent commit's push block."""
    got = run()
    batches = []

    def oracle(*batch):
        batches.append(batch[0].size)
        return parent_push_block(*batch)

    with monkeypatch.context() as patch:
        patch.setattr("repro.core.engine.segmented_improvements", oracle)
        patch.setattr("repro.core.async_engine.segmented_improvements",
                      oracle)
        want = run()
    assert sum(batches) > 0  # the runs really pushed
    assert got.values.tobytes() == want.values.tobytes()
    assert got.iterations == want.iterations
    assert _superstep_trail(got) == _superstep_trail(want)


_ROOTED = ["SSSP", "WP"]  # keys of APPS below


def _slfe_run(graph, app_name, enable_rr, backend="serial", workers=None):
    app_cls, _, oracle = APPS[app_name]

    def run():
        result = SLFEEngine(
            graph,
            config=experiment_cluster(num_nodes=NODES),
            enable_rr=enable_rr,
            backend=backend,
            num_workers=workers,
        ).run_minmax(app_cls(), root=0)
        assert np.array_equal(result.values, oracle(graph, 0))
        return result

    return run


@pytest.mark.parametrize("enable_rr", [True, False], ids=["rr", "norr"])
@pytest.mark.parametrize("app_name", _ROOTED)
def test_grid_run_is_the_oracle_run_on_serial(
    monkeypatch, weighted_grid, app_name, enable_rr
):
    _assert_run_is_the_oracle_run(
        monkeypatch, _slfe_run(weighted_grid, app_name, enable_rr)
    )


@pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                    reason="the pool needs /dev/shm")
@pytest.mark.parametrize("enable_rr", [True, False], ids=["rr", "norr"])
@pytest.mark.parametrize("app_name", _ROOTED)
def test_grid_run_is_the_oracle_run_on_the_pool(
    monkeypatch, weighted_grid, app_name, enable_rr
):
    _assert_run_is_the_oracle_run(
        monkeypatch,
        _slfe_run(weighted_grid, app_name, enable_rr, "parallel", 2),
    )


@pytest.mark.parametrize("enable_rr", [True, False], ids=["rr", "norr"])
@pytest.mark.parametrize("app_name", _ROOTED)
def test_grid_run_is_the_oracle_run_on_ooc(
    monkeypatch, weighted_grid, app_name, enable_rr
):
    with configured(shard_mb=0.01, shard_cache=2):
        _assert_run_is_the_oracle_run(
            monkeypatch, _slfe_run(weighted_grid, app_name, enable_rr, "ooc")
        )


@pytest.mark.parametrize("app_name", _ROOTED)
def test_grid_run_is_the_oracle_run_on_async(
    monkeypatch, weighted_grid, app_name
):
    app_cls, _, oracle = APPS[app_name]

    def run():
        result = AsyncEngine(
            weighted_grid, config=experiment_cluster(num_nodes=NODES)
        ).run_minmax(app_cls(), root=0)
        assert np.array_equal(result.values, oracle(weighted_grid, 0))
        return result

    _assert_run_is_the_oracle_run(monkeypatch, run)


# ----------------------------------------------------------------------
# Frontier: mask <=> ids <=> count
# ----------------------------------------------------------------------
N = 12
_IDS = st.lists(st.integers(0, N - 1), max_size=2 * N)  # unsorted, repeated
_OPS = st.one_of(
    st.tuples(st.sampled_from(["replace_with", "activate", "restore"]), _IDS),
    st.tuples(st.sampled_from(["activate_all", "clear"]), st.just([])),
)


def _assert_frontier_is(frontier, model):
    want = sorted(model)
    assert frontier.ids.dtype == np.int64
    assert frontier.ids.tolist() == want  # ascending, duplicate-free
    assert frontier.count == len(frontier) == len(want)
    assert bool(frontier) == bool(want)
    assert frontier.mask.dtype == bool
    assert np.flatnonzero(frontier.mask).tolist() == want
    assert [v for v in range(N) if v in frontier] == want


@given(_IDS, st.lists(_OPS, max_size=12))
def test_frontier_is_the_set_it_was_told(initial, ops):
    frontier = Frontier(N, np.asarray(initial, dtype=np.int64))
    model = set(initial)
    _assert_frontier_is(frontier, model)
    for op, ids in ops:
        if op == "replace_with":
            frontier.replace_with(np.asarray(ids, dtype=np.int64))
            model = set(ids)
        elif op == "activate":
            frontier.activate(np.asarray(ids, dtype=np.int64))
            model |= set(ids)
        elif op == "restore":  # what a checkpoint rollback does
            stored = np.zeros(N, dtype=bool)
            stored[ids] = True
            frontier.replace_with(np.flatnonzero(stored))
            model = set(ids)
        elif op == "activate_all":
            frontier.activate_all()
            model = set(range(N))
        else:
            frontier.clear()
            model = set()
        _assert_frontier_is(frontier, model)


def test_frontier_adopts_an_ascending_id_array_without_copying():
    ids = np.array([1, 4, 9], dtype=np.int64)
    frontier = Frontier(N)
    frontier.replace_with(ids)
    assert frontier.ids is ids


@pytest.mark.parametrize("bad", [[-1], [N], [3, -2, 5], [0, N + 7]])
def test_frontier_rejects_ids_outside_the_vertex_range(bad):
    frontier = Frontier(N, [2, 3])
    with pytest.raises(IndexError):
        frontier.replace_with(np.asarray(bad, dtype=np.int64))
    with pytest.raises(IndexError):
        frontier.activate(np.asarray(bad, dtype=np.int64))
    with pytest.raises(IndexError):
        Frontier(N, bad)
    _assert_frontier_is(frontier, {2, 3})


def test_frontier_round_trips_through_from_mask_and_all_vertices():
    mask = np.zeros(N, dtype=bool)
    mask[[0, 5, 11]] = True
    _assert_frontier_is(Frontier.from_mask(mask), {0, 5, 11})
    _assert_frontier_is(Frontier.all_vertices(N), set(range(N)))


# ----------------------------------------------------------------------
# the debt / pending counters are the scans they replaced
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def weighted_social():
    graph = generators.social_network(
        500, avg_degree=10, shortcut_density=0.05, hub_bias=1.5, seed=11
    )
    return generators.random_weights(graph, 1.0, 10.0, seed=11)


def _root(graph):
    return int(np.argmax(graph.out_degrees()))


APPS = {
    "SSSP": (SSSP, True, reference.dijkstra),
    "WP": (WidestPath, True, reference.widest_path),
    "CC": (ConnectedComponents, False,
           lambda graph, root: reference.connected_components(graph)),
}


def _counted_run(monkeypatch, graph, app_name, enable_rr, backend, workers,
                 spec, checkpoint_every):
    """One traced, checkpointed min/max run; returns the result, every
    traced ``(debts, pending)``, and — per checkpoint — that pair as the
    superstep just traced it next to the same two counts scanned from
    the ``missed`` / ``started`` arrays being checkpointed."""
    recorder = TraceRecorder()
    pairs = []
    real_take = CheckpointStore.take

    def scanning_take(self, superstep, arrays, scalars=None):
        skips = recorder.events_named(trace_events.RR_SKIP)
        if skips:  # not the superstep-0 floor
            started = arrays["started"]
            missed = arrays.get("missed")
            scan = (
                int(np.count_nonzero(missed & ~started))
                if missed is not None else 0,
                int(np.count_nonzero(~started)),
            )
            payload = skips[-1].payload
            pairs.append((scan, (payload["debts"], payload["pending"])))
        return real_take(self, superstep, arrays, scalars)

    monkeypatch.setattr(CheckpointStore, "take", scanning_take)
    app_cls, rooted, _ = APPS[app_name]
    result = SLFEEngine(
        graph,
        config=experiment_cluster(num_nodes=NODES),
        enable_rr=enable_rr,
        backend=backend,
        num_workers=workers,
        recorder=recorder,
        fault_plan=FaultPlan.parse(spec, num_nodes=NODES) if spec else None,
        checkpoint_every=checkpoint_every,
    ).run_minmax(app_cls(), root=_root(graph) if rooted else None)
    traced = [
        (event.payload["debts"], event.payload["pending"])
        for event in recorder.events_named(trace_events.RR_SKIP)
    ]
    return result, traced, pairs


def _assert_counters_are_scans(monkeypatch, graph, app_name, enable_rr,
                               backend="serial", workers=None, spec=None):
    # A clean run is checked every superstep; a crash rolls back to a
    # checkpoint two supersteps old, so the counters are rebuilt from
    # the restored arrays and then checked as the replay moves them.
    result, traced, pairs = _counted_run(
        monkeypatch, graph, app_name, enable_rr, backend, workers, spec,
        checkpoint_every=3 if spec else 1,
    )
    metrics = result.metrics
    assert metrics.rollbacks == (1 if spec else 0)
    assert metrics.supersteps_replayed == (2 if spec else 0)
    assert len(traced) == result.iterations + metrics.supersteps_replayed
    assert len(pairs) == result.iterations // (3 if spec else 1)
    assert all(scan == seen for scan, seen in pairs)
    if enable_rr:
        # Start-late really engaged: debts were owed and then settled.
        assert max(debts for debts, _ in traced) > 0
        assert traced[0][1] > 0
    else:
        assert set(traced) == {(0, 0)}
    assert traced[-1][0] == 0
    _, rooted, oracle = APPS[app_name]
    expected = oracle(graph, _root(graph) if rooted else None)
    assert np.array_equal(result.values, np.asarray(expected, dtype=float))


@pytest.mark.parametrize("enable_rr", [True, False], ids=["rr", "norr"])
@pytest.mark.parametrize("app_name", sorted(APPS))
@pytest.mark.parametrize("spec", [None, "crash@6:1"], ids=["clean", "crash"])
def test_debt_counter_is_the_scan_on_serial(
    monkeypatch, weighted_social, app_name, enable_rr, spec
):
    _assert_counters_are_scans(
        monkeypatch, weighted_social, app_name, enable_rr, spec=spec
    )


@pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                    reason="the pool needs /dev/shm")
@pytest.mark.parametrize("app_name", sorted(APPS))
def test_debt_counter_is_the_scan_on_the_pool(
    monkeypatch, weighted_social, app_name
):
    _assert_counters_are_scans(
        monkeypatch, weighted_social, app_name, True, "parallel", 2,
        "crash@6:1",
    )


@pytest.mark.parametrize("app_name", sorted(APPS))
def test_debt_counter_is_the_scan_on_ooc(
    monkeypatch, weighted_social, app_name
):
    # ~10 KiB shards: every phase streams.
    with configured(shard_mb=0.01, shard_cache=2):
        _assert_counters_are_scans(
            monkeypatch, weighted_social, app_name, True, "ooc",
            spec="crash@6:1",
        )
