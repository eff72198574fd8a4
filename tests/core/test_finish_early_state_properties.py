"""Finish early decides "changed" once, and the parent's tracker agrees.

The engine takes one ``|new - values|`` difference per superstep; its
``~(delta <= epsilon)`` mask is the update set, the thaw's input and
the only thing :class:`~repro.core.state.StabilityTracker` counts.  The
parent commit's tracker compared every new value against its own copy
of the values instead; ``ParentTracker`` (``test_state.py``) keeps that
as the oracle.

* property: random graphs x the six arithmetic applications x serial,
  pool and ooc x no fault, a crash rolled back to the superstep-0 floor
  and one rolled back to a snapshot at k > 0.  Every superstep the
  oracle is fed the values the engine just computed, thaws the frozen
  out-neighbours of its own changed set, and is snapshotted and restored
  with the engine's checkpoints: changed set, EC set, ``stable_count``
  and ``ec_version`` match, and at every boundary after superstep 1 the
  engine's values equal the oracle's value copy.  With RR off the
  update set is the parent's ``delta > epsilon``.
* first sight: under RR superstep 1 reports every vertex as changed
  (the parent's NaN value copy never matched), also when a crash
  replays it from the superstep-0 floor.
* epsilon: the engine's rule hides sub-epsilon moves, and a negative
  epsilon is refused whether RR is on or off.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps import (
    BeliefPropagation,
    HeatSimulation,
    NumPaths,
    PageRank,
    SpMV,
    TunkRank,
)
from repro.bench.workloads import experiment_cluster
from repro.cluster.faults import FaultPlan
from repro.core import engine as engine_mod
from repro.core.engine import SLFEEngine
from repro.graph import generators
from repro.runconfig import configured
from tests.core.test_state import ParentTracker
from tests.strategies.graphs import seeded_digraphs, social_graphs

EPSILON = 1e-7  # the engine's stability_epsilon default
MIN_STABLE_ROUNDS = 3  # ... and its min_stable_rounds
NODES = 2


def _bp(graph):
    """Belief propagation at a coupling that contracts on ``graph``."""
    in_csr = graph.in_csr
    in_weight = np.bincount(
        in_csr.row_of_edge(), weights=np.abs(in_csr.weights),
        minlength=graph.num_vertices,
    )
    return BeliefPropagation(coupling=1.0 / (1.0 + in_weight.max(initial=0)))


APPS = {
    "PR": lambda graph, rng: PageRank(),
    "TR": lambda graph, rng: TunkRank(),
    "Heat": lambda graph, rng: HeatSimulation(rng.random(graph.num_vertices)),
    "NumPaths": lambda graph, rng: NumPaths(root=0),
    "SpMV": lambda graph, rng: SpMV(rng.uniform(-1, 1, graph.num_vertices)),
    "BP": lambda graph, rng: _bp(graph),
}


class _Shadow:
    """The parent's tracker run beside one engine's finish-early step."""

    def __init__(self, step, graph) -> None:
        self.graph = graph
        self.oracle = ParentTracker(
            step.last_iter, EPSILON, MIN_STABLE_ROUNDS
        )
        self.snapshots = {}
        self.iteration = 0
        self.restores = 0
        self.checked = 0

    def check_step(self, step, iteration, changed) -> None:
        oracle, tracker = self.oracle, step.tracker
        expected = np.flatnonzero(oracle.observe(step.new_values))
        assert changed.tobytes() == expected.tobytes()
        if expected.size and oracle.ec_mask.any():
            # The parent's thaw: the frozen out-neighbours of ``changed``.
            oracle.thaw(self.graph.out_csr.expand_sources(expected)[1])
        assert tracker.ec_mask.tobytes() == oracle.ec_mask.tobytes()
        assert tracker.stable_count.tobytes() == (
            oracle.stable_count.tobytes()
        )
        assert tracker.ec_version == oracle.ec_version
        self.iteration = iteration
        self.checked += 1

    def snapshot(self) -> None:
        self.snapshots[self.iteration] = {
            name: array.copy()
            for name, array in self.oracle.state_arrays().items()
        }

    def restore(self, iteration: int) -> None:
        self.oracle.restore_state(**self.snapshots[iteration])
        self.iteration = iteration
        self.restores += 1


@pytest.fixture
def shadowed(monkeypatch):
    """Patch ``_FinishEarly`` so every RR run carries a :class:`_Shadow`
    (``shadowed(graph)`` arms it and returns the list of shadows)."""
    shadows = []
    cls = engine_mod._FinishEarly
    real = {name: getattr(cls, name)
            for name in ("step", "commit", "state", "restore")}

    def arm(graph):
        def shadow_of(step):
            if "_shadow" not in vars(step):
                step._shadow = _Shadow(step, graph)
                shadows.append(step._shadow)
            return step._shadow

        def step(self, iteration, mode):
            out = real["step"](self, iteration, mode)
            if self.tracker is not None:
                shadow_of(self).check_step(self, iteration, out[0])
            else:
                with np.errstate(invalid="ignore"):
                    moved = np.abs(self.new_values - self.values) > EPSILON
                assert out[0].tobytes() == np.flatnonzero(moved).tobytes()
            return out

        def commit(self, changed):
            done = real["commit"](self, changed)
            if self.tracker is not None:
                oracle = shadow_of(self).oracle
                assert self.values.tobytes() == oracle.stable_value.tobytes()
            return done

        def state(self):
            if self.tracker is not None:
                shadow_of(self).snapshot()
            return real["state"](self)

        def restore(self, arrays, scalars):
            real["restore"](self, arrays, scalars)
            if self.tracker is not None:
                shadow_of(self).restore(scalars["iteration"])

        for name, wrapper in (("step", step), ("commit", commit),
                              ("state", state), ("restore", restore)):
            monkeypatch.setattr(cls, name, wrapper)
        return shadows

    return arm


def runs():
    """``(graph, app, seed, fault, crash_at)``."""
    return st.tuples(
        st.one_of(
            social_graphs(max_vertices=120, weighted=False),
            seeded_digraphs(min_vertices=2, max_edges=360),
        ),
        st.sampled_from(sorted(APPS)),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["none", "floor", "snapshot"]),
        st.integers(2, 8),
    )


def _run(graph, app, seed, fault, crash_at, enable_rr, backend):
    spec = every = None
    if fault == "floor":
        spec, every = "crash@%d:1" % crash_at, 0
    elif fault == "snapshot":
        # The last snapshot before the crash is at k = crash_at - 1 > 0.
        spec, every = "crash@%d:1" % crash_at, 1
    plan = FaultPlan.parse(spec, num_nodes=NODES) if spec else None
    knobs = {"shard_mb": 0.001, "shard_cache": 2} if backend == "ooc" else {}
    with configured(**knobs):
        return SLFEEngine(
            graph, config=experiment_cluster(num_nodes=NODES),
            enable_rr=enable_rr, backend=backend,
            num_workers=2 if backend == "parallel" else None,
            fault_plan=plan, checkpoint_every=every,
        ).run_arithmetic(APPS[app](graph, np.random.default_rng(seed)))


@pytest.mark.parametrize("backend", ["serial", "parallel", "ooc"])
def test_one_difference_matches_the_parent_tracker(shadowed, backend):
    @given(case=runs())
    def check(case):
        graph, app, seed, fault, crash_at = case
        shadows = shadowed(graph)
        shadows.clear()
        _run(graph, app, seed, fault, crash_at, False, backend)
        assert not shadows
        result = _run(graph, app, seed, fault, crash_at, True, backend)
        (shadow,) = shadows
        assert shadow.checked == len(result.metrics.records)
        if fault != "none" and crash_at <= result.iterations:
            assert shadow.restores == 1

    check()


# ----------------------------------------------------------------------
# first sight
# ----------------------------------------------------------------------
FIRST_SIGHT_N = 3000


@pytest.fixture(scope="module")
def social3000():
    return generators.social_network(FIRST_SIGHT_N)


#: app -> (the delta rule's superstep-1 count, parent's clean
#: (supersteps, messages), parent's (supersteps, messages) with
#: crash@5:1 rolled back to the superstep-0 floor)
FIRST_SIGHT = {
    "NumPaths": (16, (13, 183), (13, 113)),
    "Heat": (2943, (50, 4943), (50, 396)),
}


def _first_sight_app(name):
    if name == "NumPaths":
        return NumPaths(root=0)
    return HeatSimulation(np.linspace(0.0, 1.0, FIRST_SIGHT_N))


def _first_sight_run(graph, name, enable_rr=True, spec=None):
    plan = FaultPlan.parse(spec, num_nodes=NODES) if spec else None
    return SLFEEngine(
        graph, config=experiment_cluster(num_nodes=NODES),
        enable_rr=enable_rr, fault_plan=plan,
        checkpoint_every=0 if spec else None,
    ).run_arithmetic(_first_sight_app(name))


@pytest.mark.parametrize("name", sorted(FIRST_SIGHT))
def test_rr_reports_every_vertex_changed_at_first_sight(social3000, name):
    by_delta, clean, crashed = FIRST_SIGHT[name]
    # With RR off the update set is the difference alone.
    norr = _first_sight_run(social3000, name, enable_rr=False)
    assert norr.metrics.records[0].updates == by_delta < FIRST_SIGHT_N
    result = _first_sight_run(social3000, name)
    assert result.metrics.records[0].updates == FIRST_SIGHT_N
    assert (result.iterations, result.metrics.total_messages) == clean
    # Supersteps 1-4 ran, then superstep 1 again from the floor.
    result = _first_sight_run(social3000, name, spec="crash@5:1")
    records = result.metrics.records
    assert [records[0].updates, records[4].updates] == [FIRST_SIGHT_N] * 2
    assert (result.iterations, result.metrics.total_messages) == crashed


# ----------------------------------------------------------------------
# epsilon
# ----------------------------------------------------------------------
def test_epsilon_hides_small_changes():
    """RR off, the update set is every vertex that moved by more than
    epsilon; a large epsilon hides the late, small moves (the values
    themselves do not depend on it)."""
    graph = generators.social_network(200, avg_degree=6, seed=3)
    steps = 12

    def run(epsilon, iterations=steps):
        return SLFEEngine(
            graph, enable_rr=False, stability_epsilon=epsilon
        ).run_arithmetic(PageRank(), max_iterations=iterations,
                         tolerance=0.0)

    coarse = run(1e-3)
    assert coarse.values.tobytes() == run(0.0).values.tobytes()
    previous = PageRank().initial_values(graph)
    updates = []
    for iterations in range(1, steps + 1):
        values = run(0.0, iterations).values
        updates.append(int(np.count_nonzero(np.abs(values - previous) > 1e-3)))
        previous = values
    assert [r.updates for r in coarse.metrics.records] == updates
    assert updates[-1] < updates[0]
    assert sum(updates) < run(0.0).metrics.total_updates


@pytest.mark.parametrize("enable_rr", [True, False])
def test_negative_epsilon_rejected(enable_rr):
    with pytest.raises(ValueError, match="stability_epsilon"):
        SLFEEngine(generators.path_graph(3), enable_rr=enable_rr,
                   stability_epsilon=-1.0)
