"""Fault-injected runs must match fault-free runs bit for bit.

This is the correctness contract of the fault subsystem: crashes,
message loss, and stragglers change *when* and *where* work happens
(rollback, replay, retries, takeover) but never the answer.  Guidance
reuse is asserted alongside — recovery restarts from the cached RRG
instead of regenerating it, so one preprocessing pass per run, ever.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bench.runner import run_workload
from repro.cluster.faults import FaultPlan
from repro.trace.recorder import TraceRecorder

from tests.strategies import graphs
from tests.strategies.backends import Case, stand_in
from tests.strategies.faults import Plan
from tests.test_oracle import check

SCALE = 16000
GRAPH = "PK"

#: One of each fault kind, all inside even the shortest run's horizon.
PLAN = FaultPlan.parse("crash@3:1,loss@2:0-2x2,slow@4:1x2.5+3")
CHECKPOINT_EVERY = 2

APPS = ["SSSP", "CC", "WP", "PR", "TR"]
ENGINES = ["SLFE", "Gemini"]


def run_pair(engine, app, plan=PLAN, recorder=None):
    clean = run_workload(engine, app, GRAPH, scale_divisor=SCALE)
    faulty = run_workload(
        engine, app, GRAPH, scale_divisor=SCALE,
        fault_plan=plan, checkpoint_every=CHECKPOINT_EVERY,
        recorder=recorder,
    )
    return clean, faulty


class TestResultsSurviveFaults:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("app", APPS)
    def test_bit_identical_under_faults(self, engine, app):
        # Gemini is the SLFE engine with RR off.
        check(stand_in(app, SCALE, GRAPH, rr=engine == "SLFE", num_nodes=8,
                       plan=Plan("node", PLAN, CHECKPOINT_EVERY)))

    def test_faults_actually_fired(self):
        recorder = TraceRecorder()
        _, faulty = run_pair("SLFE", "SSSP", recorder=recorder)
        metrics = faulty.result.metrics
        assert metrics.recoveries == 1
        assert metrics.rollbacks == 1
        assert metrics.checkpoints_taken >= 2
        applied = [
            e.payload for e in recorder.events_named("fault")
            if e.payload["applied"]
        ]
        assert {p["kind"] for p in applied} >= {"crash", "straggler"}

    def test_fault_tolerance_costs_time_not_answers(self):
        clean, faulty = run_pair("SLFE", "SSSP")
        assert (
            faulty.runtime.execution_seconds > clean.runtime.execution_seconds
        )
        assert faulty.runtime.fault_tolerance_seconds > 0
        assert clean.runtime.fault_tolerance_seconds == 0


class TestGuidanceReuse:
    def test_rrg_generated_once_and_reused_on_recovery(self):
        recorder = TraceRecorder()
        _, faulty = run_pair("SLFE", "SSSP", recorder=recorder)
        assert faulty.result.metrics.rollbacks == 1
        # One preprocessing pass for the whole run — recovery must NOT
        # regenerate guidance...
        assert len(recorder.events_named("preprocessing")) == 1
        # ...and must say so: the restart is traced as a reuse.
        reuses = recorder.events_named("guidance_reused")
        assert len(reuses) == 1
        rollback = recorder.events_named("rollback")[0]
        assert reuses[0].payload["superstep"] == (
            rollback.payload["to_superstep"]
        )

    def test_no_reuse_event_without_rr(self):
        recorder = TraceRecorder()
        _, faulty = run_pair("Gemini", "SSSP", recorder=recorder)
        assert faulty.result.metrics.rollbacks == 1
        # Gemini emits the preprocessing span for vocabulary parity but
        # never does RR work in it — and has no guidance to reuse.
        assert all(
            e.payload["edge_ops"] == 0
            for e in recorder.events_named("preprocessing")
        )
        assert not recorder.events_named("guidance_reused")


class TestDeterminism:
    def event_stream(self):
        recorder = TraceRecorder()
        outcome = run_workload(
            "SLFE", "SSSP", GRAPH, scale_divisor=SCALE,
            fault_plan=PLAN, checkpoint_every=CHECKPOINT_EVERY,
            recorder=recorder,
        )
        # Everything except the wall clock must replay exactly (phase
        # spans time themselves, so their measured seconds are dropped).
        stream = [
            (
                e.name,
                e.superstep,
                {k: v for k, v in e.payload.items() if k not in ("seconds", "wall_seconds")},
            )
            for e in recorder.events
        ]
        return stream, outcome

    def test_identical_runs_identical_traces(self):
        first, outcome_a = self.event_stream()
        second, outcome_b = self.event_stream()
        assert first == second
        metrics_a, metrics_b = (
            outcome_a.result.metrics, outcome_b.result.metrics
        )
        assert metrics_a.total_retries == metrics_b.total_retries
        assert metrics_a.checkpoint_bytes == metrics_b.checkpoint_bytes
        assert (
            outcome_a.runtime.execution_seconds
            == outcome_b.runtime.execution_seconds
        )

    def test_seeded_random_plans_are_reproducible(self):
        assert FaultPlan.parse("seed:11") == FaultPlan.parse("seed:11")
        a = run_workload(
            "SLFE", "SSSP", GRAPH, scale_divisor=SCALE,
            fault_plan=FaultPlan.random(11, horizon=4),
            checkpoint_every=CHECKPOINT_EVERY,
        )
        b = run_workload(
            "SLFE", "SSSP", GRAPH, scale_divisor=SCALE,
            fault_plan=FaultPlan.random(11, horizon=4),
            checkpoint_every=CHECKPOINT_EVERY,
        )
        np.testing.assert_array_equal(a.result.values, b.result.values)
        assert (
            a.result.metrics.supersteps_replayed
            == b.result.metrics.supersteps_replayed
        )


@given(graphs.digraphs(min_vertices=1, weights=(graphs.POSITIVE,)),
       st.integers(0, 50))
def test_random_fault_plans_never_change_sssp(graph, plan_seed):
    """Property: any seeded plan on any small graph leaves SSSP intact."""
    plan = FaultPlan.random(plan_seed, num_nodes=4, horizon=6)
    check(Case(graph, "SSSP", 0, plan=Plan("random", plan, 2), num_nodes=4))
