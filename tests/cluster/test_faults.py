"""Unit tests for deterministic fault plans and the injector."""

import numpy as np
import pytest

from repro.cluster.cluster import SimulatedCluster
from repro.cluster.config import ClusterConfig
from repro.cluster.faults import (
    FaultInjector,
    FaultPlan,
    MessageLoss,
    NodeCrash,
    Straggler,
)
from repro.errors import FaultError, FaultSpecError
from repro.partition.base import VertexPartition
from repro.runconfig import configured, current, resolve
from repro.trace.recorder import NULL_RECORDER, TraceRecorder


class TestFaultValidation:
    def test_crash_rejects_superstep_zero(self):
        with pytest.raises(FaultError):
            NodeCrash(superstep=0, node=1)

    def test_crash_rejects_negative_node(self):
        with pytest.raises(FaultError):
            NodeCrash(superstep=1, node=-1)

    def test_loss_rejects_same_node_pair(self):
        with pytest.raises(FaultError):
            MessageLoss(superstep=1, src_node=2, dst_node=2)

    def test_loss_rejects_zero_attempts(self):
        with pytest.raises(FaultError):
            MessageLoss(superstep=1, src_node=0, dst_node=1, attempts=0)

    def test_straggler_rejects_speedup_factor(self):
        with pytest.raises(FaultError):
            Straggler(superstep=1, node=0, factor=1.0)

    def test_straggler_window(self):
        s = Straggler(superstep=3, node=0, factor=2.0, duration=2)
        assert [k for k in range(1, 7) if s.active_at(k)] == [3, 4]


class TestPlanParse:
    def test_full_spec_round_trip(self):
        plan = FaultPlan.parse("crash@3:1, loss@2:0-2x2, slow@4:1x2.5+3")
        assert plan.crashes == (NodeCrash(3, 1),)
        assert plan.losses == (MessageLoss(2, 0, 2, attempts=2),)
        assert plan.stragglers == (Straggler(4, 1, 2.5, duration=3),)
        assert plan and plan.num_faults == 3

    def test_defaults_for_optional_fields(self):
        plan = FaultPlan.parse("loss@1:0-1,slow@2:3x4")
        assert plan.losses[0].attempts == 1
        assert plan.stragglers[0].duration == 1

    @pytest.mark.parametrize(
        "spec",
        ["", "crash@:1", "crash@2", "boom@2:1", "loss@1:0", "slow@1:2",
         "seed:x", "crash@0:1", "loss@1:1-1"],
    )
    def test_malformed_specs_raise_fault_error(self, spec):
        with pytest.raises(FaultError):
            FaultPlan.parse(spec)

    def test_seed_spec_equals_random(self):
        assert FaultPlan.parse("seed:7") == FaultPlan.random(7)

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan().num_faults == 0


class TestParseTimeSpecErrors:
    """The whole grammar fails fast with one-line typed errors.

    A spec that would otherwise surface as a KeyError/IndexError mid-run
    — or parse into a plan whose faults silently never apply — must
    raise :class:`FaultSpecError` at parse time instead.
    """

    @pytest.mark.parametrize(
        "spec, kwargs, fragment",
        [
            ("crash@-3:1", {}, "superstep must be >= 1"),
            ("crash@2:9", {"num_nodes": 4}, "out of range for a 4-node"),
            ("loss@1:9-0", {"num_nodes": 4}, "loss source"),
            ("loss@1:0-9", {"num_nodes": 4}, "loss destination"),
            ("loss@1:0-2x", {}, "malformed fault term"),
            ("slow@1:9x2", {"num_nodes": 4}, "straggler node 9"),
            ("slow@1:2x3+", {}, "malformed fault term"),
            ("boom@2:1", {}, "unknown fault kind"),
            ("worker-crash@1:BOGUS-0", {}, "phase must be one of"),
            (
                "worker-crash@1:push-5",
                {"num_workers": 4},
                "out of range for a 4-worker pool",
            ),
            (
                "worker-hang@1:gather-7",
                {"num_workers": 2},
                "out of range for a 2-worker pool",
            ),
            ("", {}, "empty fault spec"),
            ("seed:x", {}, "seed must be an integer"),
        ],
    )
    def test_bad_specs_raise_one_line_typed_errors(
        self, spec, kwargs, fragment
    ):
        with pytest.raises(FaultSpecError) as excinfo:
            FaultPlan.parse(spec, **kwargs)
        message = str(excinfo.value)
        assert fragment in message
        assert "\n" not in message

    def test_spec_error_is_a_fault_error(self):
        assert issubclass(FaultSpecError, FaultError)

    def test_worker_range_unchecked_without_pool_size(self):
        # No num_workers: the CLI may not know the pool yet, so worker
        # indices pass through (the injector skips them at runtime).
        plan = FaultPlan.parse("worker-crash@1:push-64")
        assert plan.worker_faults[0].worker == 64

    def test_valid_compound_plan_parses(self):
        plan = FaultPlan.parse(
            "crash@3:1, loss@2:0-2x2, slow@4:1x2.5+3, "
            "worker-hang@2:pull-1",
            num_nodes=4,
            num_workers=2,
        )
        assert plan.num_faults == 4


class TestPlanRandom:
    def test_same_seed_same_plan(self):
        assert FaultPlan.random(42) == FaultPlan.random(42)

    def test_different_seeds_differ(self):
        plans = {FaultPlan.random(seed) for seed in range(20)}
        assert len(plans) > 1

    def test_horizon_bounds_supersteps(self):
        for seed in range(10):
            plan = FaultPlan.random(seed, horizon=5)
            for fault in plan.crashes + plan.losses + plan.stragglers:
                assert 1 <= fault.superstep <= 5

    def test_single_node_plan_only_stragglers(self):
        plan = FaultPlan.random(0, num_nodes=1)
        assert plan.crashes == () and plan.losses == ()
        assert plan.stragglers


class TestPlanQueries:
    def test_crashes_and_losses_at(self):
        plan = FaultPlan.parse("crash@3:1,crash@5:2,loss@3:0-1")
        assert plan.crashes_at(3) == (NodeCrash(3, 1),)
        assert plan.crashes_at(4) == ()
        assert plan.losses_at(3) == (MessageLoss(3, 0, 1),)

    def test_slowdown_uses_max_when_windows_overlap(self):
        plan = FaultPlan(
            stragglers=(Straggler(2, 0, 2.0, duration=3), Straggler(3, 0, 5.0))
        )
        factors = plan.slowdown_at(3, num_nodes=2)
        assert factors.tolist() == [5.0, 1.0]
        assert plan.slowdown_at(1, num_nodes=2) is None

    def test_slowdown_ignores_out_of_range_node(self):
        plan = FaultPlan(stragglers=(Straggler(1, 9, 2.0),))
        assert plan.slowdown_at(1, num_nodes=2) is None


class TestAmbientPlan:
    def test_install_uninstall_round_trip(self):
        plan = FaultPlan.parse("crash@2:0")
        assert (current().fault_plan, resolve("checkpoint_every")) == (None, 0)
        with configured(fault_plan=plan, checkpoint_every=3):
            assert (current().fault_plan, resolve("checkpoint_every")) == (
                plan, 3)
        assert (current().fault_plan, resolve("checkpoint_every")) == (None, 0)


def make_injector(graph, owner, plan, recorder=None):
    partition = VertexPartition(np.asarray(owner, dtype=np.int64), 2)
    cluster = SimulatedCluster(graph, partition, ClusterConfig(num_nodes=2))
    metrics = cluster.new_metrics()
    injector = FaultInjector(
        plan, cluster, metrics, recorder if recorder is not None else NULL_RECORDER
    )
    return injector, cluster, metrics


class TestInjectorCrashes:
    def test_crash_fires_once(self, diamond):
        plan = FaultPlan.parse("crash@2:1")
        injector, _, _ = make_injector(diamond, [0, 0, 1, 1], plan)
        assert injector.crash_at(1) is None
        assert injector.crash_at(2) == NodeCrash(2, 1)
        # One-shot: asking again for the same superstep (rollback replay)
        # must not fire the crash a second time.
        assert injector.crash_at(2) is None

    def test_out_of_range_crash_skipped_with_trace(self, diamond):
        recorder = TraceRecorder()
        plan = FaultPlan(crashes=(NodeCrash(1, 9),))
        injector, _, _ = make_injector(diamond, [0, 0, 1, 1], plan, recorder)
        assert injector.crash_at(1) is None
        events = recorder.events_named("fault")
        assert len(events) == 1
        assert events[0].payload["applied"] is False

    def test_crash_on_dead_node_skipped(self, diamond):
        plan = FaultPlan(crashes=(NodeCrash(2, 1), NodeCrash(3, 1)))
        injector, cluster, _ = make_injector(diamond, [0, 0, 1, 1], plan)
        assert injector.crash_at(2) is not None
        cluster.fail_node(1)
        assert injector.crash_at(3) is None

    def test_last_survivor_never_crashes(self, diamond):
        plan = FaultPlan(crashes=(NodeCrash(2, 0),))
        injector, cluster, _ = make_injector(diamond, [0, 0, 1, 1], plan)
        cluster.fail_node(1)
        assert injector.crash_at(2) is None


class TestInjectorStragglers:
    def test_slowdown_factors_and_event_at_window_start(self, diamond):
        recorder = TraceRecorder()
        plan = FaultPlan.parse("slow@2:1x3+2")
        injector, _, _ = make_injector(diamond, [0, 0, 1, 1], plan, recorder)
        assert injector.slowdown_at(1) is None
        assert injector.slowdown_at(2).tolist() == [1.0, 3.0]
        assert injector.slowdown_at(3).tolist() == [1.0, 3.0]
        # One trace event per window, not one per superstep.
        straggles = [
            e for e in recorder.events_named("fault")
            if e.payload["kind"] == "straggler"
        ]
        assert len(straggles) == 1


class TestInjectorMessageLoss:
    def test_loss_charges_retries(self, diamond):
        # diamond split {0,1} | {2,3}: at the chosen superstep vertices
        # 0 and 1 change; v0 -> v2 and v1 -> v3 cross the cut.
        recorder = TraceRecorder()
        plan = FaultPlan.parse("loss@1:0-1x2")
        injector, cluster, metrics = make_injector(
            diamond, [0, 0, 1, 1], plan, recorder
        )
        metrics.begin_iteration("push")
        seconds = injector.apply_message_loss(1, np.array([0, 1]))
        metrics.end_iteration()
        assert seconds > 0
        assert injector.retried_messages == 2 * 2  # 2 lost msgs x 2 attempts
        assert metrics.total_retries == 4
        # Retries never inflate the logical message count.
        assert metrics.total_messages == 0
        assert recorder.events_named("retry")

    def test_loss_with_no_traffic_is_noop(self, diamond):
        plan = FaultPlan.parse("loss@1:1-0")
        injector, _, metrics = make_injector(diamond, [0, 0, 1, 1], plan)
        metrics.begin_iteration("push")
        # Vertices 2,3 (owned by node 1) have no out-edges back to node 0.
        assert injector.apply_message_loss(1, np.array([2, 3])) == 0.0
        metrics.end_iteration()
        assert injector.retried_messages == 0

    def test_loss_on_dead_node_skipped(self, diamond):
        recorder = TraceRecorder()
        plan = FaultPlan.parse("loss@1:0-1")
        injector, cluster, metrics = make_injector(
            diamond, [0, 0, 1, 1], plan, recorder
        )
        cluster.fail_node(1)
        metrics.begin_iteration("push")
        assert injector.apply_message_loss(1, np.array([0, 1])) == 0.0
        metrics.end_iteration()
        skipped = [
            e for e in recorder.events_named("fault")
            if e.payload["kind"] == "loss"
        ]
        assert skipped and skipped[0].payload["applied"] is False
