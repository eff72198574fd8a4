"""One fold of a trace: report, profile, span tree and registry agree.

Counter totals come from the metrics registry alone and phase time from
one phase-row fold (:func:`repro.trace.export.phase_rows`), so ``repro
report`` cannot disagree with ``/metrics`` or with ``repro trace``'s
profile.
"""

import pytest

from repro.bench import workloads
from repro.bench.runner import run_workload
from repro.cluster.faults import FaultPlan
from repro.obs.metrics import registry_from_trace
from repro.obs.report import build_report, render_markdown
from repro.obs.spans import build_span_tree, iter_spans
from repro.trace import recorder as ev
from repro.trace.export import link_phases, phase_rows, render_profile
from repro.trace.recorder import TraceRecorder

#: The PK stand-in both disagreements were measured on.
NODES = 4
SCALE = 2000


def loss_spec(num_nodes, supersteps):
    """Message loss x3 on every ordered node pair in each superstep."""
    return ",".join(
        "loss@%d:%d-%dx3" % (step, src, dst)
        for step in supersteps
        for src in range(num_nodes)
        for dst in range(num_nodes)
        if src != dst
    )


class TestRetries:
    @pytest.fixture(scope="class")
    def lossy(self):
        plan = FaultPlan.parse(
            loss_spec(NODES, range(1, 6)), num_nodes=NODES
        )
        rec = TraceRecorder()
        outcome = run_workload(
            "SLFE", "SSSP", "PK", num_nodes=NODES,
            scale_divisor=SCALE, fault_plan=plan, recorder=rec,
        )
        return rec, outcome

    def test_report_counts_retransmissions_like_the_collector(self, lossy):
        rec, outcome = lossy
        assert any(
            e.payload["attempts"] > 1 for e in rec.events_named(ev.RETRY)
        )
        report = build_report(rec)
        faults = report["faults"]
        assert faults["retries"] > 0
        assert faults["retries"] == outcome.result.metrics.total_retries
        assert faults["retries"] == registry_from_trace(rec).total(
            "repro_retried_messages"
        )
        assert "| %d | %d |" % (
            faults["retries"], faults["retry_bytes"]
        ) in render_markdown(report)

    def test_retry_bytes_are_one_update_per_retried_message(self, lossy):
        rec, _outcome = lossy
        faults = build_report(rec)["faults"]
        config = workloads.experiment_cluster(
            num_nodes=NODES, scale_divisor=SCALE
        )
        assert faults["retry_bytes"] / faults["retries"] == (
            config.network.bytes_per_update
        )


class ScriptedClock:
    """Returns the given readings in order, one per clock read."""

    def __init__(self, readings):
        self._readings = iter(readings)

    def __call__(self):
        return next(self._readings)


def same_tick_trace():
    """``coalesce`` opens on the tick ``sync`` opens on.

    Readings: recorder start; ``sync`` enters at 1; ``coalesce`` enters
    at 1, closes at 2 and is stamped at 2; ``sync`` closes at 3 and is
    stamped at 3.5.  A start rebuilt from the stamp puts ``sync`` at
    1.5, after its child's 1.0.
    """
    rec = TraceRecorder(
        clock=ScriptedClock([0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.5])
    )
    with rec.phase("sync"):
        with rec.phase("coalesce"):
            pass
    return rec


def unlinked_phases(rec):
    """Nested phase events the span tree left outside their parent."""
    nested = sum(
        1 for e in rec.events_named(ev.PHASE) if e.payload.get("parent")
    )
    linked = sum(
        1
        for span, _depth in iter_spans(build_span_tree(rec))
        if span.category == "phase"
        for child in span.children
        if child.category == "phase" and child.args["parent"] == span.name
    )
    return nested - linked


def profile_rows(rec):
    """``{row name: (calls, self seconds)}`` parsed from the profile."""
    rows = {}
    for line in render_profile(rec, precision=15).splitlines()[3:]:
        name, calls, seconds, _share = line.split()
        if name != "(untimed)" and calls != "0":
            rows[name] = (int(calls), float(seconds))
    return rows


def assert_profile_matches_report(rec):
    report_rows = {
        ("%s/%s" % (p["parent"], p["phase"]) if p["parent"] else p["phase"]):
            (p["calls"], p["self_seconds"])
        for p in build_report(rec)["phases"]
    }
    profile = profile_rows(rec)
    assert profile.keys() == report_rows.keys()
    for name, (calls, self_seconds) in report_rows.items():
        assert profile[name][0] == calls, name
        assert profile[name][1] == pytest.approx(self_seconds, abs=1e-12)


class TestPhaseLinking:
    def test_child_opening_on_its_parents_tick_links(self):
        rec = same_tick_trace()
        assert unlinked_phases(rec) == 0
        (root,) = build_span_tree(rec)
        (sync,) = root.children
        assert [child.name for child in sync.children] == ["coalesce"]

    def test_same_tick_self_time_excludes_the_child(self):
        rows = {(r["phase"], r["parent"]): r for r in phase_rows(
            same_tick_trace()
        )}
        assert rows[("sync", None)]["self_seconds"] == 1.0
        assert rows[("coalesce", "sync")]["self_seconds"] == 1.0
        assert_profile_matches_report(same_tick_trace())

    def test_links_follow_event_order_and_depth(self):
        rec = TraceRecorder(clock=lambda: 0.0)
        # An orphan (its parent never closed), then a clean nest two deep.
        rec.emit(ev.PHASE, name="coalesce", seconds=1.0, parent="sync",
                 depth=1)
        rec.emit(ev.PHASE, name="gather", seconds=1.0, parent=None, depth=0)
        rec.emit(ev.PHASE, name="leaf", seconds=1.0, parent="mid", depth=2)
        rec.emit(ev.PHASE, name="mid", seconds=2.0, parent="sync", depth=1)
        rec.emit(ev.PHASE, name="sync", seconds=4.0, parent=None, depth=0)
        links = {
            event.payload["name"]: [c.payload["name"] for c in children]
            for event, children in link_phases(rec)
        }
        assert links == {
            "coalesce": [], "gather": [], "leaf": [], "mid": ["leaf"],
            "sync": ["mid"],
        }


@pytest.fixture(scope="module", params=["SSSP", "PR", "CC"])
def recorded(request):
    rec = TraceRecorder()
    run_workload("SLFE", request.param, "PK", num_nodes=NODES,
                 scale_divisor=SCALE, recorder=rec)
    return rec


class TestRecordedTraces:
    def test_every_nested_phase_links_to_its_parent(self, recorded):
        assert any(
            e.payload.get("parent") for e in recorded.events_named(ev.PHASE)
        )
        assert unlinked_phases(recorded) == 0

    def test_profile_rows_equal_report_rows(self, recorded):
        assert_profile_matches_report(recorded)
