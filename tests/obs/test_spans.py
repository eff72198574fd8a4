"""Span profiler: tree reconstruction and the Chrome/speedscope exporters."""

import json

import pytest

from repro.bench.runner import run_workload
from repro.cluster.faults import FaultPlan
from repro.obs.spans import (
    build_span_tree,
    iter_spans,
    to_chrome_trace,
    to_speedscope,
)
from repro.trace import recorder as ev
from repro.trace.recorder import TraceRecorder

SCALE = 16000


class Clock:
    """Manually advanced clock for deterministic span intervals."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def nested_trace():
    """run -> superstep -> gather -> coalesce with hand-set timestamps."""
    clock = Clock()
    rec = TraceRecorder(clock=clock)
    rec.emit(ev.RUN_BEGIN, engine="SLFE", app="SSSP", graph="PK")
    clock.t = 1.0
    rec.begin_superstep("push")
    with rec.phase("gather"):
        clock.t = 2.0
        with rec.phase("coalesce"):
            clock.t = 3.0
        clock.t = 5.0
    clock.t = 6.0
    rec.end_superstep(edge_ops=10)
    clock.t = 7.0
    rec.emit(ev.RUN_END, iterations=1)
    return rec


class TestSpanTree:
    def test_nesting_reconstructed(self):
        roots = build_span_tree(nested_trace())
        assert len(roots) == 1
        run = roots[0]
        assert run.category == "run"
        assert (run.start, run.end) == (0.0, 7.0)
        (superstep,) = run.children
        assert superstep.category == "superstep"
        assert (superstep.start, superstep.end) == (1.0, 6.0)
        (gather,) = superstep.children
        assert gather.name == "gather"
        assert (gather.start, gather.end) == (1.0, 5.0)
        (coalesce,) = gather.children
        assert coalesce.name == "coalesce"
        assert (coalesce.start, coalesce.end) == (2.0, 3.0)
        assert coalesce.children == []

    def test_iter_spans_depth_first(self):
        flat = [
            (span.name, depth)
            for span, depth in iter_spans(build_span_tree(nested_trace()))
        ]
        assert flat == [
            ("SLFE SSSP PK", 0),
            ("superstep 0 (push)", 1),
            ("gather", 2),
            ("coalesce", 3),
        ]

    def test_still_open_trace_closes_at_last_event(self):
        clock = Clock()
        rec = TraceRecorder(clock=clock)
        rec.emit(ev.RUN_BEGIN, engine="SLFE", app="SSSP", graph="PK")
        clock.t = 1.0
        rec.begin_superstep("pull")
        clock.t = 2.0
        rec.emit(ev.UPDATES, count=1)
        roots = build_span_tree(rec)  # no superstep_end / run_end
        assert roots[0].end == 2.0
        assert roots[0].children[0].end == 2.0

    def test_bare_phases_get_synthetic_root(self):
        clock = Clock()
        rec = TraceRecorder(clock=clock)
        with rec.phase("gather"):
            clock.t = 1.0
        roots = build_span_tree(rec)
        assert [r.name for r in roots] == ["trace"]
        assert [c.name for c in roots[0].children] == ["gather"]

    def test_empty_trace(self):
        assert build_span_tree(TraceRecorder(clock=lambda: 0.0)) == []


def real_trace(fault_plan=None, checkpoint_every=0):
    rec = TraceRecorder()
    run_workload(
        "SLFE", "SSSP", "PK", scale_divisor=SCALE, recorder=rec,
        fault_plan=fault_plan, checkpoint_every=checkpoint_every,
    )
    return rec


class TestChromeTrace:
    def test_events_validate(self):
        doc = to_chrome_trace(nested_trace())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert {e["name"] for e in events if e["ph"] == "M"} == {
            "process_name", "thread_name",
        }
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 4  # run, superstep, gather, coalesce
        for e in complete:
            assert isinstance(e["name"], str) and e["name"]
            assert isinstance(e["ts"], (int, float)) and e["ts"] >= 0
            assert isinstance(e["dur"], (int, float)) and e["dur"] >= 0
            assert e["pid"] == 1 and e["tid"] == 1
        gather = next(e for e in complete if e["name"] == "gather")
        assert gather["ts"] == pytest.approx(1e6)
        assert gather["dur"] == pytest.approx(4e6)

    def test_parent_excluded_from_args(self):
        doc = to_chrome_trace(nested_trace())
        for e in doc["traceEvents"]:
            assert "parent" not in e.get("args", {})

    def test_instant_events_for_fault_tolerance(self):
        plan = FaultPlan.parse("crash@3:1", num_nodes=8)
        rec = real_trace(fault_plan=plan, checkpoint_every=2)
        doc = to_chrome_trace(rec)
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert instants
        for e in instants:
            assert e["s"] == "t"
            assert e["cat"] == "fault-tolerance"
        assert {e["name"] for e in instants} >= {"fault", "checkpoint"}

    def test_real_trace_serialises(self):
        text = json.dumps(to_chrome_trace(real_trace()))
        assert json.loads(text)["traceEvents"]


def assert_valid_evented(doc):
    """The invariants speedscope's evented-profile loader checks."""
    assert doc["$schema"].endswith("file-format-schema.json")
    frames = doc["shared"]["frames"]
    (profile,) = doc["profiles"]
    assert profile["type"] == "evented"
    assert profile["endValue"] >= profile["startValue"]
    stack = []
    last_at = profile["startValue"]
    for event in profile["events"]:
        assert 0 <= event["frame"] < len(frames)
        assert event["at"] >= last_at - 1e-12  # non-decreasing
        last_at = event["at"]
        if event["type"] == "O":
            stack.append(event["frame"])
        else:
            assert event["type"] == "C"
            assert stack.pop() == event["frame"]  # strictly LIFO
    assert stack == []
    assert last_at <= profile["endValue"] + 1e-12


class TestSpeedscope:
    def test_deterministic_trace_is_valid(self):
        assert_valid_evented(to_speedscope(nested_trace()))

    def test_frames_deduplicated_by_name(self):
        doc = to_speedscope(nested_trace())
        names = [f["name"] for f in doc["shared"]["frames"]]
        assert len(names) == len(set(names))

    def test_real_trace_is_valid(self):
        assert_valid_evented(to_speedscope(real_trace()))

    def test_fault_trace_is_valid(self):
        plan = FaultPlan.parse("crash@3:1,slow@2:0x3", num_nodes=8)
        rec = real_trace(fault_plan=plan, checkpoint_every=2)
        assert_valid_evented(to_speedscope(rec))

    def test_empty_trace_is_valid(self):
        doc = to_speedscope(TraceRecorder(clock=lambda: 0.0))
        assert_valid_evented(doc)
        assert doc["profiles"][0]["events"] == []
