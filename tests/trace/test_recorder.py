"""Unit tests for the trace recorder and its exporters."""

import csv
import io
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.trace import recorder as trace_events
from repro.trace.export import (
    attach_modeled,
    dumps_jsonl,
    modes_by_superstep,
    render_profile,
    superstep_csv,
    write_jsonl,
)
from repro.trace.recorder import (
    NULL_RECORDER,
    VOCABULARY,
    NullRecorder,
    TraceRecorder,
)
from repro.runconfig import configured, current


class FakeClock:
    """Deterministic clock: each read advances by ``step`` seconds."""

    def __init__(self, step=1.0):
        self.t = 0.0
        self.step = step

    def __call__(self):
        self.t += self.step
        return self.t


class TestNullRecorder:
    def test_disabled_and_silent(self):
        rec = NullRecorder()
        assert rec.enabled is False
        assert rec.emit("not_even_a_real_event", foo=1) is None
        assert rec.begin_superstep("push") is None
        assert rec.end_superstep(edge_ops=5) is None

    def test_phase_is_shared_noop_context(self):
        rec = NullRecorder()
        span = rec.phase("gather")
        with span:
            pass
        # One shared object: no per-call allocation on the hot path.
        assert rec.phase("apply") is span is NULL_RECORDER.phase("sync")

    def test_exceptions_propagate_through_phase(self):
        with pytest.raises(RuntimeError):
            with NULL_RECORDER.phase("gather"):
                raise RuntimeError("boom")


class TestTraceRecorder:
    def test_event_ordering(self):
        rec = TraceRecorder(clock=FakeClock())
        rec.begin_superstep("push")
        rec.emit(trace_events.UPDATES, count=3)
        rec.end_superstep(edge_ops=10)
        rec.begin_superstep("pull")
        rec.end_superstep(edge_ops=20)
        names = [e.name for e in rec.events]
        assert names == [
            "superstep_begin", "updates", "superstep_end",
            "superstep_begin", "superstep_end",
        ]
        assert [e.superstep for e in rec.events] == [0, 0, 0, 1, 1]
        # Monotone timestamps (FakeClock advances every read).
        times = [e.wall_seconds for e in rec.events]
        assert times == sorted(times)

    def test_unknown_event_rejected(self):
        rec = TraceRecorder()
        with pytest.raises(TraceError):
            rec.emit("bogus_event")

    def test_double_begin_rejected(self):
        rec = TraceRecorder()
        rec.begin_superstep("push")
        with pytest.raises(TraceError):
            rec.begin_superstep("pull")

    def test_end_without_begin_rejected(self):
        with pytest.raises(TraceError):
            TraceRecorder().end_superstep()

    def test_explicit_superstep_index(self):
        rec = TraceRecorder()
        rec.begin_superstep("pull", index=7)
        rec.end_superstep()
        rec.begin_superstep("pull")
        rec.end_superstep()
        assert [e.superstep for e in rec.events_named("superstep_end")] == [7, 8]

    def test_superstep_wall_seconds(self):
        rec = TraceRecorder(clock=FakeClock(step=0.5))
        rec.begin_superstep("pull")
        rec.end_superstep()
        (end,) = rec.events_named("superstep_end")
        assert end.payload["wall_seconds"] == pytest.approx(1.0)

    def test_phase_span_emits_duration(self):
        rec = TraceRecorder(clock=FakeClock(step=0.25))
        rec.begin_superstep("pull")
        with rec.phase("gather"):
            pass
        rec.end_superstep()
        (phase,) = rec.events_named("phase")
        assert phase.payload["name"] == "gather"
        # One clock tick between the enter and exit reads.
        assert phase.payload["seconds"] == pytest.approx(0.25)
        assert phase.superstep == 0

    def test_totals_and_vocabulary(self):
        rec = TraceRecorder()
        rec.begin_superstep("push")
        rec.end_superstep(edge_ops=4)
        rec.begin_superstep("pull")
        rec.end_superstep(edge_ops=6)
        assert rec.num_supersteps == 2
        assert rec.superstep_totals("edge_ops") == {0: 4, 1: 6}
        assert rec.total("edge_ops") == 10
        assert rec.vocabulary_used() == {"superstep_begin", "superstep_end"}
        assert rec.vocabulary_used() <= VOCABULARY


class TestRecorderProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["push", "pull"]),
                st.integers(min_value=0, max_value=10**6),
            ),
            max_size=30,
        )
    )
    def test_superstep_accounting_is_exact(self, supersteps):
        rec = TraceRecorder(clock=FakeClock())
        for mode, ops in supersteps:
            rec.begin_superstep(mode)
            rec.end_superstep(mode=mode, edge_ops=ops)
        assert rec.num_supersteps == len(supersteps)
        assert rec.total("edge_ops") == sum(ops for _, ops in supersteps)
        from repro.trace.export import modes_by_superstep

        assert modes_by_superstep(rec) == [mode for mode, _ in supersteps]
        # Event stream alternates begin/end in order, timestamps monotone.
        names = [e.name for e in rec.events]
        assert names == ["superstep_begin", "superstep_end"] * len(supersteps)
        times = [e.wall_seconds for e in rec.events]
        assert times == sorted(times)

    @given(st.text(min_size=1, max_size=30))
    def test_arbitrary_names_rejected_unless_in_vocabulary(self, name):
        rec = TraceRecorder()
        if name in VOCABULARY:
            rec.emit(name)
        else:
            with pytest.raises(TraceError):
                rec.emit(name)


class TestInstalledRecorder:
    def test_install_uninstall_roundtrip(self):
        assert current().recorder is NULL_RECORDER
        rec = TraceRecorder()
        with configured(recorder=rec):
            assert current().recorder is rec
            with configured(recorder=None):
                assert current().recorder is NULL_RECORDER
        assert current().recorder is NULL_RECORDER


class TestExporters:
    def _small_trace(self):
        rec = TraceRecorder(clock=FakeClock(step=0.1))
        rec.emit(trace_events.RUN_BEGIN, engine="SLFE")
        rec.begin_superstep("push")
        with rec.phase("scatter"):
            pass
        rec.end_superstep(mode="push", edge_ops=5, messages=2)
        return rec

    def test_jsonl_one_object_per_event(self):
        rec = self._small_trace()
        lines = dumps_jsonl(rec).strip().split("\n")
        assert len(lines) == len(rec.events)
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["event"] == "run_begin"
        assert parsed[-1]["edge_ops"] == 5

    def test_write_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(self._small_trace(), str(path))
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_empty_trace_dumps_empty(self):
        assert dumps_jsonl(TraceRecorder()) == ""

    def test_superstep_csv(self):
        rec = self._small_trace()
        rows = list(csv.reader(io.StringIO(superstep_csv(rec))))
        header, row = rows
        assert header[0] == "superstep"
        assert row[header.index("mode")] == "push"
        assert row[header.index("edge_ops")] == "5"

    def test_attach_modeled_annotates_tail(self):
        rec = self._small_trace()

        class Cost:
            total_seconds = 0.5
            compute_seconds = 0.3
            network_seconds = 0.2
            io_seconds = 0.0

        class Breakdown:
            iterations = (Cost(),)

        attach_modeled(rec, Breakdown())
        (end,) = rec.events_named("superstep_end")
        assert end.payload["modeled_seconds"] == 0.5
        assert end.payload["modeled_compute_seconds"] == 0.3

    def test_render_profile_mentions_phases(self):
        text = render_profile(self._small_trace())
        assert "scatter" in text
        assert "(untimed)" in text
        assert "1 supersteps" in text

    def test_modes_by_superstep(self):
        assert modes_by_superstep(self._small_trace()) == ["push"]
