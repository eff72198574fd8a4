"""Metrics registry: primitives, trace projection, OpenMetrics round trip."""

import pytest

from repro.bench.runner import run_workload
from repro.errors import ObservabilityError
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_openmetrics,
    registry_from_trace,
    render_openmetrics,
)
from repro.trace.recorder import TraceRecorder

SCALE = 16000


def traced(engine="SLFE", app="SSSP", graph="PK", **kwargs):
    rec = TraceRecorder()
    outcome = run_workload(
        engine, app, graph, scale_divisor=SCALE, recorder=rec, **kwargs
    )
    return rec, outcome


def family_total(registry, name):
    family = registry.get(name)
    assert family is not None, "missing family %r" % name
    return sum(value for _key, value in family.samples())


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("ops", labelnames=("node",))
        c.inc(3, node="0")
        c.inc(2, node="0")
        c.inc(5, node="1")
        assert c.value(node="0") == 5
        assert c.value(node="1") == 5
        assert c.value(node="2") == 0

    def test_negative_inc_rejected(self):
        c = Counter("ops")
        with pytest.raises(ObservabilityError):
            c.inc(-1)

    def test_render_uses_total_suffix(self):
        c = Counter("repro_ops")
        c.inc(7)
        assert c.render() == ["repro_ops_total 7"]

    def test_wrong_labels_rejected(self):
        c = Counter("ops", labelnames=("node",))
        with pytest.raises(ObservabilityError):
            c.inc(1, mode="push")
        with pytest.raises(ObservabilityError):
            c.inc(1)  # missing the declared label

    def test_invalid_name_rejected(self):
        with pytest.raises(ObservabilityError):
            Counter("bad name")
        with pytest.raises(ObservabilityError):
            Counter("ok", labelnames=("bad-label",))


class TestGauge:
    def test_last_write_wins(self):
        g = Gauge("ruler")
        g.set(3)
        g.set(9)
        assert g.value() == 9
        assert g.render() == ["ruler 9"]


class TestHistogram:
    def test_buckets_are_cumulative(self):
        h = Histogram("lat", buckets=(1.0, 10.0))
        for v in (0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.bucket_counts() == {"1": 2, "10": 3, "+Inf": 4}
        assert h.count() == 4
        assert h.sum() == pytest.approx(56.0)

    def test_inf_bucket_appended_automatically(self):
        h = Histogram("lat", buckets=(1.0,))
        assert h.buckets[-1] == float("inf")

    def test_render_has_bucket_sum_count(self):
        h = Histogram("lat", buckets=(1.0,))
        h.observe(0.5)
        lines = h.render()
        assert 'lat_bucket{le="1"} 1' in lines
        assert 'lat_bucket{le="+Inf"} 1' in lines
        assert "lat_sum 0.5" in lines
        assert "lat_count 1" in lines

    def test_empty_buckets_rejected(self):
        with pytest.raises(ObservabilityError):
            Histogram("lat", buckets=())


class TestRegistry:
    def test_get_or_create_returns_same_family(self):
        reg = MetricsRegistry()
        a = reg.counter("ops", labelnames=("node",))
        b = reg.counter("ops", labelnames=("node",))
        assert a is b
        assert len(reg) == 1

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("ops")
        with pytest.raises(ObservabilityError):
            reg.gauge("ops")
        with pytest.raises(ObservabilityError):
            reg.histogram("ops")

    def test_labelset_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("ops", labelnames=("node",))
        with pytest.raises(ObservabilityError):
            reg.counter("ops", labelnames=("mode",))

    def test_total_sums_a_family_or_groups_it_by_one_label(self):
        reg = MetricsRegistry()
        ops = reg.counter("ops", labelnames=("node", "mode"))
        ops.inc(3, node=1, mode="push")
        ops.inc(4, node=0, mode="pull")
        ops.inc(5, node=1, mode="pull")
        assert reg.total("ops") == 12
        assert reg.total("ops", by="node") == {"1": 8, "0": 4}
        assert list(reg.total("ops", by="node")) == ["1", "0"]
        assert reg.total("ops", by="mode") == {"push": 3, "pull": 9}

    def test_total_of_an_absent_or_empty_family_is_zero(self):
        reg = MetricsRegistry()
        reg.counter("ops", labelnames=("node",))
        assert reg.total("ops") == 0
        assert reg.total("ops", by="node") == {}
        assert reg.total("missing") == 0
        assert reg.total("missing", by="node") == {}

    def test_total_of_a_histogram_sums_its_observations(self):
        reg = MetricsRegistry()
        wall = reg.histogram("wall_seconds")
        wall.observe(0.25)
        wall.observe(0.5)
        assert reg.total("wall_seconds") == 0.75


class TestOpenMetricsText:
    def build(self):
        reg = MetricsRegistry()
        reg.counter("repro_ops", "operations", ("node",)).inc(5, node="0")
        reg.gauge("repro_ruler").set(3)
        h = reg.histogram("repro_lat", buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(20.0)
        return reg

    def test_render_terminates_with_eof(self):
        text = render_openmetrics(self.build())
        assert text.endswith("# EOF\n")
        assert "# TYPE repro_ops counter" in text
        assert "# TYPE repro_ruler gauge" in text
        assert "# TYPE repro_lat histogram" in text

    def test_round_trip(self):
        types, samples = parse_openmetrics(render_openmetrics(self.build()))
        assert types == {
            "repro_ops": "counter",
            "repro_ruler": "gauge",
            "repro_lat": "histogram",
        }
        by_name = {}
        for name, labels, value in samples:
            by_name.setdefault(name, []).append((labels, value))
        assert by_name["repro_ops_total"] == [({"node": "0"}, 5.0)]
        assert by_name["repro_ruler"] == [({}, 3.0)]
        assert ({"le": "+Inf"}, 2.0) in by_name["repro_lat_bucket"]
        assert by_name["repro_lat_count"] == [({}, 2.0)]

    def test_label_escaping_round_trips(self):
        reg = MetricsRegistry()
        tricky = 'quote " slash \\ newline \n end'
        reg.counter("repro_ops", labelnames=("app",)).inc(1, app=tricky)
        _types, samples = parse_openmetrics(render_openmetrics(reg))
        assert samples == [("repro_ops_total", {"app": tricky}, 1.0)]

    def test_missing_eof_rejected(self):
        with pytest.raises(ObservabilityError):
            parse_openmetrics("repro_ops_total 1\n")

    def test_garbage_sample_rejected(self):
        with pytest.raises(ObservabilityError):
            parse_openmetrics("this is not a sample\n# EOF")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ObservabilityError):
            parse_openmetrics("repro_ops_total banana\n# EOF")


class TestTraceProjection:
    def test_totals_match_metrics_collector(self):
        rec, outcome = traced()
        registry = registry_from_trace(rec)
        metrics = outcome.result.metrics
        assert family_total(registry, "repro_edge_ops") == (
            metrics.total_edge_ops
        )
        assert family_total(registry, "repro_messages") == (
            metrics.total_messages
        )
        assert family_total(registry, "repro_message_bytes") == (
            metrics.total_message_bytes
        )
        assert family_total(registry, "repro_updates") == (
            metrics.total_updates
        )
        assert family_total(registry, "repro_supersteps") == (
            outcome.result.iterations
        )

    def test_run_identity_labels(self):
        rec, _ = traced()
        registry = registry_from_trace(rec)
        runs = registry.get("repro_runs")
        assert runs.value(app="SSSP", engine="SLFE", graph="PK") == 1

    def test_rr_series_present_for_slfe_minmax(self):
        rec, _ = traced("SLFE", "SSSP")
        registry = registry_from_trace(rec)
        skipped = registry.get("repro_rr_skipped_edge_ops")
        index = skipped.labelnames.index("rr")
        techniques = {key[index] for key, _v in skipped.samples()}
        assert "start_late" in techniques
        assert family_total(registry, "repro_preprocessing_edge_ops") > 0
        # lastIter attribution sums to the start-late skipped total.
        by_bucket = family_total(
            registry, "repro_rr_skipped_edge_ops_by_last_iter"
        )
        start_late = sum(
            v for k, v in skipped.samples() if k[index] == "start_late"
        )
        assert by_bucket == start_late

    def test_ec_series_present_for_arithmetic(self):
        rec, _ = traced("SLFE", "PR")
        registry = registry_from_trace(rec)
        assert family_total(registry, "repro_ec_frozen") > 0
        fraction = registry.get("repro_ec_frozen_fraction")
        assert fraction.kind == "histogram"

    def test_projection_is_deterministic(self):
        rec, _ = traced()
        once = render_openmetrics(registry_from_trace(rec))
        twice = render_openmetrics(registry_from_trace(rec))
        assert once == twice

    def test_full_registry_renders_parseable_openmetrics(self):
        rec, _ = traced()
        text = render_openmetrics(registry_from_trace(rec))
        types, samples = parse_openmetrics(text)
        assert len(types) == len(registry_from_trace(rec).families())
        assert samples


class TestAsyncProjection:
    """ASYNC_ROUND events fold into repro_async_* families."""

    def test_async_run_projects_round_counters(self):
        rec = TraceRecorder()
        outcome = run_workload(
            "Async", "PR", "PK", scale_divisor=16000, recorder=rec,
            scheduler="fifo",
        )
        registry = registry_from_trace(rec)
        rounds = registry.get("repro_async_rounds")
        assert rounds is not None
        total = sum(value for _key, value in rounds.samples())
        assert total == outcome.result.iterations
        scheduled = registry.get("repro_async_scheduled_vertices")
        assert sum(v for _k, v in scheduled.samples()) > 0
        mass = registry.get("repro_async_pending_mass")
        (final_mass,) = [v for _k, v in mass.samples()]
        assert 0.0 <= final_mass < 1e-6
        assert 'scheduler="fifo"' in render_openmetrics(registry)
