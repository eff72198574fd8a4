"""Run report: section contents, RR counterfactual, HTML/markdown output."""

import pytest

from repro.bench.runner import run_workload
from repro.cluster.faults import FaultPlan
from repro.obs.report import build_report, render_html, render_markdown
from repro.trace.recorder import TraceRecorder

SCALE = 16000

SECTION_HEADINGS = [
    "Runs",
    "Superstep timeline",
    "Phase self time",
    "Per-node balance",
    "Messages and retries",
    "RR effectiveness",
]


def traced(engine="SLFE", app="SSSP", graph="PK", **kwargs):
    rec = TraceRecorder()
    outcome = run_workload(
        engine, app, graph, scale_divisor=SCALE, recorder=rec, **kwargs
    )
    return rec, outcome


@pytest.fixture(scope="module")
def sssp_report():
    rec, outcome = traced()
    return build_report(rec), outcome


class TestBuildReport:
    def test_run_metadata(self, sssp_report):
        report, outcome = sssp_report
        (run,) = report["runs"]
        assert run["engine"] == "SLFE"
        assert run["app"] == "SSSP"
        assert run["graph"] == "PK"
        assert run["iterations"] == outcome.result.iterations

    def test_superstep_timeline_matches_iterations(self, sssp_report):
        report, outcome = sssp_report
        assert len(report["supersteps"]) == outcome.result.iterations
        total_edge_ops = sum(s["edge_ops"] for s in report["supersteps"])
        assert total_edge_ops == outcome.result.metrics.total_edge_ops

    def test_phase_rows_cover_canonical_phases(self, sssp_report):
        report, _ = sssp_report
        names = {p["phase"] for p in report["phases"]}
        assert {"gather", "sync"} <= names
        for p in report["phases"]:
            assert p["self_seconds"] <= p["seconds"] + 1e-12

    def test_node_balance(self, sssp_report):
        report, outcome = sssp_report
        per_node = report["nodes"]["edge_ops"]
        assert sum(per_node) == outcome.result.metrics.total_edge_ops
        assert report["nodes"]["imbalance"] >= 1.0

    def test_rr_section_quantifies_both_techniques(self, sssp_report):
        report, _ = sssp_report
        rr = report["rr"]
        assert rr["start_late"]["skipped_edge_ops"] > 0
        assert rr["start_late"]["last_iter_buckets"]
        assert rr["preprocessing_edge_ops"] > 0
        assert rr["preprocessing_seconds"] > 0
        # saved + executed = the no-RR counterfactual, by construction.
        assert rr["counterfactual_no_rr_seconds"] == pytest.approx(
            rr["modeled_execution_seconds"] + rr["saved_seconds_estimate"]
        )
        assert rr["net_seconds"] == pytest.approx(
            rr["saved_seconds_estimate"] - rr["preprocessing_seconds"]
        )
        assert ("net win" in rr["verdict"]) or ("net loss" in rr["verdict"])

    def test_finish_early_fractions_for_arithmetic(self):
        rec, _ = traced("SLFE", "PR")
        rr = build_report(rec)["rr"]
        assert rr["finish_early"]["frozen_transitions"] > 0
        fractions = rr["finish_early"]["frozen_fraction_per_superstep"]
        assert fractions
        assert all(0.0 <= f["frozen_fraction"] <= 1.0 for f in fractions)
        assert rr["finish_early"]["final_frozen_fraction"] == (
            fractions[-1]["frozen_fraction"]
        )

    def test_fault_timeline(self):
        plan = FaultPlan.parse("crash@3:1", num_nodes=8)
        rec, _ = traced(fault_plan=plan, checkpoint_every=2)
        report = build_report(rec)
        events = {t["event"] for t in report["fault_timeline"]}
        assert {"fault", "checkpoint", "rollback", "recovery"} <= events
        assert report["faults"]["rollbacks"] >= 1

    def test_empty_trace_builds_and_renders(self):
        report = build_report(TraceRecorder(clock=lambda: 0.0))
        assert report["supersteps"] == []
        markdown = render_markdown(report)
        assert "no supersteps recorded" in markdown
        assert "<html>" in render_html(report)


class TestMarkdown:
    def test_all_sections_present(self, sssp_report):
        report, _ = sssp_report
        markdown = render_markdown(report)
        for heading in SECTION_HEADINGS:
            assert "## %s" % heading in markdown

    def test_fault_section_when_faulty(self):
        plan = FaultPlan.parse("crash@3:1", num_nodes=8)
        rec, _ = traced(fault_plan=plan, checkpoint_every=2)
        markdown = render_markdown(build_report(rec))
        assert "## Fault -> recovery timeline" in markdown
        assert "guidance_reused" in markdown

    def test_live_section_only_when_a_stall_was_seen(self, sssp_report):
        from repro.trace import recorder as ev

        assert "## Live observability" not in render_markdown(sssp_report[0])
        rec = TraceRecorder(clock=lambda: 0.0)
        rec.emit(ev.PARALLEL_STALL, worker=1, phase="push", epoch=2,
                 seconds=1.5, threshold=1.0)
        markdown = render_markdown(build_report(rec))
        assert "## Live observability" in markdown
        assert "| 1 | push | 1 | 1.5 |" in markdown


class TestHtml:
    def test_self_contained(self, sssp_report):
        report, _ = sssp_report
        page = render_html(report)
        assert page.startswith("<!DOCTYPE html>")
        assert "<style>" in page
        # Self-contained: no external scripts, stylesheets, or images.
        for marker in ("<script", "<link", "<img", "src=", "href="):
            assert marker not in page

    def test_verdict_banner_and_sections(self, sssp_report):
        report, _ = sssp_report
        page = render_html(report)
        assert "class='verdict" in page
        for heading in SECTION_HEADINGS:
            assert "<h2>%s</h2>" % heading in page

    def test_timeline_bar_chart(self, sssp_report):
        report, _ = sssp_report
        assert "class='bar'" in render_html(report)


class TestAsyncSection:
    @pytest.fixture(scope="class")
    def async_report(self):
        rec, outcome = traced(engine="Async", app="PR", scheduler="delta")
        return build_report(rec), outcome

    def test_async_summary(self, async_report):
        report, outcome = async_report
        section = report["async"]
        assert section["scheduler"] == "delta"
        assert section["rounds"] == outcome.result.iterations
        assert section["scheduled_vertices"] > 0
        assert section["final_delta_mass"] < section["initial_delta_mass"]
        assert section["mass_trajectory"][-1]["round"] == section["rounds"]

    def test_async_section_rendered(self, async_report):
        report, _outcome = async_report
        md = render_markdown(report)
        assert "## Async execution" in md
        assert "pending delta mass" in md
        assert "Async execution" in render_html(report)

    def test_bsp_report_has_no_async_section(self, sssp_report):
        report, _outcome = sssp_report
        assert report["async"] is None
        assert "Async execution" not in render_markdown(report)
