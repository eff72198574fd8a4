"""`repro report`: one self-contained HTML/markdown run report.

The report answers the paper's central question for one concrete run:
*where did redundancy reduction win (or lose) time?*  It is computed
entirely from a trace — live from a replayed run or loaded from a
saved JSONL — so the same report comes out of ``repro report prof/``
and ``repro report --app SSSP --graph LJ``.

Sections
--------
* run metadata (engine, app, graph, cluster size, totals);
* superstep timeline (mode, wall/modeled seconds, ops, frontier);
* phase self-time table from the hierarchical span profiler;
* per-node balance (edge ops by node, imbalance factor);
* message/retry summary;
* fault -> recovery timeline;
* **RR effectiveness**: start-late skips (with lastIter attribution)
  and finish-early freezes, converted to modeled seconds with the BSP
  cost model's constants and weighed against the preprocessing cost —
  the no-RR counterfactual the paper's Figure 8 makes end-to-end.

Every total comes from the metrics registry
(:func:`repro.obs.metrics.registry_from_trace`, read through
:meth:`MetricsRegistry.total`) and the phase table from
:func:`repro.trace.export.phase_rows`, so the report agrees with
``/metrics``, ``--metrics-out`` and ``repro trace``'s profile by
construction.  Events are read only for what the registry does not
hold: the runs table, the superstep and fault timelines, the
per-superstep Ruler and frozen-fraction series, the async mass
trajectory, the longest stall and the pool's degrade reason.

The RR seconds-saved estimate is the cost model's compute term
(:meth:`CostModel.spread_seconds`): skipped edge operations are spread
evenly over the cluster and divided by the node's Amdahl speedup,
exactly how :class:`CostModel` charges preprocessing work.  It is an
*estimate* (real skips concentrate on specific nodes), which the report
says out loud.
"""

from __future__ import annotations

import html
from typing import Any, Dict, List, Optional

from repro.cluster.config import ClusterConfig
from repro.cluster.costmodel import CostModel
from repro.obs.metrics import registry_from_trace
from repro.trace import recorder as ev
from repro.trace.export import phase_rows
from repro.trace.recorder import TraceRecorder

__all__ = ["build_report", "render_markdown", "render_html"]


def _cluster_from_trace(recorder: TraceRecorder) -> ClusterConfig:
    """Rebuild the run's cost constants from its ``run_begin`` payload."""
    from repro.bench import workloads

    num_nodes = 8
    scale = workloads.DEFAULT_SCALE_DIVISOR
    for event in recorder.events_named(ev.RUN_BEGIN):
        num_nodes = int(event.payload.get("num_nodes", num_nodes))
        scale = int(event.payload.get("scale_divisor", scale))
    return workloads.experiment_cluster(
        num_nodes=num_nodes, scale_divisor=scale
    )


def build_report(
    recorder: TraceRecorder,
    config: Optional[ClusterConfig] = None,
    title: str = "repro run report",
) -> Dict[str, Any]:
    """Compute every report section from one trace.

    Returns a plain JSON-ready dict; :func:`render_markdown` and
    :func:`render_html` format it.  ``config`` supplies the cost-model
    constants for the RR counterfactual; when omitted it is rebuilt
    from the trace's ``run_begin`` payload (harness defaults if the
    trace has none).
    """
    if config is None:
        config = _cluster_from_trace(recorder)
    spread_seconds = CostModel(config).spread_seconds
    registry = registry_from_trace(recorder)
    total = registry.total

    def count(name: str, by: Optional[str] = None):
        """``total`` of a count-valued family, as ints."""
        totals = total(name, by)
        if by is None:
            return int(totals)
        return {label: int(value) for label, value in totals.items()}

    # -- runs ----------------------------------------------------------
    runs: List[Dict[str, Any]] = []
    for begin in recorder.events_named(ev.RUN_BEGIN):
        runs.append(
            {
                "engine": begin.payload.get("engine", "?"),
                "app": begin.payload.get("app", "?"),
                "graph": begin.payload.get("graph", "?"),
                "num_nodes": begin.payload.get("num_nodes"),
                "num_vertices": begin.payload.get("num_vertices"),
                "num_edges": begin.payload.get("num_edges"),
            }
        )
    for run, end in zip(runs, recorder.events_named(ev.RUN_END)):
        run.update(
            {
                "iterations": end.payload.get("iterations"),
                "modeled_seconds": end.payload.get("modeled_seconds"),
                "preprocessing_seconds": end.payload.get(
                    "preprocessing_seconds"
                ),
            }
        )

    # -- superstep timeline --------------------------------------------
    modes = {
        e.superstep: e.payload.get("mode", "")
        for e in recorder.events_named(ev.SUPERSTEP_BEGIN)
    }
    supersteps: List[Dict[str, Any]] = []
    for end in recorder.events_named(ev.SUPERSTEP_END):
        p = end.payload
        supersteps.append(
            {
                "superstep": end.superstep,
                "mode": p.get("mode", modes.get(end.superstep, "")),
                "wall_seconds": float(p.get("wall_seconds", 0.0)),
                "modeled_seconds": float(p.get("modeled_seconds", 0.0)),
                "edge_ops": int(p.get("edge_ops", 0)),
                "updates": int(p.get("updates", 0)),
                "messages": int(p.get("messages", 0)),
                "active": int(p.get("active", 0)),
                "skipped": int(p.get("skipped", 0)),
            }
        )

    # -- per-node balance ----------------------------------------------
    # The registry keeps only nonzero per-node counts: pad to the
    # cluster size so an idle node still shows its zero.
    by_node = count("repro_edge_ops", by="node")
    width = max(
        [int(node) + 1 for node in by_node]
        + [int(run["num_nodes"]) for run in runs if run["num_nodes"]]
    ) if by_node else 0
    per_node = [by_node.get(str(node), 0) for node in range(width)]
    mean = sum(per_node) / width if per_node else 0.0
    nodes = {
        "edge_ops": per_node,
        "imbalance": (max(per_node) / mean) if per_node and mean > 0 else 1.0,
    }

    # -- measured intra-node balance (parallel workers) ----------------
    busy = total("repro_parallel_worker_busy_seconds", by="worker")
    per_worker = [
        {"worker": int(worker), "busy_seconds": busy[worker]}
        for worker in sorted(busy, key=int)
    ]
    for field in ("chunks", "steals", "edges"):
        counts = count("repro_parallel_worker_" + field, by="worker")
        for row in per_worker:
            row[field] = counts.get(str(row["worker"]), 0)
    mean_busy = sum(busy.values()) / len(busy) if busy else 0.0
    workers = {
        "per_worker": per_worker,
        "imbalance": (
            (max(busy.values()) / mean_busy) if mean_busy > 0 else 1.0
        ),
    }

    # -- measured fault tolerance (pool self-healing) ------------------
    degrade_reason = None
    for event in recorder.events_named(ev.PARALLEL_RECOVERY):
        if event.payload.get("action") == "degraded":
            degrade_reason = event.payload.get("reason")
    recovery = {
        "actions": count("repro_parallel_recovery_events", by="action"),
        "respawns_by_phase": count(
            "repro_parallel_recovery_respawns", by="phase"
        ),
        "recovery_seconds": total("repro_parallel_recovery_seconds"),
        "degraded": count("repro_parallel_recovery_degraded_runs") > 0,
        "degrade_reason": degrade_reason,
    }

    # -- messages / faults ---------------------------------------------
    message_totals = {
        "messages": count("repro_messages"),
        "bytes": count("repro_message_bytes"),
    }
    faults = {
        key: count(family)
        for key, family in (
            ("faults", "repro_faults"),
            ("retries", "repro_retried_messages"),
            ("retry_bytes", "repro_retry_bytes"),
            ("checkpoints", "repro_checkpoints"),
            ("checkpoint_bytes", "repro_checkpoint_bytes"),
            ("rollbacks", "repro_rollbacks"),
            ("supersteps_replayed", "repro_supersteps_replayed"),
            ("recoveries", "repro_recoveries"),
            ("guidance_reuses", "repro_guidance_reuses"),
        )
    }
    timeline = [
        {
            "t": event.wall_seconds,
            "superstep": event.superstep,
            "event": event.name,
            "detail": {
                key: value
                for key, value in event.payload.items()
                if isinstance(value, (int, float, str, bool))
            },
        }
        for event in recorder.events
        if event.name
        in (ev.FAULT, ev.CHECKPOINT, ev.ROLLBACK, ev.RECOVERY,
            ev.GUIDANCE_REUSED, ev.PARALLEL_RECOVERY, ev.PARALLEL_STALL)
    ]

    # -- live observability (sampler stalls) ---------------------------
    stall_rows: Dict[tuple, Dict[str, Any]] = {}
    for event in recorder.events_named(ev.PARALLEL_STALL):
        p = event.payload
        key = (int(p.get("worker", 0)), str(p.get("phase", "")))
        row = stall_rows.setdefault(
            key, {"episodes": 0, "max_seconds": 0.0}
        )
        row["episodes"] += 1
        row["max_seconds"] = max(
            row["max_seconds"], float(p.get("seconds", 0.0))
        )
    live = {
        "stalls": [
            {"worker": worker, "phase": phase, **row}
            for (worker, phase), row in sorted(stall_rows.items())
        ],
        "wall_epoch": getattr(recorder, "wall_epoch", None),
    }

    # -- async execution (delta-accumulative rounds) -------------------
    async_rounds = recorder.events_named(ev.ASYNC_ROUND)
    async_exec: Optional[Dict[str, Any]] = None
    if async_rounds:
        masses = [
            float(e.payload.get("delta_mass", 0.0)) for e in async_rounds
        ]
        stride = max(1, len(masses) // 50)
        async_exec = {
            "scheduler": str(async_rounds[-1].payload.get("scheduler", "")),
            "rounds": count("repro_async_rounds"),
            "scheduled_vertices": count("repro_async_scheduled_vertices"),
            "deferred_vertices": count("repro_async_deferred_vertices"),
            "updates": count("repro_updates", by="mode").get("async", 0),
            "initial_delta_mass": masses[0],
            "final_delta_mass": masses[-1],
            "mass_trajectory": [
                {
                    "round": int(e.payload.get("round", 0)),
                    "delta_mass": mass,
                }
                for e, mass in zip(
                    async_rounds[::stride], masses[::stride]
                )
            ],
        }

    # -- out-of-core I/O (shard streaming) -----------------------------
    shards = count("repro_ooc_shards_read", by="phase")
    ooc: Optional[Dict[str, Any]] = None
    if shards:
        shard_bytes = count("repro_ooc_bytes_read", by="phase")
        hits = count("repro_ooc_cache_hits", by="phase")
        read_seconds = total("repro_ooc_read_seconds", by="phase")
        peak_rss = registry.get("repro_ooc_peak_rss_bytes")
        ooc = {
            "shards_read": sum(shards.values()),
            "bytes_read": sum(shard_bytes.values()),
            "cache_hits": sum(hits.values()),
            "read_seconds": total("repro_ooc_read_seconds"),
            "peak_rss_bytes": int(
                max((value for _key, value in peak_rss.samples()), default=0)
            ),
            "by_phase": [
                {
                    "phase": phase,
                    "shards": shards[phase],
                    "bytes": shard_bytes[phase],
                    "cache_hits": hits[phase],
                    "read_seconds": read_seconds[phase],
                }
                for phase in sorted(shards)
            ],
        }

    # -- RR effectiveness ----------------------------------------------
    skipped = count("repro_rr_skipped_edge_ops", by="rr")
    start_late_ops = skipped.get("start_late", 0)
    finish_early_ops = skipped.get("finish_early", 0)
    preprocessing_ops = count("repro_preprocessing_edge_ops")
    preprocessing_seconds = sum(
        float(e.payload.get("preprocessing_seconds", 0.0))
        for e in recorder.events_named(ev.RUN_END)
    ) or spread_seconds(preprocessing_ops)
    modeled_execution = sum(s["modeled_seconds"] for s in supersteps)
    saved_start_late = spread_seconds(start_late_ops)
    saved_finish_early = spread_seconds(finish_early_ops)
    saved_total = saved_start_late + saved_finish_early
    net = saved_total - preprocessing_seconds
    ec_fractions = [
        {
            "superstep": e.superstep,
            "frozen_fraction": (
                1.0
                - float(e.payload.get("live", 0))
                / float(e.payload["total"])
                if e.payload.get("total")
                else 0.0
            ),
        }
        for e in recorder.events_named(ev.EC_TRANSITION)
    ]
    rulers = [
        {
            "superstep": e.superstep,
            "ruler": int(e.payload.get("ruler", 0)),
            "max_last_iter": int(e.payload.get("max_last_iter", 0)),
        }
        for e in recorder.events_named(ev.RR_SKIP)
    ]
    rr = {
        "start_late": {
            "skipped_vertices": count("repro_rr_skipped_vertices"),
            "skipped_edge_ops": start_late_ops,
            "catch_ups": count("repro_rr_catch_ups"),
            "last_iter_buckets": count(
                "repro_rr_skipped_edge_ops_by_last_iter", by="le"
            ),
            "saved_seconds_estimate": saved_start_late,
            "ruler_progression": rulers,
        },
        "finish_early": {
            "frozen_transitions": count("repro_ec_frozen"),
            "skipped_edge_ops": finish_early_ops,
            "final_frozen_fraction": (
                ec_fractions[-1]["frozen_fraction"] if ec_fractions else 0.0
            ),
            "frozen_fraction_per_superstep": ec_fractions,
            "saved_seconds_estimate": saved_finish_early,
        },
        "preprocessing_edge_ops": preprocessing_ops,
        "preprocessing_seconds": preprocessing_seconds,
        "modeled_execution_seconds": modeled_execution,
        "counterfactual_no_rr_seconds": modeled_execution + saved_total,
        "saved_seconds_estimate": saved_total,
        "net_seconds": net,
        "verdict": (
            "redundancy reduction saved ~%.3g s of modeled execution for "
            "%.3g s of preprocessing: net %s of %.3g s"
            % (
                saved_total,
                preprocessing_seconds,
                "win" if net >= 0 else "loss",
                abs(net),
            )
        ),
    }

    return {
        "title": title,
        "runs": runs,
        "supersteps": supersteps,
        "phases": phase_rows(recorder),
        "nodes": nodes,
        "workers": workers,
        "recovery": recovery,
        "live": live,
        "async": async_exec,
        "ooc": ooc,
        "messages": message_totals,
        "faults": faults,
        "fault_timeline": timeline,
        "rr": rr,
    }


# ----------------------------------------------------------------------
# markdown
# ----------------------------------------------------------------------
def _md_table(headers: List[str], rows: List[List[Any]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_fmt(cell) for cell in row) + " |")
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return "%.6g" % value
    if value is None:
        return "-"
    return str(value)


def _fmt_bytes(count: int) -> str:
    size = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024.0 or unit == "GiB":
            return "%.1f %s" % (size, unit)
        size /= 1024.0
    return "%d B" % count


def _sections(report: Dict[str, Any]):
    """Yield ``(heading, markdown-table-or-text)`` pairs."""
    runs = report["runs"]
    if runs:
        yield "Runs", _md_table(
            ["engine", "app", "graph", "nodes", "vertices", "edges",
             "supersteps", "modeled s", "preprocessing s"],
            [
                [r.get("engine"), r.get("app"), r.get("graph"),
                 r.get("num_nodes"), r.get("num_vertices"),
                 r.get("num_edges"), r.get("iterations"),
                 r.get("modeled_seconds"), r.get("preprocessing_seconds")]
                for r in runs
            ],
        )
    if report["supersteps"]:
        yield "Superstep timeline", _md_table(
            ["superstep", "mode", "wall s", "modeled s", "edge ops",
             "updates", "messages", "active", "skipped"],
            [
                [s["superstep"], s["mode"], s["wall_seconds"],
                 s["modeled_seconds"], s["edge_ops"], s["updates"],
                 s["messages"], s["active"], s["skipped"]]
                for s in report["supersteps"]
            ],
        )
    else:
        yield "Superstep timeline", "_no supersteps recorded_"
    if report["phases"]:
        yield "Phase self time", _md_table(
            ["phase", "parent", "calls", "seconds", "self seconds"],
            [
                [p["phase"], p["parent"] or "-", p["calls"], p["seconds"],
                 p["self_seconds"]]
                for p in report["phases"]
            ],
        )
    else:
        yield "Phase self time", "_no phase spans_"
    per_node = report["nodes"]["edge_ops"]
    if per_node:
        yield "Per-node balance", (
            _md_table(
                ["node", "edge ops", "share"],
                [
                    [node, ops,
                     "%.1f%%" % (100.0 * ops / max(sum(per_node), 1))]
                    for node, ops in enumerate(per_node)
                ],
            )
            + "\n\nimbalance (max/mean): %.3f" % report["nodes"]["imbalance"]
        )
    else:
        yield "Per-node balance", "_no per-node counters_"
    workers = report.get("workers") or {"per_worker": []}
    if workers["per_worker"]:
        # The measured counterpart of the simulated worksteal makespans:
        # actual per-process busy time and chunk-queue steal counts.
        yield "Measured intra-node balance (parallel workers)", (
            _md_table(
                ["worker", "busy s", "chunks", "steals", "edges"],
                [
                    [w["worker"], w["busy_seconds"], w["chunks"],
                     w["steals"], w["edges"]]
                    for w in workers["per_worker"]
                ],
            )
            + "\n\nbusy-time imbalance (max/mean): %.3f"
            % workers["imbalance"]
        )
    recovery = report.get("recovery") or {"actions": {}}
    if recovery["actions"] or recovery.get("degraded"):
        # Pool self-healing as actually observed: worker deaths/timeouts
        # detected, respawn latency paid, and whether the run had to fall
        # back to inline serial-semantics execution.
        recovery_lines = [
            _md_table(
                ["action", "count"],
                [[action, count]
                 for action, count in sorted(recovery["actions"].items())],
            ),
            "",
            "- recovery wall time: %.6g s"
            % recovery.get("recovery_seconds", 0.0),
        ]
        if recovery.get("respawns_by_phase"):
            recovery_lines.append(
                "- respawns by phase: "
                + ", ".join(
                    "%s=%d" % (phase, count)
                    for phase, count
                    in sorted(recovery["respawns_by_phase"].items())
                )
            )
        if recovery.get("degraded"):
            recovery_lines.append(
                "- **degraded to inline execution**: %s"
                % (recovery.get("degrade_reason") or "unknown reason")
            )
        else:
            recovery_lines.append(
                "- run completed on the parallel pool (no degradation)"
            )
        yield "Measured fault tolerance", "\n".join(recovery_lines)
    stalls = (report.get("live") or {}).get("stalls")
    if stalls:
        # What the live telemetry plane itself observed: heartbeat
        # stall episodes per worker/phase.
        yield "Live observability", _md_table(
            ["worker", "phase", "stall episodes", "longest stall s"],
            [
                [s["worker"], s["phase"], s["episodes"], s["max_seconds"]]
                for s in stalls
            ],
        )
    async_exec = report.get("async")
    if async_exec:
        # The async engine has no supersteps; its unit of progress is
        # the round, and its convergence witness is the pending delta
        # mass contracting under the tolerance.
        total_admitted = async_exec["scheduled_vertices"] + async_exec[
            "deferred_vertices"
        ]
        async_lines = [
            _md_table(
                ["scheduler", "rounds", "scheduled", "deferred",
                 "updates", "final delta mass"],
                [[async_exec["scheduler"], async_exec["rounds"],
                  async_exec["scheduled_vertices"],
                  async_exec["deferred_vertices"], async_exec["updates"],
                  "%.3g" % async_exec["final_delta_mass"]]],
            ),
            "",
            "- pending delta mass: %.6g -> %.6g over %d rounds"
            % (async_exec["initial_delta_mass"],
               async_exec["final_delta_mass"], async_exec["rounds"]),
            "- scheduler admitted %.1f%% of pending-vertex activations "
            "per round on average"
            % (
                100.0 * async_exec["scheduled_vertices"] / total_admitted
                if total_admitted
                else 100.0
            ),
        ]
        yield "Async execution", "\n".join(async_lines)
    ooc = report.get("ooc")
    if ooc:
        hit_total = ooc["cache_hits"] + ooc["shards_read"]
        ooc_lines = [
            _md_table(
                ["phase", "shards read", "bytes read", "cache hits",
                 "read seconds"],
                [
                    [row["phase"], row["shards"], row["bytes"],
                     row["cache_hits"], "%.4g" % row["read_seconds"]]
                    for row in ooc["by_phase"]
                ],
            ),
            "",
            "- %d shard reads (%s compressed), %d LRU hits (%.1f%% of "
            "shard requests)"
            % (
                ooc["shards_read"],
                _fmt_bytes(ooc["bytes_read"]),
                ooc["cache_hits"],
                100.0 * ooc["cache_hits"] / hit_total if hit_total else 0.0,
            ),
            "- %.4g s fetching+decoding shards; peak RSS %s "
            "(edges stream through the LRU window, vertex state is the "
            "resident footprint)"
            % (ooc["read_seconds"], _fmt_bytes(ooc["peak_rss_bytes"])),
        ]
        yield "Out-of-core I/O", "\n".join(ooc_lines)
    faults = report["faults"]
    yield "Messages and retries", _md_table(
        ["messages", "bytes", "retried messages", "retry bytes"],
        [[report["messages"]["messages"], report["messages"]["bytes"],
          faults["retries"], faults["retry_bytes"]]],
    )
    if report["fault_timeline"]:
        yield "Fault -> recovery timeline", _md_table(
            ["t (s)", "superstep", "event", "detail"],
            [
                [t["t"], t["superstep"], t["event"],
                 "; ".join(
                     "%s=%s" % (k, _fmt(v))
                     for k, v in sorted(t["detail"].items())
                 )]
                for t in report["fault_timeline"]
            ],
        )
    rr = report["rr"]
    buckets = rr["start_late"]["last_iter_buckets"]
    rr_lines = [
        "**%s**" % rr["verdict"],
        "",
        _md_table(
            ["", "skipped edge ops", "saved s (est.)"],
            [
                ["start late (delayed pulls)",
                 rr["start_late"]["skipped_edge_ops"],
                 rr["start_late"]["saved_seconds_estimate"]],
                ["finish early (frozen vertices)",
                 rr["finish_early"]["skipped_edge_ops"],
                 rr["finish_early"]["saved_seconds_estimate"]],
            ],
        ),
        "",
        "- modeled execution: %.6g s; no-RR counterfactual: %.6g s"
        % (rr["modeled_execution_seconds"],
           rr["counterfactual_no_rr_seconds"]),
        "- preprocessing: %d edge ops, %.6g s"
        % (rr["preprocessing_edge_ops"], rr["preprocessing_seconds"]),
        "- start-late: %d vertex skips, %d catch-up gathers"
        % (rr["start_late"]["skipped_vertices"],
           rr["start_late"]["catch_ups"]),
        "- finish-early: %d freeze transitions, final frozen fraction "
        "%.1f%%"
        % (rr["finish_early"]["frozen_transitions"],
           100.0 * rr["finish_early"]["final_frozen_fraction"]),
    ]
    if buckets:
        rr_lines += [
            "",
            "Skipped edge ops by guidance depth (lastIter <= bucket):",
            "",
            _md_table(
                ["lastIter bucket", "skipped edge ops"],
                [[label, buckets[label]] for label in buckets],
            ),
        ]
    yield "RR effectiveness", "\n".join(rr_lines)


def render_markdown(report: Dict[str, Any]) -> str:
    """The report as GitHub-flavoured markdown."""
    parts = ["# %s" % report["title"]]
    for heading, body in _sections(report):
        parts.append("\n## %s\n\n%s" % (heading, body))
    return "\n".join(parts) + "\n"


# ----------------------------------------------------------------------
# HTML
# ----------------------------------------------------------------------
_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 70rem; color: #1c2330; }
h1 { border-bottom: 2px solid #334; padding-bottom: .3rem; }
h2 { margin-top: 2rem; color: #24456b; }
table { border-collapse: collapse; margin: .6rem 0; font-size: .9rem; }
th, td { border: 1px solid #c8d0dc; padding: .25rem .6rem;
         text-align: right; }
th { background: #eef2f7; }
td:first-child, th:first-child { text-align: left; }
.verdict { background: #eef7ee; border-left: 4px solid #3a7d44;
           padding: .6rem 1rem; font-weight: 600; }
.verdict.loss { background: #fdf0ee; border-left-color: #b3402a; }
.bar { background: #4e79a7; height: .7rem; display: inline-block; }
"""


def _html_table(headers: List[str], rows: List[List[Any]]) -> str:
    head = "".join("<th>%s</th>" % html.escape(str(h)) for h in headers)
    body = "".join(
        "<tr>%s</tr>"
        % "".join("<td>%s</td>" % html.escape(_fmt(cell)) for cell in row)
        for row in rows
    )
    return "<table><thead><tr>%s</tr></thead><tbody>%s</tbody></table>" % (
        head, body,
    )


def render_html(report: Dict[str, Any]) -> str:
    """The report as one self-contained HTML page (inline CSS only)."""
    rr = report["rr"]
    parts = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        "<title>%s</title>" % html.escape(report["title"]),
        "<style>%s</style></head><body>" % _CSS,
        "<h1>%s</h1>" % html.escape(report["title"]),
    ]
    # The RR verdict leads: it is the question the report exists for.
    parts.append(
        "<p class='verdict%s'>%s</p>"
        % (
            "" if rr["net_seconds"] >= 0 else " loss",
            html.escape(rr["verdict"]),
        )
    )
    max_wall = max(
        (s["wall_seconds"] for s in report["supersteps"]), default=0.0
    )
    for heading, body in _sections(report):
        parts.append("<h2>%s</h2>" % html.escape(heading))
        if heading == "Superstep timeline" and report["supersteps"]:
            rows = []
            for s in report["supersteps"]:
                width = (
                    120.0 * s["wall_seconds"] / max_wall if max_wall else 0.0
                )
                rows.append(
                    "<tr><td>%s</td><td>%s</td><td>%.6g</td>"
                    "<td><span class='bar' style='width:%.0fpx'></span>"
                    "</td><td>%d</td><td>%d</td><td>%d</td></tr>"
                    % (
                        s["superstep"], html.escape(str(s["mode"])),
                        s["wall_seconds"], width, s["edge_ops"],
                        s["active"], s["skipped"],
                    )
                )
            parts.append(
                "<table><thead><tr><th>superstep</th><th>mode</th>"
                "<th>wall s</th><th></th><th>edge ops</th><th>active</th>"
                "<th>skipped</th></tr></thead><tbody>%s</tbody></table>"
                % "".join(rows)
            )
            continue
        parts.append(_markdown_body_to_html(body))
    parts.append("</body></html>")
    return "\n".join(parts)


def _markdown_body_to_html(body: str) -> str:
    """Convert the tiny markdown subset ``_sections`` emits to HTML."""
    out: List[str] = []
    table: List[List[str]] = []

    def flush() -> None:
        if table:
            headers = table[0]
            rows = table[2:] if len(table) > 1 else []
            out.append(_html_table(headers, rows))
            del table[:]

    for line in body.splitlines():
        stripped = line.strip()
        if stripped.startswith("|"):
            table.append(
                [cell.strip() for cell in stripped.strip("|").split("|")]
            )
            continue
        flush()
        if not stripped:
            continue
        if stripped.startswith("- "):
            out.append("<p>%s</p>" % html.escape(stripped[2:]))
        elif stripped.startswith("**") and stripped.endswith("**"):
            out.append(
                "<p><strong>%s</strong></p>"
                % html.escape(stripped.strip("*"))
            )
        elif stripped.startswith("_") and stripped.endswith("_"):
            out.append("<p><em>%s</em></p>" % html.escape(stripped.strip("_")))
        else:
            out.append("<p>%s</p>" % html.escape(stripped))
    flush()
    return "\n".join(out)
