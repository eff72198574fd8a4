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

The RR seconds-saved estimate mirrors the cost model's compute term:
skipped edge operations are spread evenly over the cluster and divided
by the node's Amdahl speedup, exactly how :class:`CostModel` charges
preprocessing work.  It is an *estimate* (real skips concentrate on
specific nodes), which the report says out loud.
"""

from __future__ import annotations

import html
from typing import Any, Dict, List, Optional

from repro.cluster.config import ClusterConfig
from repro.obs.spans import build_span_tree, iter_spans
from repro.trace import recorder as ev
from repro.trace.export import fault_summary
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


def _merge_buckets(events) -> Dict[str, int]:
    merged: Dict[str, int] = {}
    for event in events:
        for label, ops in (
            event.payload.get("last_iter_buckets") or {}
        ).items():
            merged[label] = merged.get(label, 0) + int(ops)
    return merged


def _compute_seconds(edge_ops: float, config: ClusterConfig) -> float:
    """Modeled compute seconds for ops spread evenly over the cluster."""
    return (
        edge_ops
        / config.num_nodes
        * config.node.seconds_per_edge_op
        / config.node.speedup()
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

    # -- phase self time (hierarchical) --------------------------------
    phase_rows: Dict[tuple, Dict[str, float]] = {}
    for span, _depth in iter_spans(build_span_tree(recorder)):
        if span.category != "phase":
            continue
        parent = span.args.get("parent") or ""
        row = phase_rows.setdefault(
            (span.name, parent),
            {"calls": 0, "seconds": 0.0, "self_seconds": 0.0},
        )
        row["calls"] += 1
        row["seconds"] += span.duration
        row["self_seconds"] += span.self_seconds
    phases = [
        {"phase": name, "parent": parent, **row}
        for (name, parent), row in sorted(
            phase_rows.items(), key=lambda item: -item[1]["self_seconds"]
        )
    ]

    # -- per-node balance ----------------------------------------------
    per_node: List[int] = []
    for event in recorder.events_named(ev.EDGE_OPS):
        for node, count in enumerate(event.payload.get("per_node", ())):
            while len(per_node) <= node:
                per_node.append(0)
            per_node[node] += int(count)
    total_edge_ops = sum(per_node)
    mean = total_edge_ops / len(per_node) if per_node else 0.0
    nodes = {
        "edge_ops": per_node,
        "imbalance": (max(per_node) / mean) if per_node and mean > 0 else 1.0,
    }

    # -- measured intra-node balance (parallel workers) ----------------
    worker_rows: Dict[int, Dict[str, float]] = {}
    for event in recorder.events_named(ev.PARALLEL_WORKER):
        p = event.payload
        row = worker_rows.setdefault(
            int(p.get("worker", 0)),
            {"busy_seconds": 0.0, "chunks": 0, "steals": 0, "edges": 0},
        )
        row["busy_seconds"] += float(p.get("busy_seconds", 0.0))
        row["chunks"] += int(p.get("chunks", 0))
        row["steals"] += int(p.get("steals", 0))
        row["edges"] += int(p.get("edges", 0))
    busy = [row["busy_seconds"] for row in worker_rows.values()]
    mean_busy = sum(busy) / len(busy) if busy else 0.0
    workers = {
        "per_worker": [
            {"worker": worker_id, **row}
            for worker_id, row in sorted(worker_rows.items())
        ],
        "imbalance": (
            (max(busy) / mean_busy) if busy and mean_busy > 0 else 1.0
        ),
    }

    # -- measured fault tolerance (pool self-healing) ------------------
    recovery_actions: Dict[str, int] = {}
    respawns_by_phase: Dict[str, int] = {}
    recovery_seconds = 0.0
    recovery_degraded = False
    degrade_reason = None
    for event in recorder.events_named(ev.PARALLEL_RECOVERY):
        p = event.payload
        action = str(p.get("action", ""))
        recovery_actions[action] = recovery_actions.get(action, 0) + 1
        recovery_seconds += float(p.get("seconds", 0.0))
        if action == "respawned":
            phase_name = str(p.get("phase", ""))
            respawns_by_phase[phase_name] = (
                respawns_by_phase.get(phase_name, 0) + 1
            )
        elif action == "degraded":
            recovery_degraded = True
            degrade_reason = p.get("reason")
    recovery = {
        "actions": recovery_actions,
        "respawns_by_phase": respawns_by_phase,
        "recovery_seconds": recovery_seconds,
        "degraded": recovery_degraded,
        "degrade_reason": degrade_reason,
    }

    # -- messages / faults ---------------------------------------------
    message_totals = {
        "messages": sum(
            int(e.payload.get("count", 0))
            for e in recorder.events_named(ev.MESSAGES)
        ),
        "bytes": sum(
            int(e.payload.get("bytes", 0))
            for e in recorder.events_named(ev.MESSAGES)
        ),
    }
    faults = fault_summary(recorder)
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
            "rounds": len(async_rounds),
            "scheduled_vertices": sum(
                int(e.payload.get("scheduled", 0)) for e in async_rounds
            ),
            "deferred_vertices": sum(
                int(e.payload.get("skipped", 0)) for e in async_rounds
            ),
            "updates": sum(
                int(e.payload.get("updates", 0)) for e in async_rounds
            ),
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
    shard_events = recorder.events_named(ev.SHARD_IO)
    ooc: Optional[Dict[str, Any]] = None
    if shard_events:
        by_phase: Dict[str, Dict[str, Any]] = {}
        for e in shard_events:
            p = e.payload
            row = by_phase.setdefault(
                str(p.get("phase", "")),
                {"shards": 0, "bytes": 0, "cache_hits": 0,
                 "read_seconds": 0.0},
            )
            row["shards"] += int(p.get("shards", 0))
            row["bytes"] += int(p.get("bytes", 0))
            row["cache_hits"] += int(p.get("cache_hits", 0))
            row["read_seconds"] += float(p.get("read_seconds", 0.0))
        ooc = {
            "shards_read": sum(r["shards"] for r in by_phase.values()),
            "bytes_read": sum(r["bytes"] for r in by_phase.values()),
            "cache_hits": sum(r["cache_hits"] for r in by_phase.values()),
            "read_seconds": sum(
                r["read_seconds"] for r in by_phase.values()
            ),
            "peak_rss_bytes": max(
                int(e.payload.get("peak_rss_bytes", 0))
                for e in shard_events
            ),
            "by_phase": [
                {"phase": phase, **row}
                for phase, row in sorted(by_phase.items())
            ],
        }

    # -- RR effectiveness ----------------------------------------------
    skips = recorder.events_named(ev.RR_SKIP)
    ecs = recorder.events_named(ev.EC_TRANSITION)
    start_late_ops = sum(
        int(e.payload.get("skipped_edge_ops", 0)) for e in skips
    )
    finish_early_ops = sum(
        int(e.payload.get("skipped_edge_ops", 0)) for e in ecs
    )
    preprocessing_ops = sum(
        int(e.payload.get("edge_ops", 0))
        for e in recorder.events_named(ev.PREPROCESSING)
    )
    preprocessing_seconds = sum(
        float(e.payload.get("preprocessing_seconds", 0.0))
        for e in recorder.events_named(ev.RUN_END)
    ) or _compute_seconds(preprocessing_ops, config)
    modeled_execution = sum(s["modeled_seconds"] for s in supersteps)
    saved_start_late = _compute_seconds(start_late_ops, config)
    saved_finish_early = _compute_seconds(finish_early_ops, config)
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
        for e in ecs
    ]
    rulers = [
        {
            "superstep": e.superstep,
            "ruler": int(e.payload.get("ruler", 0)),
            "max_last_iter": int(e.payload.get("max_last_iter", 0)),
        }
        for e in skips
    ]
    rr = {
        "start_late": {
            "skipped_vertices": sum(
                int(e.payload.get("skipped", 0)) for e in skips
            ),
            "skipped_edge_ops": start_late_ops,
            "catch_ups": sum(
                int(e.payload.get("started", 0))
                for e in recorder.events_named(ev.CATCH_UP)
            ),
            "last_iter_buckets": _merge_buckets(skips),
            "saved_seconds_estimate": saved_start_late,
            "ruler_progression": rulers,
        },
        "finish_early": {
            "frozen_transitions": sum(
                int(e.payload.get("frozen", 0)) for e in ecs
            ),
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
        "phases": phases,
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
