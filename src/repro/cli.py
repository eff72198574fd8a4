"""Command-line interface: run applications and regenerate artifacts.

Four subcommands cover the common workflows:

``run``
    Execute one application on one engine and graph, print the result
    summary and modeled cost::

        python -m repro run --app SSSP --graph LJ --engine SLFE --nodes 8

``trace``
    Same execution, but record the structured event trace, write it as
    JSONL, and print the phase profile::

        python -m repro trace --app SSSP --graph LJ --engine SLFE

``bench``
    Regenerate one of the paper's tables/figures (or ``all``)::

        python -m repro bench table5
        python -m repro bench figure9

``report``
    Build the self-contained HTML/markdown run report from a saved
    profile directory / JSONL trace, or by replaying a workload::

        python -m repro report prof/ -o report.html
        python -m repro report --app SSSP --graph LJ -o report.html

``cache``
    Manage the persistent preprocessing-artifact store (``ls``,
    ``info``, ``clear``, ``warm``)::

        python -m repro cache warm sssp --graph LJ --cache-dir .cache
        python -m repro run sssp --graph LJ --cache-dir .cache

``info``
    Show the dataset registry and engine/application inventory.

``top``
    Live per-worker telemetry view of a running ``--serve-metrics``
    process (htop for the worker pool)::

        python -m repro top 127.0.0.1:9100

``run``/``trace``/``bench`` accept ``--cache-dir DIR`` (default:
``$REPRO_CACHE_DIR``) to reuse formatted graphs and RR guidance across
jobs, and share the observability outputs:
``--metrics-out PATH`` writes the run's metrics registry as OpenMetrics
text, ``--profile-out DIR`` writes the full profile artifact set
(JSONL trace, Chrome trace JSON, speedscope JSON, OpenMetrics text),
``--serve-metrics PORT`` serves the registry live over HTTP
(``/metrics`` + ``/healthz``) refreshed from the shared-memory worker
telemetry while the run executes.  All are projections of the recorded
trace — results are bit-identical with or without them.

Every ``run``/``trace``/``bench`` invocation also carries an always-on
crash flight recorder: a bounded ring of the most recent trace events
and telemetry snapshots, dumped to ``flight-<stamp>-<pid>.jsonl`` on
engine errors, pool degradation, SIGTERM, or SIGINT.  The dump replays
through every trace consumer (``repro report`` included).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional

import numpy as np

from repro.errors import EngineError
from repro.runconfig import (
    BACKENDS,
    KNOBS,
    configured,
    integer_at_least,
    positive_float,
    resolve,
)

__all__ = ["main", "build_parser"]


def _flag(validate, name: str):
    """Argparse ``type=`` from a run-config validator; errors name the flag."""

    def parse(text: str):
        try:
            return validate(text, name)
        except EngineError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return parse


#: ``--scale``: a dedicated type (rather than ``args.scale or DEFAULT``)
#: rejects 0 up front instead of silently replacing it by the default.
_SCALE = _flag(integer_at_least(1), "scale")


def _add_fault_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--inject-faults", default=None, metavar="SPEC",
        help="deterministic fault plan: comma-separated crash@K:NODE, "
        "loss@K:SRC-DST[xN], slow@K:NODExF[+D], worker-crash@K:PHASE-W, "
        "worker-hang@K:PHASE-W terms, or seed:S for a seeded random "
        "plan (worker-* terms kill/stop real pool workers under "
        "--backend parallel)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=_flag(KNOBS["checkpoint_every"].validate, "checkpoint-every"),
        default=0, metavar="N",
        help="snapshot engine state every N supersteps (0: only the "
        "superstep-0 snapshot fault-tolerant runs always take)",
    )


def _add_backend_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend", choices=BACKENDS, default=None,
        help="execution backend: serial (default), parallel — "
        "shared-memory worker processes with mini-chunk work stealing — "
        "or ooc — out-of-core shard streaming with only vertex state "
        "resident; SLFE-family engines only, results are bit-identical",
    )
    parser.add_argument(
        "--workers", type=_flag(KNOBS["num_workers"].validate, "workers"),
        default=None, metavar="N",
        help="worker processes for --backend parallel (default 1)",
    )
    # Validation is the knob table's (repro.runconfig), so the CLI, the
    # environment variables, and direct constructor calls all reject bad
    # values with the same one-line message.
    parser.add_argument(
        "--parallel-timeout", default=None, metavar="SECONDS",
        type=_flag(KNOBS["reply_timeout"].validate, "parallel-timeout"),
        help="seconds a parallel pool worker may stay silent before it "
        "is declared hung and recovered (default: "
        "$REPRO_PARALLEL_TIMEOUT, else 120)",
    )
    parser.add_argument(
        "--parallel-max-respawns", default=None, metavar="N",
        type=_flag(KNOBS["max_respawns"].validate, "parallel-max-respawns"),
        help="worker respawns allowed per run before the pool degrades "
        "to inline serial-semantics execution (default: "
        "$REPRO_PARALLEL_MAX_RESPAWNS, else 2)",
    )
    parser.add_argument(
        "--shard-mb", type=_flag(KNOBS["shard_mb"].validate, "shard-mb"),
        default=None, metavar="MB",
        help="largest uncompressed edge-shard size for --backend ooc; "
        "one row above it gets a shard of its own "
        "(default: $REPRO_SHARD_MB, else 8)",
    )
    parser.add_argument(
        "--shard-cache",
        type=_flag(KNOBS["shard_cache"].validate, "shard-cache"),
        default=None, metavar="N",
        help="decoded shards kept resident by the ooc LRU "
        "(default: $REPRO_SHARD_CACHE, else 4)",
    )


def _add_cache_arguments(
    parser: argparse.ArgumentParser, include_no_cache: bool = True
) -> None:
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="preprocessing-artifact store directory; formatted graphs "
        "and RR guidance are reused across jobs (default: "
        "$REPRO_CACHE_DIR when set, otherwise caching is off)",
    )
    if include_no_cache:
        parser.add_argument(
            "--no-cache", action="store_true",
            help="disable the artifact store even if REPRO_CACHE_DIR "
            "is set",
        )
    parser.add_argument(
        "--cache-max-mb", type=_flag(integer_at_least(1), "cache-max-mb"),
        default=None, metavar="MB",
        help="store size cap before LRU eviction (default: 1024)",
    )


def _make_store(args, recorder=None):
    """Build the ArtifactStore the cache flags describe (None: caching off).

    Precedence: ``--no-cache`` beats everything; ``--cache-dir`` beats
    the ``REPRO_CACHE_DIR`` environment default.
    """
    import os

    if getattr(args, "no_cache", False):
        return None
    directory = (
        getattr(args, "cache_dir", None) or os.environ.get("REPRO_CACHE_DIR")
    )
    if not directory:
        return None
    from repro.store import DEFAULT_MAX_BYTES, ArtifactStore

    max_mb = getattr(args, "cache_max_mb", None)
    max_bytes = max_mb * (1 << 20) if max_mb else DEFAULT_MAX_BYTES
    return ArtifactStore(directory, max_bytes=max_bytes, recorder=recorder)


_APP_CHOICES = ("SSSP", "CC", "WP", "PR", "TR")


def _app_name(text: str) -> str:
    """Argparse type: case-insensitive application name."""
    name = text.upper()
    if name not in _APP_CHOICES:
        raise argparse.ArgumentTypeError(
            "unknown application %r (choose from %s)"
            % (text, ", ".join(_APP_CHOICES))
        )
    return name


def _add_workload_arguments(
    parser: argparse.ArgumentParser, positional_app: bool = True
) -> None:
    if positional_app:
        # `repro run sssp` — the positional spelling; --app is kept for
        # compatibility and the two are reconciled by _resolve_app.
        parser.add_argument(
            "app_pos", nargs="?", default=None, metavar="APP",
            type=_app_name,
            help="application: SSSP, CC, WP, PR, TR (case-insensitive)",
        )
    parser.add_argument("--app", dest="app_flag", type=_app_name,
                        default=None, metavar="APP",
                        help="application (alternative to the positional)")
    parser.add_argument("--graph", default="LJ",
                        help="dataset key (PK OK LJ WK DI ST FS RMAT; "
                        "default: LJ)")
    parser.add_argument("--engine", default="SLFE",
                        help="SLFE, Async, Gemini, PowerGraph, PowerLyra, "
                        "GraphChi, Ligra")
    parser.add_argument(
        "--scheduler", choices=("fifo", "delta", "lastiter"), default=None,
        help="async round scheduler (--engine async only): fifo = "
        "activation order, delta = largest pending delta first "
        "(default), lastiter = RR guidance as priority",
    )
    parser.add_argument("--nodes", type=_flag(integer_at_least(1), "nodes"),
                        default=8)
    parser.add_argument("--scale", type=_SCALE, default=None,
                        help="scale divisor for the stand-in (default 2000)")
    _add_backend_arguments(parser)
    _add_fault_arguments(parser)


def _resolve_app(
    parser: argparse.ArgumentParser, args, required: bool = True
) -> None:
    """Reconcile the positional and ``--app`` spellings into ``args.app``."""
    positional = getattr(args, "app_pos", None)
    flag = getattr(args, "app_flag", None)
    if positional and flag and positional != flag:
        parser.error(
            "conflicting applications: positional %r vs --app %r"
            % (positional, flag)
        )
    args.app = positional or flag
    if args.app is None and required:
        parser.error(
            "an application is required (positional APP or --app)"
        )


def _add_observability_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the run's metrics registry as OpenMetrics text",
    )
    parser.add_argument(
        "--profile-out", default=None, metavar="DIR",
        help="write the profile artifact set (trace.jsonl, "
        "chrome_trace.json, speedscope.json, metrics.txt) into DIR",
    )
    parser.add_argument(
        "--serve-metrics", type=_flag(integer_at_least(0), "serve-metrics"),
        default=None, metavar="PORT",
        help="serve /metrics (OpenMetrics) and /healthz over HTTP on "
        "127.0.0.1:PORT for the duration of the run, refreshed live "
        "from the shared-memory worker telemetry (0: ephemeral port); "
        "watch it with `repro top`",
    )
    parser.add_argument(
        "--serve-metrics-linger", default=0.0,
        type=_flag(positive_float("seconds", zero_ok=True),
                   "serve-metrics-linger"),
        metavar="SECONDS",
        help="keep the /metrics endpoint up this long after the run "
        "finishes, so short runs can be scraped deterministically",
    )


def build_parser() -> argparse.ArgumentParser:
    from repro.bench.experiments import ARTIFACTS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="SLFE reproduction: redundancy-aware graph processing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one application")
    _add_workload_arguments(run)
    run.add_argument("--trace-out", default=None, metavar="PATH",
                     help="also record the event trace as JSONL to PATH")
    _add_cache_arguments(run)
    _add_observability_arguments(run)

    trace = sub.add_parser(
        "trace", help="run one application with tracing and dump the trace"
    )
    _add_workload_arguments(trace)
    trace.add_argument("--out", default="trace.jsonl", metavar="PATH",
                       help="JSONL output path (default: trace.jsonl)")
    trace.add_argument("--csv-out", default=None, metavar="PATH",
                       help="also write the per-superstep counter CSV")
    _add_cache_arguments(trace)
    _add_observability_arguments(trace)

    bench = sub.add_parser("bench", help="regenerate a paper artifact")
    bench.add_argument("artifact", choices=[*ARTIFACTS, "all"])
    bench.add_argument("--scale", type=_SCALE, default=None)
    _add_backend_arguments(bench)
    _add_fault_arguments(bench)
    bench.add_argument(
        "--csv-dir", default=None,
        help="also write each artifact as CSV into this directory",
    )
    bench.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="record every workload the artifact runs into one JSONL trace",
    )
    _add_cache_arguments(bench)
    _add_observability_arguments(bench)

    report = sub.add_parser(
        "report",
        help="build the HTML/markdown run report from a saved profile "
        "or by replaying a workload",
    )
    report.add_argument(
        "source", nargs="?", default=None, metavar="SOURCE",
        help="profile directory (--profile-out output) or JSONL trace; "
        "omit to replay a workload given via --app/--graph",
    )
    report.add_argument("-o", "--out", default="report.html",
                        metavar="PATH", help="HTML output path")
    report.add_argument("--md-out", default=None, metavar="PATH",
                        help="also write the report as markdown")
    _add_workload_arguments(report, positional_app=False)

    top = sub.add_parser(
        "top",
        help="live per-worker telemetry view of a --serve-metrics run",
    )
    top.add_argument(
        "target", nargs="?", default="127.0.0.1:9100", metavar="HOST:PORT",
        help="the run's --serve-metrics endpoint "
        "(default: 127.0.0.1:9100)",
    )
    top.add_argument("--interval", default=1.0,
                     type=_flag(positive_float("seconds"), "interval"),
                     metavar="SECONDS", help="refresh period (default: 1)")
    top.add_argument("--once", action="store_true",
                     help="render a single frame and exit")
    top.add_argument("--timeout", default=5.0,
                     type=_flag(positive_float("seconds", zero_ok=True),
                                "timeout"),
                     metavar="SECONDS",
                     help="how long to retry the first scrape while the "
                     "run is still binding its endpoint (default: 5)")

    cache = sub.add_parser(
        "cache", help="manage the preprocessing-artifact store"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_ls = cache_sub.add_parser(
        "ls", help="list entries, most recently used first"
    )
    cache_info = cache_sub.add_parser(
        "info", help="show the metadata of matching entries"
    )
    cache_info.add_argument(
        "prefix", metavar="PREFIX",
        help="logical-key or filename-stem prefix (see `cache ls`)",
    )
    cache_clear = cache_sub.add_parser("clear", help="remove every entry")
    cache_warm = cache_sub.add_parser(
        "warm",
        help="precompute the formatted graph and RR guidance a run "
        "would need, so the run itself starts hot",
    )
    cache_warm.add_argument(
        "apps", nargs="+", metavar="APP", type=_app_name,
        help="application(s) to warm: SSSP, CC, WP, PR, TR",
    )
    cache_warm.add_argument("--graph", default="LJ",
                            help="dataset key (default: LJ)")
    cache_warm.add_argument("--scale", type=_SCALE, default=None,
                            help="scale divisor (default 2000)")
    cache_shard = cache_sub.add_parser(
        "shard",
        help="pre-shard the graphs the given applications would stream "
        "under --backend ooc, so those runs start warm",
    )
    cache_shard.add_argument(
        "apps", nargs="+", metavar="APP", type=_app_name,
        help="application(s) to shard for: SSSP, CC, WP, PR, TR",
    )
    cache_shard.add_argument("--graph", default="LJ",
                             help="dataset key (default: LJ)")
    cache_shard.add_argument("--scale", type=_SCALE, default=None,
                             help="scale divisor (default 2000)")
    cache_shard.add_argument(
        "--shard-mb", type=_flag(KNOBS["shard_mb"].validate, "shard-mb"),
        default=None, metavar="MB",
        help="largest uncompressed shard size "
        "(default: $REPRO_SHARD_MB, else 8)",
    )
    for cache_action in (cache_ls, cache_info, cache_clear, cache_warm,
                         cache_shard):
        # --no-cache makes no sense on a command whose object *is* the
        # cache; only the directory/cap flags apply here.
        _add_cache_arguments(cache_action, include_no_cache=False)

    sub.add_parser("info", help="list datasets, engines, applications")
    return parser


def _parse_fault_plan(args, num_nodes: int):
    """(plan, checkpoint_every) from the shared fault flags (None, 0 off)."""
    from repro.cluster.faults import FaultPlan

    plan = None
    if getattr(args, "inject_faults", None):
        plan = FaultPlan.parse(
            args.inject_faults,
            num_nodes=num_nodes,
            num_workers=getattr(args, "workers", None),
        )
    return plan, getattr(args, "checkpoint_every", 0) or 0


def _run_config(args, recorder, store, num_nodes: int) -> dict:
    """The run-config overrides one command's flags describe.

    Built before the command's live session starts, so a bad fault spec
    or ``REPRO_*`` variable is a usage error that leaves no flight dump:
    every environment-backed knob is resolved here, once.
    """
    plan, checkpoint_every = _parse_fault_plan(args, num_nodes)
    overrides = dict(
        recorder=recorder, fault_plan=plan, checkpoint_every=checkpoint_every
    )
    for name, flag in (
        ("reply_timeout", "parallel_timeout"),
        ("max_respawns", "parallel_max_respawns"),
        ("shard_mb", "shard_mb"),
        ("shard_cache", "shard_cache"),
    ):
        overrides[name] = resolve(name, getattr(args, flag, None))
    for name, value in (
        ("store", store),
        ("backend", args.backend),
        ("num_workers", args.workers),
    ):
        if value is not None:
            overrides[name] = value
    return overrides


def _run_traced_workload(args, recorder):
    from repro.bench import workloads
    from repro.bench.runner import run_workload

    scale = (
        args.scale if args.scale is not None
        else workloads.DEFAULT_SCALE_DIVISOR
    )
    engine_kwargs = {}
    scheduler = getattr(args, "scheduler", None)
    if scheduler is not None:
        engine_kwargs["scheduler"] = scheduler
    return run_workload(
        args.engine, args.app, args.graph,
        num_nodes=args.nodes, scale_divisor=scale, recorder=recorder,
        backend=args.backend, workers=args.workers, **engine_kwargs,
    )


def _print_cache_summary(store) -> None:
    if store is not None:
        print("cache       : %s (%s)" % (store.stats.summary(), store.root))


def _write_observability(args, recorder) -> None:
    """Write the shared ``--metrics-out`` / ``--profile-out`` artifacts."""
    if recorder is None:
        return
    if getattr(args, "metrics_out", None):
        from repro.obs import registry_from_trace, write_openmetrics

        write_openmetrics(registry_from_trace(recorder), args.metrics_out)
        print("metrics     : OpenMetrics text -> %s" % args.metrics_out)
    if getattr(args, "profile_out", None):
        from repro.obs import write_profile

        paths = write_profile(recorder, args.profile_out)
        print("profile     : %s -> %s"
              % (", ".join(sorted(paths)), args.profile_out))


def _wants_observability(args) -> bool:
    return bool(
        getattr(args, "metrics_out", None)
        or getattr(args, "profile_out", None)
    )


def _make_live_recorder(args, full_trace: bool = False):
    """The run's always-on recorder: a crash flight ring.

    Unbounded when the whole trace is consumed afterwards — a
    ``--trace-out`` dump, the ``--metrics-out``/``--profile-out``
    projections, or a live ``--serve-metrics`` endpoint whose scraped
    counters must stay monotone.  Otherwise a bounded ring whose memory
    cost is O(capacity) no matter how long the run is, kept only so a
    crash leaves a replayable flight dump behind.
    """
    from repro.obs.live import DEFAULT_FLIGHT_CAPACITY, FlightRecorder

    unbounded = bool(
        full_trace
        or _wants_observability(args)
        or getattr(args, "serve_metrics", None) is not None
    )
    return FlightRecorder(
        capacity=None if unbounded else DEFAULT_FLIGHT_CAPACITY
    )


@contextlib.contextmanager
def _live_session(args, recorder, overrides: dict):
    """Run one command's workloads under its run config and live plane.

    Starts the ``/metrics`` endpoint when ``--serve-metrics`` is given,
    configures the plane with ``overrides`` for the session (the engine
    attaches every dispatch it builds — serial or pool), and arms the
    crash flight recorder: the ring is dumped to
    ``flight-<stamp>-<pid>.jsonl`` on EngineError, on pool degradation,
    and on SIGTERM/SIGINT (the original signal disposition is restored
    and the signal re-raised, so exit codes are unchanged).  At most one
    dump per run.
    """
    import signal

    from repro.obs.live import LiveTelemetryPlane, default_flight_path

    plane = LiveTelemetryPlane(
        recorder=recorder,
        serve_port=getattr(args, "serve_metrics", None),
    )
    if plane.server is not None:
        print("metrics     : live at %s/metrics (and /healthz)"
              % plane.server.url)
        sys.stdout.flush()

    dumped = {}

    def dump(reason: str) -> None:
        if "path" in dumped:
            return
        dumped["path"] = recorder.dump(default_flight_path(), reason)
        print("flight      : %s -> %s" % (reason, dumped["path"]),
              file=sys.stderr)

    previous_handlers = {}

    def on_signal(signum, _frame):
        dump("signal-%d" % signum)
        signal.signal(signum, previous_handlers[signum])
        signal.raise_signal(signum)

    # Handlers are a main-thread privilege; when main() is driven from
    # another thread (tests, embedding) the EngineError and degradation
    # dumps below still cover the crash cases.
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous_handlers[signum] = signal.signal(signum, on_signal)
        except ValueError:
            break
    try:
        with configured(live_plane=plane, **overrides):
            yield plane
        if plane.degraded:
            dump("degraded")
    except EngineError:
        dump("engine-error")
        raise
    finally:
        for signum, handler in previous_handlers.items():
            try:
                signal.signal(signum, handler)
            except ValueError:
                pass
        plane.close(
            linger=getattr(args, "serve_metrics_linger", 0.0) or 0.0
        )


def _cmd_run(args) -> int:
    from repro.trace import write_jsonl

    recorder = _make_live_recorder(args, full_trace=bool(args.trace_out))
    store = _make_store(args, recorder)
    overrides = _run_config(args, recorder, store, args.nodes)
    with _live_session(args, recorder, overrides):
        outcome = _run_traced_workload(args, recorder)
    result = outcome.result
    metrics = result.metrics
    print("engine      : %s" % args.engine)
    print("application : %s on %s (%r)" % (args.app, args.graph, result.graph))
    print("cluster     : %d node(s)" % outcome.num_nodes)
    print("supersteps  : %d" % result.iterations)
    print("edge ops    : %d" % metrics.total_edge_ops)
    print("updates     : %d (%.2f per vertex)"
          % (metrics.total_updates,
             metrics.updates_per_vertex(result.graph.num_vertices)))
    print("messages    : %d (%d bytes)"
          % (metrics.total_messages, metrics.total_message_bytes))
    if metrics.total_skipped:
        print("skipped     : %d vertex computations (RR)" % metrics.total_skipped)
    print("modeled time: %.6f s execution, %.6f s preprocessing"
          % (outcome.seconds, outcome.runtime.preprocessing_seconds))
    print("measured    : %.6f s wall [%s backend, %d worker(s)]%s"
          % (outcome.wall_seconds,
             getattr(args, "backend", None) or "serial",
             getattr(args, "workers", None) or 1,
             " — DEGRADED to inline execution (respawn budget exhausted)"
             if result.degraded else ""))
    if metrics.checkpoints_taken or metrics.rollbacks or metrics.total_retries:
        print("fault tol.  : %d checkpoint(s) [%d bytes], %d rollback(s) "
              "[%d superstep(s) replayed], %d takeover(s), "
              "%d retried message(s)"
              % (metrics.checkpoints_taken, metrics.checkpoint_bytes,
                 metrics.rollbacks, metrics.supersteps_replayed,
                 metrics.recoveries, metrics.total_retries))
    finite = result.values[np.isfinite(result.values)]
    if finite.size:
        print("values      : min %.4g  max %.4g  (%d finite)"
              % (finite.min(), finite.max(), finite.size))
    _print_cache_summary(store)
    if recorder is not None and args.trace_out:
        write_jsonl(recorder, args.trace_out)
        print("trace       : %d events written to %s"
              % (len(recorder.events), args.trace_out))
    _write_observability(args, recorder)
    return 0


def _cmd_trace(args) -> int:
    from repro.trace import write_jsonl
    from repro.trace.export import render_profile, superstep_csv

    recorder = _make_live_recorder(args, full_trace=True)
    store = _make_store(args, recorder)
    overrides = _run_config(args, recorder, store, args.nodes)
    with _live_session(args, recorder, overrides):
        outcome = _run_traced_workload(args, recorder)
    write_jsonl(recorder, args.out)
    print("%s %s on %s: %d supersteps (%.6f s wall), %d events -> %s"
          % (args.engine, args.app, args.graph,
             outcome.result.iterations, outcome.wall_seconds,
             len(recorder.events), args.out))
    if args.csv_out:
        with open(args.csv_out, "w", encoding="utf-8") as handle:
            handle.write(superstep_csv(recorder))
        print("superstep CSV -> %s" % args.csv_out)
    _print_cache_summary(store)
    _write_observability(args, recorder)
    print(render_profile(recorder))
    return 0


def _cmd_bench(args) -> int:
    from repro.bench import workloads
    from repro.bench.experiments import ARTIFACTS
    from repro.trace import write_jsonl

    scale = (
        args.scale if args.scale is not None
        else workloads.DEFAULT_SCALE_DIVISOR
    )
    chosen = (
        list(ARTIFACTS.items())
        if args.artifact == "all"
        else [(args.artifact, ARTIFACTS[args.artifact])]
    )
    # The experiment drivers do not thread a recorder, store, fault plan
    # or backend; the run config carries them to every engine, store and
    # run_workload call the artifacts make.
    recorder = _make_live_recorder(args, full_trace=bool(args.trace_out))
    store = _make_store(args, recorder)
    overrides = _run_config(args, recorder, store, num_nodes=8)
    with _live_session(args, recorder, overrides):
        for name, artifacts_of in chosen:
            artifacts = artifacts_of(scale)
            for index, artifact in enumerate(artifacts):
                print(artifact.render())
                if args.csv_dir:
                    import os

                    os.makedirs(args.csv_dir, exist_ok=True)
                    suffix = "" if len(artifacts) == 1 else "_%d" % index
                    path = os.path.join(
                        args.csv_dir, "%s%s.csv" % (name, suffix)
                    )
                    with open(path, "w", encoding="utf-8") as handle:
                        handle.write(artifact.to_csv())
                    print("[csv written to %s]" % path)
    _print_cache_summary(store)
    if recorder is not None and args.trace_out:
        write_jsonl(recorder, args.trace_out)
        print("[trace: %d events written to %s]"
              % (len(recorder.events), args.trace_out))
    _write_observability(args, recorder)
    return 0


def _cmd_report(args) -> int:
    import os

    from repro.errors import TraceError
    from repro.obs import (
        PROFILE_FILENAMES,
        build_report,
        render_html,
        render_markdown,
    )
    from repro.trace.export import read_jsonl

    if args.source is not None:
        path = args.source
        if os.path.isdir(path):
            path = os.path.join(path, PROFILE_FILENAMES["trace"])
        if not os.path.exists(path):
            raise TraceError(
                "no trace at %r (expected a JSONL trace or a "
                "--profile-out directory)" % args.source
            )
        recorder = read_jsonl(path)
        print("report      : %d events loaded from %s"
              % (len(recorder.events), path))
    elif args.app is not None:
        from repro.trace import TraceRecorder

        recorder = TraceRecorder()
        with configured(**_run_config(args, recorder, None, args.nodes)):
            outcome = _run_traced_workload(args, recorder)
        print("report      : replayed %s %s on %s (%d supersteps)"
              % (args.engine, args.app, args.graph,
                 outcome.result.iterations))
    else:
        raise TraceError(
            "report needs a SOURCE (profile directory or JSONL trace) "
            "or a workload to replay (--app/--graph)"
        )

    report = build_report(recorder)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(render_html(report))
    print("report      : HTML -> %s" % args.out)
    if args.md_out:
        with open(args.md_out, "w", encoding="utf-8") as handle:
            handle.write(render_markdown(report))
        print("report      : markdown -> %s" % args.md_out)
    print("RR          : %s" % report["rr"]["verdict"])
    return 0


def _cmd_top(args) -> int:
    from repro.obs.live import top_loop

    target = args.target
    if "://" not in target:
        target = "http://" + target

    def render(frame: str) -> None:
        if not args.once:
            # Full-frame redraw, htop style: clear + home.
            sys.stdout.write("\x1b[2J\x1b[H")
        sys.stdout.write(frame)
        sys.stdout.flush()

    try:
        return top_loop(
            target, render,
            interval=args.interval, once=args.once, timeout=args.timeout,
        )
    except KeyboardInterrupt:
        return 0


def _warm_workload(app_name: str, graph_key: str, scale: int):
    """Precompute exactly the artifacts ``run_workload`` would request.

    Mirrors the engine's guidance derivation: min/max apps run on
    ``app.prepare(graph)`` with the app's guidance roots (the default
    root for rooted traversals, topological roots for CC), arithmetic
    apps on the loaded graph with the generic topological roots.  The
    store the caller configured picks the artifacts up
    via the same ``datasets.load`` / ``generate_guidance`` paths a run
    uses, so the keys match by construction.
    """
    from repro.bench import workloads
    from repro.core.rrg import default_roots, generate_guidance
    from repro.graph import datasets

    # use_cache=False: warming exists to fill the *on-disk* store for
    # other processes; the in-process memo must not short-circuit it.
    graph = datasets.load(
        graph_key,
        scale_divisor=scale,
        weighted=workloads.app_needs_weights(app_name),
        use_cache=False,
    )
    app = workloads.make_app(app_name)
    if workloads.app_is_arithmetic(app_name):
        run_graph = graph
        roots = default_roots(run_graph)
    else:
        run_graph = app.prepare(graph)
        root = (
            None if app_name == "CC" else workloads.default_root(graph)
        )
        roots = app.guidance_roots(run_graph, root)
    return generate_guidance(run_graph, roots)


def _shard_workload(app_name: str, graph_key: str, scale: int,
                    shard_mb, store):
    """Pre-shard the run graph ``APP on GRAPH`` streams under ooc.

    The ooc dispatch keys shards by the content digest of the graph it
    is handed — for min/max apps that is ``app.prepare(graph)``, not
    the raw dataset — so sharding goes through the same preparation a
    run performs and the digests match by construction.
    """
    from repro.bench import workloads
    from repro.graph import datasets
    from repro.ooc import spill_graph

    graph = datasets.load(
        graph_key,
        scale_divisor=scale,
        weighted=workloads.app_needs_weights(app_name),
        use_cache=False,
    )
    if not workloads.app_is_arithmetic(app_name):
        graph = workloads.make_app(app_name).prepare(graph)
    digest = spill_graph(graph, store, shard_mb=shard_mb)
    manifest, _ = store.get_shard_manifest(digest, "in")
    return digest, graph, len(manifest["shards"])


def _cmd_cache(args) -> int:
    from repro.store import StoreError

    store = _make_store(args)
    if store is None:
        raise StoreError(
            "the cache command needs a store directory: pass "
            "--cache-dir DIR or set REPRO_CACHE_DIR"
        )
    if args.cache_command == "ls":
        entries = store.entries()
        for entry in entries:
            print("%-8s  %12d B  %s" % (entry.kind, entry.nbytes, entry.key))
        cap = (
            "%d B" % store.max_bytes
            if store.max_bytes is not None else "unlimited"
        )
        print("%d entr%s, %d bytes (cap %s) in %s"
              % (len(entries), "y" if len(entries) == 1 else "ies",
                 store.total_bytes(), cap, store.root))
        return 0
    if args.cache_command == "info":
        import json

        entries = store.find(args.prefix)
        if not entries:
            print("no entry matches %r in %s" % (args.prefix, store.root))
            return 1
        for entry in entries:
            print(json.dumps(entry.meta, indent=2, sort_keys=True))
        return 0
    if args.cache_command == "clear":
        removed = store.clear()
        print("removed %d entr%s (orphaned payloads included) from %s"
              % (removed, "y" if removed == 1 else "ies", store.root))
        return 0
    from repro.bench import workloads

    scale = (
        args.scale if args.scale is not None
        else workloads.DEFAULT_SCALE_DIVISOR
    )
    if args.cache_command == "shard":
        for app_name in args.apps:
            digest, graph, parts = _shard_workload(
                app_name, args.graph, scale, args.shard_mb, store
            )
            print("sharded %s on %s: %s (%d vertices, %d edges, "
                  "%d shard(s) per direction)"
                  % (app_name, args.graph, digest[:12],
                     graph.num_vertices, graph.num_edges, parts))
        _print_cache_summary(store)
        return 0
    # warm
    with configured(store=store):
        for app_name in args.apps:
            guidance = _warm_workload(app_name, args.graph, scale)
            print("warmed %s on %s: guidance for %d vertices "
                  "(%d iteration level(s), %d edge ops)"
                  % (app_name, args.graph, guidance.num_vertices,
                     guidance.num_iterations, guidance.edge_ops))
    _print_cache_summary(store)
    return 0


def _cmd_info(_args) -> int:
    from repro.bench import workloads
    from repro.graph import datasets

    print("Datasets (paper Table 4, 1/%d-scale stand-ins):"
          % workloads.DEFAULT_SCALE_DIVISOR)
    for name, vertices, edges, degree, kind in datasets.paper_table4():
        print("  %-15s |V|=%-12d |E|=%-14d deg=%-5.1f %s"
              % (name, vertices, edges, degree, kind))
    print("\nEngines: %s" % ", ".join(workloads.ENGINE_NAMES))
    print("Applications: %s (+ BFS, NumPaths, SpMV, HeatSimulation, "
          "ApproximateDiameter, MST, BeliefPropagation via the API)"
          % ", ".join(workloads.APP_ORDER))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    from repro.errors import ReproError

    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("run", "trace"):
        _resolve_app(parser, args)
    elif args.command == "report":
        # Replay mode needs an app; consuming a saved trace does not.
        _resolve_app(parser, args, required=args.source is None)
    # Cross-flag validation belongs here, before any command spins up
    # the live telemetry plane — a usage error must not leave a flight
    # dump behind.
    if (
        getattr(args, "scheduler", None) is not None
        and getattr(args, "engine", "").lower() != "async"
    ):
        parser.error(
            "--scheduler applies only to --engine async "
            "(got --engine %s)" % args.engine
        )
    if (
        (getattr(args, "shard_mb", None) is not None
         or getattr(args, "shard_cache", None) is not None)
        and args.command != "cache"
        and getattr(args, "backend", None) != "ooc"
    ):
        parser.error("--shard-mb/--shard-cache apply only to "
                     "--backend ooc")
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "top":
            return _cmd_top(args)
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "info":
            return _cmd_info(args)
    except ReproError as exc:
        # Library errors (bad fault specs, cluster misconfiguration,
        # convergence failures) are user errors here, not crashes:
        # print the message, not a traceback.
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 1


if __name__ == "__main__":
    sys.exit(main())
