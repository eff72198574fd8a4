"""The child protocol: one workload, measured in this interpreter.

Closed loop, one client: a job starts when the previous one has
returned.  ``trace=0`` times jobs with every wrapper off and reports
the end-to-end metrics; ``trace=1`` runs the reference variants and a
few jobs under span wrappers and reports the per-layer metrics.  Both
verify every result they produce.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import os
import statistics
import tempfile
import time
import traceback
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baselines import GeminiEngine
from repro.core.engine import RunResult
from repro.ooc import peak_rss_bytes
from repro.trace.recorder import TraceRecorder

from perfbench import layers
from perfbench.env import SCRATCH_DIR
from perfbench.metrics import END_TO_END, PER_LAYER, with_units
from perfbench.spans import Span, SpanLog, dump_jsonl, instrument
from perfbench.verify import certificate_failures, values_digest
from perfbench.workloads import (
    WORKLOADS,
    Workload,
    backend_installed,
    build_graph,
    guidance_inputs,
    job_root,
    prepare_backend,
    preprocess,
    run_job,
)

#: Fewest rounds behind any reported median, however long one takes.
MIN_ROUNDS = 3
#: Jobs run under span wrappers; each per-layer metric is their median
#: (an odd count, so one slow job cannot move it).
TRACED_JOBS = 3


class Jobs:
    """Runs the workload's jobs and keeps the evidence to score them.

    Every job this process runs goes through here, so ``attempted``
    and the failure count cover warm-up, timed, reference and traced
    jobs alike.
    """

    def __init__(self, workload: Workload, graph, store, root, guidance):
        self.workload = workload
        self.graph = graph
        self.store = store
        self.root = root
        self.guidance = guidance
        self.attempted = 0
        self.crashed = 0
        #: ``(digest, must_match)`` per finished job; jobs of the
        #: workload's own variant must all be bit-identical
        self.finished: List[Tuple[str, bool]] = []
        #: one result vector per distinct digest, for its certificate
        self.representatives: Dict[str, np.ndarray] = {}

    def run(
        self, must_match: bool = True, targets=None, **overrides
    ) -> Optional[Tuple[float, RunResult, List[Span]]]:
        """One job; ``(seconds, result, spans)`` or None if it raised.

        With ``targets`` the job runs under span wrappers, inside a
        root span that covers engine construction to values.
        """
        gc.collect()
        self.attempted += 1
        log = SpanLog()
        log.job = "job-%d" % self.attempted
        try:
            with backend_installed(self.workload, self.store), \
                    instrument(log, targets or ()), \
                    log.span(layers.JOB_ROOT, layers.ENGINE_SELF) as root:
                result = run_job(
                    self.workload, self.graph, self.guidance, self.root,
                    **overrides,
                )
        except Exception:
            # A failed job is a data point, not a crash of the run.
            traceback.print_exc()
            self.crashed += 1
            return None
        digest = values_digest(result.values)
        self.finished.append((digest, must_match))
        self.representatives.setdefault(digest, result.values)
        return root.duration_ns / 1e9, result, log.spans

    def sample(
        self, budget_seconds: float, min_runs: int, max_runs: int, **kwargs
    ) -> Tuple[List[float], Optional[RunResult]]:
        """Repeat :meth:`run` until the budget is spent, within the two
        counts; the times and the last result."""
        times: List[float] = []
        last = None
        deadline = time.perf_counter() + budget_seconds
        for runs in range(max_runs):
            if runs >= min_runs and time.perf_counter() >= deadline:
                break
            done = self.run(**kwargs)
            if done is not None:
                times.append(done[0])
                last = done[1]  # earlier results are not kept alive
        return times, last

    def score(self) -> Tuple[int, List[str]]:
        """``(failed, reasons)``: jobs that raised, whose result fails
        its certificate, or that differ from the other repeats."""
        certificates = {
            digest: certificate_failures(
                self.workload.app, self.graph, self.root, values
            )
            for digest, values in self.representatives.items()
        }
        expected = next(
            (digest for digest, must_match in self.finished if must_match),
            None,
        )
        failed = self.crashed
        reasons = ["%d jobs raised" % self.crashed] if self.crashed else []
        for digest, must_match in self.finished:
            problems = list(certificates[digest])
            if must_match and digest != expected:
                problems.append("result not bit-identical to other repeats")
            if problems:
                failed += 1
                reasons += [p for p in problems if p not in reasons]
        return failed, reasons


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _warm_imports(workload: Workload, seed: int, scratch: str) -> None:
    """Step 1: a throw-away job on ~64 vertices pays the lazy imports."""
    tiny = dataclasses.replace(
        workload, smoke_size=8 if workload.recipe == "grid" else 64
    )
    graph = build_graph(tiny, seed, smoke=True)
    store = prepare_backend(tiny, graph, os.path.join(scratch, "warm"))
    root = job_root(tiny, graph)
    guidance = preprocess(*guidance_inputs(tiny, graph, root))
    with backend_installed(tiny, store):
        run_job(tiny, graph, guidance, root)


def _setup(workload: Workload, seed: int, smoke: bool, scratch: str, index: int):
    """Step 2: generators, both CSR directions, backend preparation."""
    graph = build_graph(workload, seed, smoke)
    store = prepare_backend(
        workload, graph, os.path.join(scratch, "store-%d" % index)
    )
    return graph, store


def _timed(call):
    """``(seconds, output)`` of one call."""
    started = time.perf_counter()
    output = call()
    return time.perf_counter() - started, output


def _end_to_end(
    workload: Workload, seed: int, seconds: float, smoke: bool, scratch: str
) -> Dict[str, object]:
    """Steps 2 to 6 and 9, in rounds of one job, one set-up and one
    guidance generation.

    The three timings take turns for the whole of ``seconds`` because
    this host has slow phases that last seconds: back to back, a metric
    that takes milliseconds would be sampled wholly inside or wholly
    outside one, and its median would move with it.  Taking turns, a
    slow phase lands on a minority of every metric's samples alike.
    """
    store_index = itertools.count()

    def set_up():
        return _setup(workload, seed, smoke, scratch, next(store_index))

    def generate():
        return preprocess(run_graph, roots)

    first_setup_s, (graph, store) = _timed(set_up)
    root = job_root(workload, graph)
    run_graph, roots = guidance_inputs(workload, graph, root)
    first_preprocess_s, guidance = _timed(generate)
    setup_times, preprocess_times = [first_setup_s], [first_preprocess_s]

    jobs = Jobs(workload, graph, store, root, guidance)
    jobs.run()  # step 4: warm-up, scored but not timed
    times: List[float] = []
    rounds = 0
    min_rounds = 1 if smoke else MIN_ROUNDS
    deadline = time.perf_counter() + (0.0 if smoke else seconds)
    while rounds < min_rounds or time.perf_counter() < deadline:
        rounds += 1
        done = jobs.run()
        if done is not None:
            times.append(done[0])
        # Each repeat's output is dropped at once, so a second graph
        # is never resident while a job runs (peak RSS is reported).
        setup_times.append(_timed(set_up)[0])
        preprocess_times.append(_timed(generate)[0])
    failed, reasons = jobs.score()
    quartiles = (
        statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    )
    values = {
        "setup_s": _median(setup_times),
        "preprocess_s": _median(preprocess_times),
        "job_s": _median(times),
        "peak_rss_mb": peak_rss_bytes() / 2**20,
    }
    return {
        "graph": {"vertices": graph.num_vertices, "edges": graph.num_edges},
        "k": len(times),
        "job_s_min": min(times, default=0.0),
        "job_s_quartiles": quartiles,
        "attempted": jobs.attempted,
        "failed": failed,
        "failures": reasons,
        "metrics": with_units(values, [name for name, *_ in END_TO_END]),
    }


def _per_layer(
    workload: Workload,
    seed: int,
    seconds: float,
    smoke: bool,
    scratch: str,
    spans_out: Optional[str],
) -> Dict[str, object]:
    values: Dict[str, float] = {}
    all_spans: List[Span] = []

    log = SpanLog()
    log.job = "setup"
    with instrument(log, layers.setup_targets()):
        graph, store = _setup(workload, seed, smoke, scratch, 0)
    values.update(layers.self_seconds_by_metric(log.spans))
    all_spans += log.spans

    root = job_root(workload, graph)
    run_graph, roots = guidance_inputs(workload, graph, root)
    log = SpanLog()
    log.job = "preprocess"
    with instrument(log, layers.preprocess_targets()):
        guidance = preprocess(run_graph, roots)
    del run_graph
    values.update(layers.self_seconds_by_metric(log.spans))
    values["core.rrg.generate_edge_ops"] = guidance.edge_ops
    values["core.rrg.levels"] = guidance.max_last_iter
    all_spans += log.spans

    # The budget is split between the untraced baseline, the reference
    # variants and the traced jobs; smoke runs each exactly once.
    slice_s = 0.0 if smoke else seconds / 4
    few = dict(min_runs=1, max_runs=1 if smoke else 3)
    jobs = Jobs(workload, graph, store, root, guidance)
    jobs.run()  # warm-up
    base_times, base = jobs.sample(
        slice_s, 1 if smoke else 2, 1 if smoke else 3
    )

    # Traced, untraced and recorder-attached jobs take turns, so a
    # slow phase of the host lands on all three alike and the
    # overhead ratios compare like with like.
    targets = layers.job_targets(workload.backend)
    traced, recorder_times = [], []
    for _ in range(1 if smoke else TRACED_JOBS):
        done = jobs.run(targets=targets)
        if done is not None:
            _, result, spans = done
            traced.append(layers.traced_job_metrics(
                spans, result, workload.num_workers
            ))
            all_spans += spans
        if not smoke:
            done = jobs.run()
            if done is not None:
                base_times.append(done[0])
        if workload.measures_recorder:
            # Fresh recorder per job: one cannot span two runs.
            done = jobs.run(recorder=TraceRecorder())
            if done is not None:
                recorder_times.append(done[0])
    values.update(_median_of_dicts(traced))
    job_s = _median(base_times)
    values["perfbench.untraced_job_s"] = job_s

    if workload.measures_recorder:
        values["trace.recorder_overhead_frac"] = _ratio(
            _median(recorder_times) - job_s, job_s
        )
        done = jobs.run(targets=targets, recorder=TraceRecorder())
        if done is not None:
            _, result, spans = done
            observed = layers.traced_job_metrics(
                spans, result, workload.num_workers
            )
            values["trace.events"] = observed["trace.events"]
            values["trace.emit_s"] = observed.get("trace.emit_s", 0.0)
            all_spans += spans

    values.update(_reference_metrics(jobs, job_s, base, slice_s / 2, few))

    traced_s = values.get("perfbench.traced_job_s", 0.0)
    values["perfbench.span_overhead_frac"] = _ratio(traced_s - job_s, job_s)
    values["core.engine.edge_ops_per_s"] = _ratio(
        values.get("core.engine.edge_ops", 0.0), job_s
    )
    values["cluster.modeled_over_measured"] = _ratio(
        values.get("cluster.modeled_exec_s", 0.0), job_s
    )
    if spans_out:
        dump_jsonl(all_spans, spans_out)
    failed, reasons = jobs.score()
    return {
        "graph": {"vertices": graph.num_vertices, "edges": graph.num_edges},
        "k": len(base_times),
        "attempted": jobs.attempted,
        "failed": failed,
        "failures": reasons,
        "metrics": with_units(values, [name for name, *_ in PER_LAYER]),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median_of_dicts(rows: List[Dict[str, float]]) -> Dict[str, float]:
    keys = {key for row in rows for key in row}
    return {key: _median([row.get(key, 0.0) for row in rows]) for key in keys}


def _reference_metrics(
    jobs: Jobs,
    job_s: float,
    with_rr: Optional[RunResult],
    budget_seconds: float,
    few: Dict[str, int],
) -> Dict[str, float]:
    """Step 7: the workload's job against its reference variants."""
    workload = jobs.workload
    values: Dict[str, float] = {}
    if workload.enable_rr:
        times, norr = jobs.sample(
            budget_seconds, must_match=False, enable_rr=False, **few
        )
        norr_job_s = _median(times)
        values["core.rrg.norr_job_s"] = norr_job_s
        values["core.rrg.measured_speedup"] = _ratio(norr_job_s, job_s)
        if with_rr is not None and norr is not None:
            values["core.rrg.edge_ops_saved_frac"] = 1.0 - _ratio(
                with_rr.metrics.total_edge_ops, norr.metrics.total_edge_ops
            )
            values["core.rrg.modeled_speedup"] = _ratio(
                layers.modeled_exec_seconds(norr),
                layers.modeled_exec_seconds(with_rr),
            )
            if workload.app == "pr":
                # Finish-early's error against the RR-off fixed point.
                values["core.rrg.linf_vs_norr"] = float(
                    np.max(np.abs(with_rr.values - norr.values))
                )
    if workload.backend != "serial":
        # Same job, serial backend, same child: must be bit-identical.
        times, _ = jobs.sample(budget_seconds, backend="serial", **few)
        serial_job_s = _median(times)
        if workload.backend == "parallel":
            speedup = _ratio(serial_job_s, job_s)
            values["parallel.speedup_vs_serial"] = speedup
            values["parallel.efficiency"] = speedup / workload.num_workers
        else:
            values["ooc.slowdown_vs_memory"] = _ratio(job_s, serial_job_s)
    if workload.measures_gemini:
        times, _ = jobs.sample(
            budget_seconds, must_match=False, enable_rr=False,
            engine_cls=GeminiEngine, **few
        )
        values["baselines.gemini_job_s"] = _median(times)
        values["baselines.slfe_over_gemini"] = _ratio(job_s, _median(times))
    return values


def measure(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: int,
    smoke: bool = False,
    spans_out: Optional[str] = None,
    scratch_dir: str = SCRATCH_DIR,
) -> Dict[str, object]:
    """Run the child protocol for one workload; returns its report.

    Every temp store lives in one directory under ``scratch_dir``,
    removed on return.
    """
    workload = WORKLOADS[workload_name]
    os.makedirs(scratch_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch_dir) as scratch:
        _warm_imports(workload, seed, scratch)
        if trace:
            report = _per_layer(
                workload, seed, seconds, smoke, scratch, spans_out
            )
        else:
            report = _end_to_end(workload, seed, seconds, smoke, scratch)
    report.update(
        workload=workload.name, seed=seed, trace=int(bool(trace)),
        smoke=smoke, correct=report["failed"] == 0,
    )
    return report
