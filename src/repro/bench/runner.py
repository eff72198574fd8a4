"""Uniform (engine x application x graph) execution for experiments.

:func:`run_workload` is the single entry point every experiment driver
uses: it builds the engine, runs the application, and returns an
:class:`ExperimentResult` bundling the raw :class:`RunResult` with the
modeled :class:`RuntimeBreakdown`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.bench import workloads
from repro.cluster.config import ClusterConfig
from repro.cluster.costmodel import CostModel, RuntimeBreakdown
from repro.core.engine import RunResult
from repro.errors import EngineError
from repro.trace import recorder as trace_events
from repro.trace.export import attach_modeled
from repro.runconfig import current, resolve
from repro.trace.recorder import Recorder

__all__ = ["ExperimentResult", "run_workload", "PARALLEL_CAPABLE_ENGINES"]

#: Engines built on the SLFE superstep loops, which accept the
#: ``backend``/``num_workers`` pair; the GAS and out-of-core baselines
#: model different systems and stay serial.
PARALLEL_CAPABLE_ENGINES = ("SLFE", "SLFE-noRR", "Gemini", "Ligra")


@dataclass
class ExperimentResult:
    """One (engine, app, graph) execution plus its modeled cost."""

    engine_name: str
    app_name: str
    graph_key: str
    num_nodes: int
    result: RunResult
    runtime: RuntimeBreakdown
    #: measured wall-clock of the engine run (seconds) — the empirical
    #: number ``--backend parallel`` exists to improve, reported next to
    #: the modeled breakdown
    wall_seconds: float = 0.0

    @property
    def seconds(self) -> float:
        """Execution time (preprocessing excluded, as the paper reports)."""
        return self.runtime.execution_seconds

    @property
    def seconds_per_iteration(self) -> float:
        """Per-iteration time (the paper's PR/TR reporting convention)."""
        if self.result.iterations == 0:
            return 0.0
        return self.seconds / self.result.iterations

    @property
    def end_to_end_seconds(self) -> float:
        """Execution plus preprocessing (Figure 8's metric)."""
        return self.runtime.total_seconds

    def reported_seconds(self) -> float:
        """Table 5 convention: per-iteration for PR/TR, total otherwise."""
        if workloads.app_is_arithmetic(self.app_name):
            return self.seconds_per_iteration
        return self.seconds


def run_workload(
    engine_name: str,
    app_name: str,
    graph_key: str,
    num_nodes: int = 8,
    scale_divisor: int = workloads.DEFAULT_SCALE_DIVISOR,
    config: Optional[ClusterConfig] = None,
    tolerance: Optional[float] = None,
    recorder: Optional[Recorder] = None,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    **engine_kwargs,
) -> ExperimentResult:
    """Run one cell of an evaluation table.

    The graph, root, application, cluster config, and cost model all come
    from :mod:`repro.bench.workloads`, so every experiment measures the
    same workload definitions.

    ``recorder`` attaches a trace recorder to the engine; when omitted,
    the run configuration's recorder is used (the shared no-op unless a
    caller such as ``bench --trace-out`` configured one).  The run is
    bracketed by ``run_begin``/``run_end`` events and the modeled
    per-superstep costs are attached to the trace.

    ``backend``/``workers`` select the execution backend for SLFE-family
    engines (see :mod:`repro.parallel`); omitted, the configured backend
    applies.  Requesting them explicitly for a GAS or out-of-core
    baseline raises :class:`EngineError` — those engines model different
    systems and run serially.
    """
    if recorder is None:
        recorder = current().recorder
    if backend is not None or workers is not None:
        if engine_name not in PARALLEL_CAPABLE_ENGINES:
            raise EngineError(
                "engine %r does not support the --backend/--workers "
                "options (parallel-capable engines: %s)"
                % (engine_name, ", ".join(PARALLEL_CAPABLE_ENGINES))
            )
        # Validate at the entry point, before any graph is loaded: a bad
        # worker count (0, negative, bool, float) fails in one line here
        # instead of deep inside engine construction.
        resolve("backend", backend)
        resolve("num_workers", workers)
        if backend is not None:
            engine_kwargs.setdefault("backend", backend)
        if workers is not None:
            engine_kwargs.setdefault("num_workers", workers)
    graph = workloads.load_graph(
        graph_key,
        scale_divisor=scale_divisor,
        weighted=workloads.app_needs_weights(app_name),
    )
    if config is None:
        config = workloads.experiment_cluster(
            num_nodes=num_nodes, scale_divisor=scale_divisor
        )
    engine_kwargs.setdefault("recorder", recorder)
    engine = workloads.make_engine(engine_name, graph, config, **engine_kwargs)
    app = workloads.make_app(app_name)
    if recorder.enabled:
        recorder.emit(
            trace_events.RUN_BEGIN,
            engine=engine_name,
            app=app_name,
            graph=graph_key,
            num_nodes=engine.config.num_nodes,
            scale_divisor=scale_divisor,
            # Graph shape, so post-hoc consumers (metrics registry, run
            # reports) can normalise counters into per-vertex/per-edge
            # rates and rebuild the cost constants without the graph.
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
        )
    started = time.perf_counter()
    if workloads.app_is_arithmetic(app_name):
        if tolerance is None:
            tolerance = workloads.ARITH_TOLERANCE
        result = engine.run_arithmetic(app, tolerance=tolerance)
    elif app_name == "CC":
        result = engine.run_minmax(app)
    else:
        result = engine.run_minmax(app, root=workloads.default_root(graph))
    wall_seconds = time.perf_counter() - started
    runtime = CostModel(engine.config).evaluate(result.metrics)
    if recorder.enabled:
        attach_modeled(recorder, runtime)
        recorder.emit(
            trace_events.RUN_END,
            engine=engine_name,
            app=app_name,
            graph=graph_key,
            iterations=result.iterations,
            edge_ops=result.metrics.total_edge_ops,
            messages=result.metrics.total_messages,
            modeled_seconds=runtime.execution_seconds,
            preprocessing_seconds=runtime.preprocessing_seconds,
            checkpoint_seconds=runtime.checkpoint_seconds,
            recovery_seconds=runtime.recovery_seconds,
        )
    return ExperimentResult(
        engine_name=engine_name,
        app_name=app_name,
        graph_key=graph_key,
        num_nodes=engine.config.num_nodes,
        result=result,
        runtime=runtime,
        wall_seconds=wall_seconds,
    )
