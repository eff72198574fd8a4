"""The SLFE execution engine (Sections 3.3-3.5 of the paper).

:class:`SLFEEngine` runs vertex programs over a simulated distributed
cluster with the paper's two redundancy-reduction principles:

* **start late** (:meth:`run_minmax`) — Algorithm 2's single-Ruler pull.
  Pull mode follows the paper's pullFunc exactly (Algorithm 4 lines
  9-16): every *processed* destination recomputes its aggregation over
  **all** of its in-neighbours, every pull superstep.  Redundancy
  reduction is then literally Algorithm 2 line 4: a destination is not
  processed at all until the global iteration number (the Ruler) reaches
  its guidance ``last_iter`` — all of its earlier full recomputations,
  which could only ever produce intermediate values, are skipped.  Push
  mode (Algorithm 3) relaxes the out-edges of active sources per edge,
  and a pull-to-push transition reactivates every vertex while any
  destination is still delayed, so updates hidden from skipped vertices
  are re-delivered (the paper's correctness rule).
* **finish early** (:meth:`run_arithmetic`) — Algorithm 2's multi-Ruler
  pull driven by :class:`repro.core.state.StabilityTracker`: a vertex
  whose value has been stable for more than ``last_iter`` consecutive
  iterations is early-converged (EC) and drops out of computation and
  communication.

Both run under one superstep driver (:meth:`SLFEEngine._drive`); each
family is a step object, :class:`_StartLate` or :class:`_FinishEarly`.

Constructing the engine with ``enable_rr=False`` yields the plain
dense/sparse active-list engine — pull processes every vertex, push the
frontier — which is how the Gemini baseline is built.

Every superstep's edge relaxations, property updates and coalesced
remote messages are recorded in a :class:`MetricsCollector`; modeled
runtimes come from :class:`repro.cluster.costmodel.CostModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.apps.base import ArithmeticApplication, MinMaxApplication
from repro.cluster.checkpoint import CheckpointStore
from repro.cluster.cluster import SimulatedCluster
from repro.cluster.config import ClusterConfig
from repro.cluster.faults import FaultInjector, FaultPlan
from repro.cluster.metrics import MetricsCollector
from repro.core.accounting import segmented_improvements
from repro.core.frontier import (
    DEFAULT_DENSE_DENOMINATOR,
    PULL,
    PUSH,
    Frontier,
    choose_mode,
)
from repro.core.rrg import (
    RRGuidance,
    bucket_by_last_iter,
    bucket_labels,
    default_roots,
    generate_guidance,
    validate_guidance,
)
from repro.core.runtime import SerialDispatch
# Re-exported: baselines and tests import grouped_reduce from here.
from repro.core.runtime import grouped_reduce as _grouped_reduce  # noqa: F401
from repro.core.state import StabilityTracker
from repro.errors import ConvergenceError, EngineError
from repro.graph.graph import Graph
from repro.partition.base import Partitioner, VertexPartition
from repro.partition.chunking import ChunkingPartitioner
from repro.runconfig import current, resolve
from repro.trace import recorder as trace_events
from repro.trace.recorder import NULL_RECORDER, Recorder

__all__ = ["SLFEEngine", "RunResult"]


@dataclass
class RunResult:
    """Outcome of one application run."""

    values: np.ndarray
    metrics: MetricsCollector
    iterations: int
    graph: Graph
    guidance: Optional[RRGuidance] = None
    converged: bool = True
    #: per-iteration sparse (vertex_ids, op_counts) pairs, when recorded
    per_vertex_ops: Optional[List[Tuple[np.ndarray, np.ndarray]]] = field(
        default=None
    )
    #: True when the parallel pool exhausted its respawn budget and the
    #: run finished on the inline (serial-semantics) fallback path.
    degraded: bool = False


class SLFEEngine:
    """Redundancy-aware push/pull engine over a simulated cluster.

    Parameters
    ----------
    graph:
        Input graph (applications may symmetrise it via ``prepare``).
    config:
        Cluster shape and cost constants; defaults to a single node.
    partitioner:
        Vertex partitioner (must produce a :class:`VertexPartition`);
        defaults to the paper's chunking scheme.
    enable_rr:
        Master switch for both redundancy-reduction principles.  Off, the
        engine is the plain Gemini-style push/pull baseline.
    dense_denominator:
        Direction heuristic: pull when active out-edges > |E| / this.
    stability_epsilon:
        "No change" threshold for finish-early stability tracking: a
        vertex moved when ``|new - old| > epsilon`` (or is NaN).  The
        paper relies on hardware float precision hiding sub-ulp changes
        (Section 2.2); with float64 arithmetic an explicit epsilon
        reproduces the same effect deterministically.
    min_stable_rounds:
        Floor on the finish-early threshold (see
        :class:`repro.core.state.StabilityTracker`).
    record_per_vertex_ops:
        Keep per-iteration per-vertex op counts (work-stealing studies).
    recorder:
        Optional :class:`repro.trace.TraceRecorder`.  When given, the
        run emits the shared per-superstep event vocabulary (superstep
        spans, phases, RR skips/catch-ups, EC transitions, counters).
        The default no-op recorder keeps the hot path at one branch.
    rebalancer:
        Optional :class:`repro.cluster.rebalance.DynamicRebalancer` —
        the paper's future-work inter-node balancing: hot vertices
        migrate between nodes mid-run, with the migration traffic
        charged to the metrics.  Results are unaffected.
    fault_plan:
        Optional :class:`repro.cluster.faults.FaultPlan`.  Crashes
        trigger takeover by the surviving nodes plus rollback to the
        last checkpoint — with the cached :class:`RRGuidance` *reused,
        never regenerated* (it depends only on the graph); message loss
        is retried with backoff; stragglers stretch that node's modeled
        compute.  Results are bit-identical to the fault-free run — only
        the accounting (modeled seconds, retries, replayed supersteps)
        changes.  Defaults to the run configuration's plan
        (:mod:`repro.runconfig`), which is how the ``--inject-faults``
        CLI flag reaches engines built inside experiment drivers.
    checkpoint_every:
        Take a state snapshot every this many supersteps (0 keeps only
        the mandatory superstep-0 snapshot a fault-tolerant run needs as
        its rollback floor).  Resolved like every run knob
        (:func:`repro.runconfig.resolve`).  Checkpoints cover the
        vertex properties, frontier, start-late/RulerS bookkeeping, and
        the ownership map; restore is checksum-verified bit-identical.
    backend:
        ``"serial"`` executes supersteps in-process; ``"parallel"``
        runs the gather/scatter kernels on a shared-memory worker pool
        (:class:`repro.parallel.ParallelExecutor`) with mini-chunk work
        stealing — measured multicore execution, bit-identical results.
        Defaults to the configured backend (:mod:`repro.runconfig`),
        which is how the ``--backend``/``--workers`` CLI flags reach
        engines built inside experiment drivers.
    num_workers:
        Worker processes for the parallel backend (ignored by serial).
        Defaults to the configured count.
    """

    #: system name used in benchmark reports
    name = "SLFE"

    def __init__(
        self,
        graph: Graph,
        config: Optional[ClusterConfig] = None,
        partitioner: Optional[Partitioner] = None,
        enable_rr: bool = True,
        dense_denominator: int = DEFAULT_DENSE_DENOMINATOR,
        stability_epsilon: float = 1e-7,
        min_stable_rounds: int = 3,
        record_per_vertex_ops: bool = False,
        rebalancer=None,
        recorder: Optional[Recorder] = None,
        fault_plan: Optional[FaultPlan] = None,
        checkpoint_every: Optional[int] = None,
        backend: Optional[str] = None,
        num_workers: Optional[int] = None,
    ) -> None:
        self.graph = graph
        self.config = config or ClusterConfig(num_nodes=1)
        self.partitioner = partitioner or ChunkingPartitioner()
        if self.partitioner.kind != "vertex":
            raise EngineError(
                "SLFEEngine needs a vertex partitioner, got %r"
                % self.partitioner.name
            )
        self.enable_rr = enable_rr
        self.dense_denominator = dense_denominator
        if stability_epsilon < 0:
            raise ValueError("stability_epsilon must be non-negative")
        self.stability_epsilon = stability_epsilon
        self.min_stable_rounds = min_stable_rounds
        self.rebalancer = rebalancer
        self.record_per_vertex_ops = record_per_vertex_ops
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.fault_plan = (
            fault_plan if fault_plan is not None else current().fault_plan
        )
        self.checkpoint_every = resolve("checkpoint_every", checkpoint_every)
        self.backend = resolve("backend", backend)
        self.num_workers = resolve("num_workers", num_workers)

    # ------------------------------------------------------------------
    # shared plumbing
    # ------------------------------------------------------------------
    def _make_cluster(self, run_graph: Graph) -> SimulatedCluster:
        partition = self.partitioner.partition(run_graph, self.config.num_nodes)
        if not isinstance(partition, VertexPartition):
            raise EngineError("partitioner returned a non-vertex partition")
        return SimulatedCluster(
            run_graph, partition, self.config, recorder=self.recorder
        )

    def _guidance_for(
        self,
        run_graph: Graph,
        roots: np.ndarray,
        provided: Optional[RRGuidance],
    ) -> Optional[RRGuidance]:
        if not self.enable_rr:
            return None
        if provided is not None:
            # Reject mismatched or malformed guidance here, with a
            # message naming both sizes, instead of letting "start
            # late" silently skip the wrong vertices or a kernel die
            # on a bare IndexError deep inside a gather.
            if provided.num_vertices != run_graph.num_vertices:
                raise EngineError(
                    "guidance covers %d vertices but the run graph has "
                    "%d — it was generated for a different graph (or "
                    "scale divisor)"
                    % (provided.num_vertices, run_graph.num_vertices)
                )
            return validate_guidance(
                provided,
                num_vertices=run_graph.num_vertices,
                error=EngineError,
                source="supplied guidance",
            )
        if self.backend == "ooc":
            from repro.ooc import SpilledGraph

            if isinstance(run_graph, SpilledGraph):
                raise EngineError(
                    "RR guidance is generated by a sweep over resident "
                    "out-edges, and a spilled graph's edges are in the "
                    "shard store: run it with enable_rr=False, or pass "
                    "guidance= generated where the graph is in memory"
                )
        return generate_guidance(run_graph, roots)

    @staticmethod
    def _default_iteration_cap(run_graph: Graph) -> int:
        # Generous safety net: monotone label propagation over V vertices
        # cannot legitimately need more than V + O(1) supersteps.
        return run_graph.num_vertices + 100

    def _handle_crash(self, crash, step, store, completed: int) -> int:
        """Roll ``step`` back to the last checkpoint after a crash in
        the superstep following ``completed``; returns the restored
        superstep counter.

        Restores the step's arrays (checksum-verified), moves the dead
        node's vertices to the survivors, and records the takeover
        traffic, the replayed supersteps and the recovery trace events
        — including ``guidance_reused``, the SLFE-specific claim that
        restart needs no new preprocessing.  Ownership is deliberately
        *not* restored: the post-takeover assignment is the cluster's
        new reality (it only moves where work and messages are
        accounted, never what values compute to, so replayed supersteps
        still reproduce the fault-free results bit for bit).
        """
        checkpoint = store.restore()
        step.restore(checkpoint.restore_arrays(), checkpoint.scalars)
        restored = checkpoint.superstep
        _, bytes_moved = step.cluster.fail_node(crash.node)
        step.metrics.add_recovery(bytes_moved)
        step.metrics.add_rollback(completed - restored)
        step.owner_moved()
        if self.recorder.enabled:
            self.recorder.emit(
                trace_events.ROLLBACK,
                from_superstep=completed,
                to_superstep=restored,
            )
            if self.enable_rr:
                self.recorder.emit(
                    trace_events.GUIDANCE_REUSED, superstep=restored
                )
        return checkpoint.scalars["iteration"]

    def _make_dispatch(self, run_graph: Graph, app):
        """The phase-dispatch object both run loops drive.

        Serial gets the in-process :class:`SerialDispatch`; parallel
        gets the persistent :class:`ParallelExecutor` worker pool.  Both
        are built per run (after ``app.prepare``/``app.bind``) so the
        scratch arrays cover the run graph and the shipped application
        is the exact object whose edge hooks the serial path would call.

        Worker faults from the run's fault plan are armed on the pool
        (delivered as real signals at their superstep/phase coordinate);
        on the serial backend they are infeasible and are traced once,
        up front, with ``applied: false``.
        """
        worker_faults = (
            self.fault_plan.worker_faults if self.fault_plan else ()
        )
        if self.backend == "parallel":
            from repro.parallel import ParallelExecutor

            dispatch = ParallelExecutor(
                run_graph,
                app,
                self.num_workers,
                recorder=self.recorder,
                worker_faults=worker_faults,
            )
            return self._attach_live_plane(dispatch)
        if worker_faults and self.recorder.enabled:
            for fault in worker_faults:
                self.recorder.emit(
                    trace_events.FAULT,
                    kind="worker-%s" % fault.kind,
                    superstep=fault.superstep,
                    phase=fault.phase,
                    worker=fault.worker,
                    applied=False,
                    reason="%s backend has no pool workers" % self.backend,
                )
        if self.backend == "ooc":
            from repro.ooc import ShardStreamDispatch

            return self._attach_live_plane(
                ShardStreamDispatch(run_graph, app, recorder=self.recorder)
            )
        return self._attach_live_plane(SerialDispatch(run_graph, app))

    @staticmethod
    def _attach_live_plane(dispatch):
        """Hand the dispatch to the configured live telemetry plane.

        The plane (``repro.obs.live``) samples the dispatch's shared
        telemetry segment from a parent thread — a pure observer: it
        never writes execution state, so results are bit-identical with
        the plane installed or not.
        """
        plane = current().live_plane
        if plane is not None:
            plane.attach_dispatch(dispatch)
        return dispatch

    def _emit_dispatch(self, dispatch, stats, kind: str) -> None:
        """Trace one parallel phase: per-worker stats + the IPC receipt.

        One ``parallel_worker`` event per worker plus one
        ``parallel_dispatch`` event carrying the pipe-message count for
        the phase — the trace's evidence that a superstep crosses the
        parent<->worker boundary O(1) times per phase.  Emitted inside
        the owning phase span, so the events land in the current
        superstep and ``repro report`` can show measured intra-node
        balance next to the simulated makespans.  Serial dispatches
        emit nothing (no workers, no IPC).
        """
        rec = self.recorder
        if not rec.enabled:
            return
        for entry in stats:
            rec.emit(
                trace_events.PARALLEL_WORKER,
                worker=int(entry["worker"]),
                kind=kind,
                busy_seconds=float(entry["busy_seconds"]),
                chunks=int(entry["chunks"]),
                steals=int(entry["steals"]),
                tasks=int(entry["tasks"]),
                edges=int(entry["edges"]),
            )
        info = dispatch.last_dispatch
        if info is not None:
            rec.emit(
                trace_events.PARALLEL_DISPATCH,
                kind=kind,
                phase=str(info["phase"]),
                epoch=int(info["epoch"]),
                blocks=int(info["blocks"]),
                messages=int(info["messages"]),
                control_bytes=int(info["control_bytes"]),
            )

    def _open_run(
        self,
        run_graph: Graph,
        dispatch,
        roots: Optional[np.ndarray],
        guidance: Optional[RRGuidance],
        initial: np.ndarray,
    ) -> Tuple[SimulatedCluster, MetricsCollector, Optional[RRGuidance]]:
        """Cluster, metrics and guidance for one run; seeds the values.

        ``roots`` None means the run takes no guidance at all (the async
        schedulers that never consult it).
        """
        rec = self.recorder
        cluster = self._make_cluster(run_graph)
        metrics = cluster.new_metrics()
        if roots is not None:
            guidance = self._guidance_for(run_graph, roots, guidance)
            if guidance is not None:
                metrics.preprocessing_ops = guidance.edge_ops
        else:
            guidance = None
        if rec.enabled:
            # Emitted even without guidance (edge_ops=0) so engines with
            # RR off share the exact event vocabulary of SLFE.
            rec.emit(
                trace_events.PREPROCESSING,
                edge_ops=int(guidance.edge_ops) if guidance is not None else 0,
            )
        # The vertex values live in the dispatch's scratch array for the
        # whole run (shared memory on the parallel backend, so workers
        # never need a values copy per superstep); the engine mutates it
        # strictly in place and detaches a caller-owned copy at the end.
        dispatch.values[...] = initial
        return cluster, metrics, guidance

    @staticmethod
    def _result(
        dispatch, metrics, iterations, run_graph, guidance, converged=True,
        per_vertex_ops=None,
    ) -> RunResult:
        return RunResult(
            values=dispatch.detach_values(), metrics=metrics,
            iterations=iterations, graph=run_graph, guidance=guidance,
            converged=converged, per_vertex_ops=per_vertex_ops,
            degraded=dispatch.degraded,
        )

    def _drive(self, step) -> RunResult:
        """Algorithm 2's superstep loop, for either kind of Ruler.

        The driver owns what both families share: the superstep clock,
        crash rollback, stragglers, sync and message loss, migration,
        the checkpoints and the result.  ``step`` — a
        :class:`_StartLate` or a :class:`_FinishEarly` — owns its
        computation state and the superstep itself.
        """
        rec = self.recorder
        rebalancer = self.rebalancer
        dispatch, cluster, metrics = step.dispatch, step.cluster, step.metrics
        # A non-empty fault plan always gets a checkpoint store — even
        # with ``checkpoint_every == 0`` a crash needs the superstep-0
        # snapshot as its rollback floor.
        injector = store = None
        if self.fault_plan:
            injector = FaultInjector(self.fault_plan, cluster, metrics, rec)
        if injector is not None or self.checkpoint_every > 0:
            store = CheckpointStore(
                interval=self.checkpoint_every, recorder=rec
            )
        per_vertex_ops = [] if self.record_per_vertex_ops else None
        owner = cluster.owner
        more, choose, run_step, commit = (
            step.more, step.mode, step.step, step.commit
        )
        iteration = 0

        def _snapshot() -> None:
            arrays, scalars = step.state()
            arrays["owner"] = owner
            scalars["iteration"] = iteration
            checkpoint = store.take(iteration, arrays, scalars=scalars)
            metrics.add_checkpoint(checkpoint.nbytes)

        if store is not None:
            _snapshot()  # superstep-0 floor every rollback can reach

        while more(iteration):
            iteration += 1
            dispatch.begin_superstep(iteration)
            if injector is not None:
                crash = injector.crash_at(iteration)
                if crash is not None:
                    iteration = self._handle_crash(
                        crash, step, store, iteration - 1
                    )
                    continue
            mode = choose()
            if mode is None:
                # Every vertex is early-converged: this superstep never
                # runs, so it is not counted.
                iteration -= 1
                break
            metrics.begin_iteration(mode)
            if injector is not None:
                slowdown = injector.slowdown_at(iteration)
                if slowdown is not None:
                    metrics.set_node_slowdown(slowdown)
            changed, updates, (ids, ops), active, skipped = run_step(
                iteration, mode
            )
            if per_vertex_ops is not None:
                per_vertex_ops.append((ids, ops.astype(np.int64)))
            with rec.phase("sync"):
                with rec.phase("coalesce"):
                    msg_count, msg_bytes = cluster.messages_for_changed(
                        changed
                    )
                metrics.add_messages(msg_count, msg_bytes)
                if injector is not None:
                    injector.apply_message_loss(iteration, changed)
            metrics.add_updates(updates)
            if rebalancer is not None:
                dense_ops = np.zeros(step.n)
                dense_ops[ids] = ops
                rebalancer.observe(dense_ops)
                if rebalancer.should_check(iteration):
                    event = rebalancer.apply(cluster, iteration)
                    if event is not None:
                        metrics.add_messages(1, event.bytes_moved)
                        step.owner_moved()
            metrics.set_frontier(active=active, skipped=skipped)
            metrics.end_iteration()
            done = commit(changed)
            if store is not None and store.due(iteration):
                _snapshot()
            if done:
                break

        return self._result(
            dispatch, metrics, iteration, step.run_graph, step.guidance,
            step.converged, per_vertex_ops,
        )

    # ------------------------------------------------------------------
    # min/max aggregation (start late)
    # ------------------------------------------------------------------
    def run_minmax(
        self,
        app: MinMaxApplication,
        root: Optional[int] = None,
        max_iterations: Optional[int] = None,
        guidance: Optional[RRGuidance] = None,
    ) -> RunResult:
        """Run a comparison-aggregation application to its fixpoint."""
        run_graph = app.prepare(self.graph)
        dispatch = self._make_dispatch(run_graph, app)
        try:
            return self._run_minmax(
                app, run_graph, dispatch, root, max_iterations, guidance
            )
        finally:
            dispatch.close()

    def _run_minmax(
        self, app, run_graph, dispatch, root, max_iterations, guidance
    ) -> RunResult:
        opened = self._open_run(
            run_graph, dispatch, app.guidance_roots(run_graph, root),
            guidance, app.initial_values(run_graph, root),
        )
        return self._drive(_StartLate(
            self, app, run_graph, dispatch, *opened,
            app.initial_frontier(run_graph, root),
            max_iterations or self._default_iteration_cap(run_graph),
        ))

    # ------------------------------------------------------------------
    # arithmetic aggregation (finish early)
    # ------------------------------------------------------------------
    def run_arithmetic(
        self,
        app: ArithmeticApplication,
        max_iterations: Optional[int] = None,
        tolerance: Optional[float] = None,
        guidance: Optional[RRGuidance] = None,
    ) -> RunResult:
        """Iterate a sum-aggregation application to convergence.

        Always pull mode (the paper, after SPARK-3427: arithmetic apps
        recompute every vertex, so active tracking does not pay off —
        except for the EC vertices finish-early removes).
        """
        run_graph = self.graph
        # Bound before the dispatch is built so workers receive the app
        # with its per-vertex constants already materialised.
        app.bind(run_graph)
        dispatch = self._make_dispatch(run_graph, app)
        try:
            return self._run_arithmetic(
                app, run_graph, dispatch, max_iterations, tolerance,
                guidance
            )
        finally:
            dispatch.close()

    def _run_arithmetic(
        self, app, run_graph, dispatch, max_iterations, tolerance, guidance
    ) -> RunResult:
        opened = self._open_run(
            run_graph, dispatch, default_roots(run_graph), guidance,
            app.initial_values(run_graph),
        )
        return self._drive(_FinishEarly(
            self, app, run_graph, dispatch, *opened,
            max_iterations or app.default_max_iterations,
            app.default_tolerance if tolerance is None else tolerance,
        ))


class _Step:
    """What both step objects read: the run's sinks and vertex arrays.

    A step object is one family's superstep under the driver
    (:meth:`SLFEEngine._drive`): ``state``/``restore`` for checkpoints,
    ``more(iteration)`` before each superstep, ``mode()`` (None: every
    vertex is EC), ``step(iteration, mode) -> (changed, updates,
    (ids, ops), active, skipped)``, ``commit(changed) -> done``, and
    ``owner_moved()`` after a takeover or a migration.
    """

    #: a run that ends without ``done`` is at its fixpoint
    converged = True

    def __init__(
        self, engine, app, run_graph, dispatch, cluster, metrics, guidance
    ) -> None:
        self.app, self.run_graph, self.guidance = app, run_graph, guidance
        self.dispatch, self.cluster, self.metrics = dispatch, cluster, metrics
        self.rec = engine.recorder
        self.emit_dispatch = engine._emit_dispatch
        self.n = run_graph.num_vertices
        self.owner, self.num_nodes = cluster.owner, cluster.num_nodes
        self.values = dispatch.values
        # Per-vertex degrees come off the dispatch: on the out-of-core
        # backend they are derived from the resident indptr arrays and
        # the engine never touches an edge array directly.
        self.in_deg = dispatch.in_degrees
        self.last_iter = guidance.last_iter if guidance is not None else None
        self.max_last_iter = (
            guidance.max_last_iter if guidance is not None else 0
        )

    def owner_moved(self) -> None:
        """Nothing cached: every superstep reads ``owner`` afresh."""


#: ``(ids, ops)`` of a push superstep whose op counts nobody reads.
_NO_OPS = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


class _StartLate(_Step):
    """One Ruler (start late): the min/max family's superstep.

    Owns the direction policy, the pull (touched side, catch-ups,
    frontier-side pull) and the push, plus the ``RR_SKIP`` /
    ``CATCH_UP`` events.  Checkpointed state: ``values``, ``frontier``,
    ``started`` (and ``missed`` with RR on), ``last_mode`` and
    ``entered_pull``.
    """

    def __init__(self, engine, app, run_graph, dispatch, cluster, metrics,
                 guidance, initial_frontier, cap) -> None:
        super().__init__(
            engine, app, run_graph, dispatch, cluster, metrics, guidance
        )
        n = self.n
        self.dense_denominator = engine.dense_denominator
        # Push op counts are only worth building when someone reads them.
        self.want_ops = (
            engine.record_per_vertex_ops or engine.rebalancer is not None
        )
        self.cap = cap
        self.num_edges = run_graph.num_edges
        self.frontier = Frontier(n, initial_frontier)
        self.out_deg = dispatch.out_degrees
        self.has_in = has_in = self.in_deg > 0
        # "Start late" bookkeeping: a delayed destination performs one
        # catch-up full gather when the Ruler reaches its level
        # (collecting from *all* sources, the paper's correctness rule);
        # before that it is not processed at all.  Without RR everything
        # is started from the beginning.
        if self.last_iter is not None:
            self.started = ~has_in | (self.last_iter <= 0)
            # A delayed destination only owes a catch-up gather if an
            # update actually passed it by while it was skipped; pushes
            # write delayed destinations directly and leave no debt.
            self.missed = np.zeros(n, dtype=bool)
        else:
            self.started = np.ones(n, dtype=bool)
            self.missed = None
        # Counts of the two masks, moved where the masks move (pull
        # supersteps, a full push, a rollback) so that no superstep
        # scans |V| to learn them.  ``debt`` is the number of skipped
        # destinations owing a catch-up pull: |missed & ~started|, and
        # ``missed`` only ever holds unstarted vertices.
        self.debt = 0
        self.pending = n - int(np.count_nonzero(self.started))
        self.last_mode = None
        self.entered_pull = False

    def state(self):
        arrays = {"values": self.values, "frontier": self.frontier.mask,
                  "started": self.started}
        if self.missed is not None:
            arrays["missed"] = self.missed
        return arrays, {"last_mode": self.last_mode,
                        "entered_pull": self.entered_pull}

    def restore(self, arrays, scalars) -> None:
        self.values[:] = arrays["values"]
        self.frontier.replace_with(np.flatnonzero(arrays["frontier"]))
        self.started[:] = arrays["started"]
        self.pending = self.n - int(np.count_nonzero(self.started))
        if self.missed is not None:
            self.missed[:] = arrays["missed"]
            self.debt = int(np.count_nonzero(self.missed))
        self.last_mode = scalars["last_mode"]
        self.entered_pull = scalars["entered_pull"]

    def more(self, iteration: int) -> bool:
        # The run goes on until no vertex is active AND every delayed
        # vertex that was passed by an update has had its catch-up pull.
        if not (self.frontier or self.debt):
            return False
        if iteration >= self.cap:
            raise ConvergenceError(
                "%s did not settle within %d iterations"
                % (self.app.name, self.cap)
            )
        return True

    def mode(self) -> str:
        frontier, debt = self.frontier, self.debt
        self.active_edges = active_edges = frontier.out_edge_count(
            self.out_deg
        )
        mode = choose_mode(active_edges, self.num_edges, self.dense_denominator)
        if not frontier:
            mode = PULL  # only delayed first pulls remain
        if self.entered_pull and debt:
            # RR-aware direction policy (the paper's Section 3.3
            # phase structure: push kicks off execution, pull does
            # the dense bulk, push finishes the tail).  The initial
            # push phase eagerly seeds values everywhere — including
            # delayed destinations, which push never skips — so the
            # catch-up gathers later refine warm values instead of
            # infinities.  Once dense, we stay in pull until every
            # delayed destination has started: a pull-to-push
            # transition before that would force Algorithm 3's
            # all-vertex re-delivery (an O(E) push).
            mode = PULL
        if mode == PULL:
            self.entered_pull = True
        if mode == PUSH and self.last_mode == PULL and debt:
            # Algorithm 3 lines 2-4: while any destination is still
            # delayed, a switch to push must re-deliver every value
            # once, or updates hidden from skipped pulls are lost.
            # (Unreachable under the direction policy above; kept as
            # the correctness guard the paper specifies.)
            frontier.activate_all()
        return mode

    def step(self, iteration: int, mode: str):
        rec, app, dispatch = self.rec, self.app, self.dispatch
        frontier, values, started = self.frontier, self.values, self.started
        last_iter = self.last_iter
        ruler = iteration
        if mode == PULL:
            # Dense mode processes the destinations the frontier
            # touches; each processed destination runs the paper's
            # pullFunc, recomputing over ALL of its in-edges.
            # "Start late" adds two rules: a touched destination
            # that is still delayed is skipped outright, and a
            # destination crossing its guidance level performs one
            # catch-up gather even if nothing is active (it must
            # collect updates it slept through).  Below |E| / 2 the
            # frontier's push finds the touched set, and its
            # candidates may stand in for the pull.
            has_in, in_deg = self.has_in, self.in_deg
            pushed = None
            if self.active_edges > _IDLE_SIDE * self.num_edges:
                touched = _touched(dispatch, frontier, has_in)
            else:
                touched = np.zeros(self.n, dtype=bool)
                if frontier:
                    pushed = dispatch.push(frontier.ids)
                    self.emit_dispatch(dispatch, pushed[3], "push")
                    touched[pushed[0]] = True
            pulled = touched & started & has_in  # before ``newly``
            catch_up_ids = np.empty(0, dtype=np.int64)
            caught_up = 0
            if last_iter is not None:
                missed = self.missed
                newly = (~started) & (last_iter <= ruler) & has_in
                catch_ups = newly & (missed | touched)
                processed = pulled | catch_ups
                catch_up_ids = np.flatnonzero(catch_ups)
                caught_up = catch_up_ids.size
                started |= newly
                self.pending -= int(np.count_nonzero(newly))
                missed[newly] = False
                # Updates passing delayed destinations this superstep
                # are owed a catch-up gather at their start level.
                missed |= touched & ~started
                self.debt = int(np.count_nonzero(missed))
            else:
                processed = pulled
            proc_ids = np.nonzero(processed)[0]
            step_ops = (proc_ids, in_deg[proc_ids])
            with rec.phase("gather"):
                if proc_ids.size:
                    # Fused pull+apply kernel: the dispatch computes
                    # each destination's reduction AND its
                    # improvement mask (identical to the old
                    # full-array ``app.better`` — the identity never
                    # beats an incumbent, so unprocessed entries
                    # were always false).  Either side, the edge
                    # ops are every processed in-edge (modeled).
                    if pushed is not None and _frontier_is_cheaper(
                        dispatch, pulled, pushed[0].size
                    ):
                        stats = _pull_from_frontier(
                            app, dispatch, pushed, pulled, catch_up_ids
                        )
                    else:
                        stats = dispatch.pull_apply(
                            proc_ids, app.aggregation
                        )
                    if stats is not None:
                        self.emit_dispatch(dispatch, stats, "pull")
                    self.metrics.add_edge_ops(
                        np.bincount(
                            self.owner[proc_ids],
                            weights=step_ops[1],
                            minlength=self.num_nodes,
                        ).astype(np.int64)
                    )
            with rec.phase("apply"):
                if proc_ids.size:
                    changed = np.nonzero(dispatch.improved)[0]
                    values[changed] = dispatch.result[changed]
                else:
                    changed = np.empty(0, dtype=np.int64)
            update_count = changed.size
            # Redundancy actually avoided: touched but still delayed.
            skipped = int(np.count_nonzero(touched & ~started & has_in))
        else:  # PUSH
            caught_up = 0
            step_ops = _NO_OPS
            # Push applies per edge (atomic CAS semantics), which is
            # order-sensitive, so the parent keeps the reduce; the
            # dispatch only expands candidates, at serial offsets.
            with rec.phase("scatter"):
                ids = frontier.ids
                dsts, candidates, out_counts, stats = dispatch.push(ids)
                self.emit_dispatch(dispatch, stats, "push")
                if dsts.size:
                    self.metrics.add_edge_ops(
                        np.bincount(
                            self.owner[ids],
                            weights=out_counts,
                            minlength=self.num_nodes,
                        ).astype(np.int64)
                    )
                    if self.want_ops:
                        # frontier.ids is sorted and unique, so the
                        # nonzero-out-degree filter reproduces
                        # np.unique(srcs, return_counts=True) of the
                        # expanded edge list exactly.
                        keep = out_counts > 0
                        step_ops = (ids[keep], out_counts[keep])
                # One destination sort yields the exact min/max per
                # destination, the destinations it improves and the
                # per-edge CAS writes — Table 2's redundancy signal.
                update_count, changed, new_values = segmented_improvements(
                    dsts, candidates, values, app.aggregation
                )
            with rec.phase("apply"):
                values[changed] = new_values
            skipped = 0
            if frontier.count == self.n and self.missed is not None:
                # A full (transition) push delivered every value to
                # every successor: all catch-up debts are settled.
                self.missed[:] = False
                self.debt = 0
        self.last_mode = mode

        if rec.enabled:
            # "Start late" visibility: both events are emitted every
            # superstep (zero counts without RR) so all engines built
            # on this loop share one event vocabulary.  The payload
            # carries the observability layer's RR attribution: how
            # many edge operations the skips avoided, bucketed by
            # guidance depth, plus the Ruler's progression toward
            # the deepest lastIter level.  All of it is derived from
            # reads only — results are bit-identical with tracing
            # off, and the work happens only on traced runs.
            skip_payload = {
                "skipped": int(skipped),
                "debts": self.debt,
                "ruler": int(ruler),
                "max_last_iter": int(self.max_last_iter),
                "skipped_edge_ops": 0,
                "pending": self.pending,
            }
            if mode == PULL and skipped:
                skipped_ids = np.nonzero(touched & ~started & has_in)[0]
                skipped_ops = in_deg[skipped_ids].astype(np.int64)
                skip_payload["skipped_edge_ops"] = int(skipped_ops.sum())
                buckets = bucket_by_last_iter(
                    last_iter[skipped_ids], weights=skipped_ops
                )
                skip_payload["last_iter_buckets"] = {
                    label: int(total)
                    for label, total in zip(bucket_labels(), buckets)
                    if total
                }
            rec.emit(trace_events.RR_SKIP, **skip_payload)
            rec.emit(trace_events.CATCH_UP, started=caught_up)
        return changed, update_count, step_ops, frontier.count, skipped

    def commit(self, changed: np.ndarray) -> bool:
        # ``np.nonzero`` or ``segmented_improvements`` built ``changed``:
        # strictly ascending and in range, so it needs none of
        # ``Frontier.replace_with``'s checks and is adopted as is.
        self.frontier.ids = changed
        return False


class _FinishEarly(_Step):
    """Per-vertex Rulers (finish early): the arithmetic family's superstep.

    Owns the live set, the gather/apply, the :class:`StabilityTracker`
    with its thaw, and the ``EC_TRANSITION`` event.  Checkpointed
    state: ``values`` plus, with RR on, the tracker's ``stable_count``
    and ``ec``.

    "Did v change?" is decided here alone: one ``delta = |new -
    values|`` per superstep (exactly 0 on EC vertices, whose old values
    are copied back) feeds the convergence test, and ``~(delta <=
    epsilon)`` (NaN counts as moved) is the update set, the thaw's
    input and RulerS's count.  Under RR superstep 1 — also when a
    rollback to the superstep-0 floor replays it — reports every vertex
    as changed (first sight).  ``app.apply`` may return ``result``
    itself (SpMV, TunkRank); the step writes into it, as nothing reads
    it before the next gather.
    """

    converged = False

    def __init__(self, engine, app, run_graph, dispatch, cluster, metrics,
                 guidance, max_iterations, tolerance) -> None:
        super().__init__(
            engine, app, run_graph, dispatch, cluster, metrics, guidance
        )
        self.stability_epsilon = engine.stability_epsilon
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.tracker = tracker = (
            StabilityTracker(self.last_iter, engine.min_stable_rounds)
            if guidance is not None
            else None
        )
        # While no vertex is EC (always, with RR off) every superstep
        # gathers every vertex, so the task list and its in-degrees are
        # loop invariants; they are re-derived only when the EC set
        # moves (a freeze, a thaw, a rollback), and the per-node (edge,
        # vertex) op counts only then or when ownership moves.
        self.all_vertices = np.arange(self.n, dtype=np.int64)
        self.live_mask, self.live = None, self.all_vertices
        self.counts = self.in_deg
        # The EC vertices' in-edges (the gather work they skip, traced
        # by EC_TRANSITION) move with the live set.
        self.total_in_edges = int(self.in_deg.sum())
        self.ec_skipped_ops = 0
        self.live_version = tracker.ec_version if tracker is not None else 0
        self.node_ops = None

    def state(self):
        arrays = {"values": self.values}
        if self.tracker is not None:
            arrays.update(self.tracker.state_arrays())
        return arrays, {}

    def restore(self, arrays, scalars) -> None:
        self.values[...] = arrays["values"]
        if self.tracker is not None:
            self.tracker.restore_state(arrays["stable_count"], arrays["ec"])

    def owner_moved(self) -> None:
        self.node_ops = None

    def more(self, iteration: int) -> bool:
        return iteration < self.max_iterations

    def mode(self) -> Optional[str]:
        tracker = self.tracker
        if tracker is not None and tracker.ec_version != self.live_version:
            self.live_version = tracker.ec_version
            if tracker.num_ec:
                self.live_mask = tracker.active_mask()
                self.live = np.nonzero(self.live_mask)[0]
                self.counts = self.in_deg[self.live]
            else:
                self.live_mask, self.live = None, self.all_vertices
                self.counts = self.in_deg
            self.ec_skipped_ops = self.total_in_edges - int(self.counts.sum())
            self.node_ops = None
        live = self.live
        if live.size == 0:
            self.converged = True
            return None
        if self.node_ops is None:
            # Weighted owner bincount == bincount over the expanded
            # per-edge rows (each live vertex repeats by its
            # in-degree), without materialising them.
            owners, nodes = self.owner[live], self.num_nodes
            self.node_ops = (
                np.bincount(owners, weights=self.counts, minlength=nodes)
                .astype(np.int64),
                np.bincount(owners, minlength=nodes),
            )
        return PULL

    def step(self, iteration: int, mode: str):
        rec, dispatch, metrics = self.rec, self.dispatch, self.metrics
        values, tracker, n = self.values, self.tracker, self.n
        live, node_ops = self.live, self.node_ops
        with rec.phase("gather"):
            # Fused gather+reduce kernel: the dispatch zeroes its
            # result array and fills per-destination contribution
            # sums in one pass (the compiled in-order row sum, the
            # same kernel on every backend).
            stats = dispatch.gather(live)
            self.emit_dispatch(dispatch, stats, "gather")
            if node_ops[0].any():
                metrics.add_edge_ops(node_ops[0])
        with rec.phase("apply"):
            new_values = self.app.apply(dispatch.result, values)
            if self.live_mask is not None:
                np.copyto(new_values, values, where=tracker.ec_mask)
            metrics.add_vertex_ops(node_ops[1])

        delta = np.abs(new_values - values)
        changed_mask = ~(delta <= self.stability_epsilon)
        if tracker is not None:
            if iteration == 1:
                changed_mask[...] = True  # first sight of every value
            changed_mask = tracker.observe(changed_mask)
            changed = np.flatnonzero(changed_mask)
            _thaw_moved_inputs(tracker, dispatch, changed_mask, changed)
        else:
            changed = np.flatnonzero(changed_mask)
        if rec.enabled:
            # "Finish early" visibility: emitted every superstep
            # (zero frozen without RR) for vocabulary parity.  EC
            # vertices drop out of the gather entirely, so the
            # edge operations their in-degrees represent are the
            # work this superstep never performed — the registry's
            # counterfactual input, mirroring RR_SKIP's
            # ``skipped_edge_ops`` on the start-late side.  RulerS
            # progression: how far the multi-ruler has advanced
            # toward the deepest per-vertex stability threshold.
            live_after = n - tracker.num_ec if tracker is not None else n
            rec.emit(
                trace_events.EC_TRANSITION,
                frozen=max(0, int(live.size) - live_after),
                live=live_after,
                total=int(n),
                skipped_edge_ops=self.ec_skipped_ops,
                ruler=int(iteration),
                max_last_iter=int(self.max_last_iter),
            )
        self.new_values, self.delta = new_values, delta
        return (changed, changed.size, (live, self.counts), live.size,
                n - live.size)

    def commit(self, changed: np.ndarray) -> bool:
        self.values[...] = self.new_values
        if float(self.delta.max()) < self.tolerance:
            self.converged = True
        return self.converged


def _thaw_moved_inputs(
    tracker: StabilityTracker,
    dispatch,
    changed_mask: np.ndarray,
    changed: np.ndarray,
) -> int:
    """"Finish early" soundness; returns how many vertices it thawed.

    A frozen vertex whose in-neighbour just moved would gather a
    different value, so its freeze was premature (guidance can
    underestimate information flow through cycles).  Thaw it; EC then
    only skips vertices with quiescent inputs and results match the
    reference.

    The edges in question run from ``changed`` to the frozen set, and
    either end finds them: expand whichever side reads less, ranked by
    ``(shards it must decode, edges)`` — Gemini's push/pull choice
    applied to the thaw.  In memory nothing is decoded and the edge
    counts decide; out of core the in-shards the gather just held win
    over out-shards that would evict them.
    """
    frozen = np.nonzero(tracker.ec_mask)[0]
    if changed.size == 0 or frozen.size == 0:
        return 0
    pull = (dispatch.shard_decodes("in", frozen),
            dispatch.in_degrees[frozen].sum())
    push = (dispatch.shard_decodes("out", changed),
            dispatch.out_degrees[changed].sum())
    if pull < push:
        return _thaw_from_frozen(tracker, dispatch, frozen, changed_mask)
    return _thaw_from_changed(tracker, dispatch, changed)


#: The touched set is read from the idle side once the frontier's
#: out-edges exceed this fraction of |E| (the idle side then has fewer).
_IDLE_SIDE = 0.5


def _touched(
    dispatch, frontier: Frontier, has_in: np.ndarray
) -> np.ndarray:
    """Destinations with an in-edge from ``frontier``, read from the
    idle side — the frontier's out-edges are past |E| / 2.

    Count the idle vertices' out-edges per destination: ``v`` is
    untouched exactly when every one of its in-edges starts at an idle
    vertex, so ``idle count < in-degree`` is the mask a scatter of the
    frontier's out-edges would give (self-loops and duplicate edges are
    counted once on both sides).  A full frontier has no idle vertex:
    every destination with an in-edge is touched, and nothing is
    expanded.
    """
    n = frontier.num_vertices
    if frontier.count == n:
        return has_in
    idle = np.flatnonzero(~frontier.mask)
    from_idle = np.bincount(dispatch.expand_out_dsts(idle), minlength=n)
    return from_idle < dispatch.in_degrees


def _frontier_is_cheaper(dispatch, pulled: np.ndarray, pushed: int) -> bool:
    """The ``pulled`` destinations' in-edges cost more to read than the
    ``pushed`` out-edges the frontier's push already read, ranked by
    ``(shards to decode, edges)`` like the EC thaw."""
    ids = np.flatnonzero(pulled)
    return (dispatch.shard_decodes("in", ids),
            dispatch.in_degrees[ids].sum()) > (0, pushed)


def _pull_from_frontier(app, dispatch, pushed, pulled, catch_up_ids):
    """``result``/``improved`` of a pull superstep from the frontier's
    ``pushed`` candidates; catch-ups keep the full gather, and their
    pull stats are returned (``None``: no catch-ups).  Exact for the
    ``pulled`` destinations: none is beaten from outside the frontier
    (DESIGN.md §5, "Pull from the cheaper side")."""
    stats = None
    if catch_up_ids.size:
        stats = dispatch.pull_apply(catch_up_ids, app.aggregation)
    else:
        dispatch.improved[...] = False
    dsts, candidates = pushed[0], pushed[1]
    # One gather tests both: outside ``pulled``, a bar nothing beats.
    bar = np.where(pulled, dispatch.values, -app.identity)
    keep = np.flatnonzero(app.better(candidates, bar[dsts]))
    dsts = dsts[keep]
    dispatch.result[dsts] = app.identity
    reduce = np.minimum if app.aggregation == "min" else np.maximum
    reduce.at(dispatch.result, dsts, candidates[keep])
    dispatch.improved[dsts] = True
    return stats


def _thaw_from_changed(
    tracker: StabilityTracker, dispatch, changed: np.ndarray
) -> int:
    """Push side: thaw the frozen out-neighbours of ``changed``."""
    return tracker.thaw(dispatch.expand_out_dsts(changed))


def _thaw_from_frozen(
    tracker: StabilityTracker,
    dispatch,
    frozen: np.ndarray,
    changed_mask: np.ndarray,
) -> int:
    """Pull side: thaw the ``frozen`` vertices with a changed in-neighbour."""
    moved = changed_mask[dispatch.expand_in_srcs(frozen)]
    return tracker.thaw(np.repeat(frozen, dispatch.in_degrees[frozen])[moved])
