"""Asynchronous delta-accumulative execution (Maiter-style).

:class:`AsyncPolicy` replaces the BSP superstep clock with *rounds*
over a :class:`~repro.core.frontier.PendingSet`: each round schedules a
batch of vertices with pending work, applies/propagates their deltas,
and activates the destinations the deltas reached.  No barrier ever
forms — fresh neighbour state propagates as soon as its vertex is
scheduled, which is the redundancy argument of Maiter ("delta-based
accumulative iterative computation") and "Fast Iterative Graph
Computing with Updated Neighbor States": BSP recomputes every vertex
from whole-superstep-old inputs, async only moves the information that
actually changed.

Two application families run under the policy:

* **min/max relaxation** (SSSP, CC, WP, ...) is natively accumulative:
  the policy schedules changed vertices, relaxes their out-edges
  against the current values array, and re-activates improved
  destinations — chaotic relaxation, which reaches the unique monotone
  fixpoint in any scheduling order.
* **accumulative arithmetic** (PageRank) must declare the delta form
  explicitly (:attr:`~repro.apps.base.ArithmeticApplication.accumulative`
  plus ``delta_seed``/``delta_edge_contributions``): values start at
  the seed state and every applied delta propagates scaled deltas to
  out-neighbours; the pending-delta series telescopes to the BSP fixed
  point.  Apps without the declaration are rejected with a typed
  :class:`~repro.errors.EngineError`.

**Scheduling** is where redundancy reduction composes with async
execution.  Three deterministic schedulers order the pending set:

* ``fifo`` — activation order (batch sequence, then vertex id);
* ``delta`` — largest pending |delta| first (Maiter's priority rule);
* ``lastiter`` — the RR-composition experiment the paper never ran:
  the *start-late guidance* ``lastIter`` as scheduling priority.
  Vertices whose guidance level is low settle early in BSP order, so
  propagating them first ships information that is already final;
  high-``lastIter`` vertices keep receiving updates late, so touching
  them early is redundant.  Ties break by pending magnitude, then id.

**Termination** has no barrier to hang a convergence test on, so the
policy uses a global signal: arithmetic runs stop when the total
pending delta mass falls under the tolerance; min/max runs stop when
the pending set drains.  A :class:`~repro.core.state.ProgressMonitor`
enforces the progress-monotone property (every window of rounds must
reach a new mass low or make an update) and a generous round cap backs
it up.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.apps.base import ArithmeticApplication, MinMaxApplication
from repro.cluster.metrics import ASYNC
from repro.core.accounting import segmented_improvements
from repro.core.engine import RunResult, SLFEEngine
from repro.core.frontier import PendingSet
from repro.core.policy import ExecutionPolicy
from repro.core.rrg import RRGuidance
from repro.core.state import ProgressMonitor
from repro.errors import ConvergenceError, EngineError
from repro.graph.graph import Graph
from repro.trace import recorder as trace_events

__all__ = ["AsyncEngine", "AsyncPolicy", "SCHEDULERS"]

#: The deterministic scheduling disciplines the async engine offers.
SCHEDULERS = ("fifo", "delta", "lastiter")

#: Cushion on the BSP iteration caps: one async round touches a batch,
#: not the whole graph, so legitimate runs need many more rounds.
ROUND_CAP_FACTOR = 50


class AsyncPolicy(ExecutionPolicy):
    """Delta-accumulative rounds over a pending-vertex priority queue.

    Parameters
    ----------
    scheduler:
        One of :data:`SCHEDULERS` (default ``"delta"``).
    batch_fraction:
        Fraction of the pending set scheduled per round (the rest is
        deferred — the asynchrony; scheduling everything every round
        would be Jacobi iteration with extra steps).
    min_batch:
        Floor on the per-round batch so tiny pending sets drain in one
        round instead of dribbling.
    progress_window:
        Rounds without a pending-mass low or an update before the
        :class:`~repro.core.state.ProgressMonitor` declares a stall.
    """

    name = "async"

    def __init__(
        self,
        scheduler: str = "delta",
        batch_fraction: float = 0.25,
        min_batch: int = 64,
        progress_window: int = 200,
    ) -> None:
        if scheduler not in SCHEDULERS:
            raise EngineError(
                "unknown async scheduler %r (choose from %s)"
                % (scheduler, ", ".join(SCHEDULERS))
            )
        if not 0.0 < batch_fraction <= 1.0:
            raise EngineError("batch_fraction must be in (0, 1]")
        if min_batch < 1:
            raise EngineError("min_batch must be >= 1")
        self.scheduler = scheduler
        self.batch_fraction = batch_fraction
        self.min_batch = min_batch
        self.progress_window = progress_window

    # ------------------------------------------------------------------
    # shared round plumbing
    # ------------------------------------------------------------------
    def _reject_faults(self, engine) -> None:
        if engine.fault_plan:
            raise EngineError(
                "the async engine has no superstep clock to anchor fault "
                "injection or checkpoints on — run fault experiments on "
                "the BSP engines"
            )

    def _guidance(
        self,
        engine,
        run_graph: Graph,
        roots: np.ndarray,
        provided: Optional[RRGuidance],
        metrics,
    ) -> Optional[RRGuidance]:
        """Guidance for the ``lastiter`` scheduler (None otherwise).

        Async rounds never skip vertices by guidance (there is no Ruler
        to compare against), so generating guidance would be pure
        preprocessing waste for the other schedulers.
        """
        rec = engine.recorder
        if self.scheduler != "lastiter":
            if rec.enabled:
                rec.emit(trace_events.PREPROCESSING, edge_ops=0)
            return None
        if not engine.enable_rr:
            raise EngineError(
                "the lastiter scheduler orders vertices by RR guidance — "
                "construct the async engine with enable_rr=True"
            )
        guidance = engine._guidance_for(run_graph, roots, provided)
        metrics.preprocessing_ops = guidance.edge_ops
        if rec.enabled:
            rec.emit(
                trace_events.PREPROCESSING, edge_ops=int(guidance.edge_ops)
            )
        return guidance

    def _schedule(
        self, pending: PendingSet, last_iter: Optional[np.ndarray]
    ) -> np.ndarray:
        """The ids to process this round, in ascending-id order.

        The priority discipline decides *which* vertices make the
        batch; within the batch, edges are always expanded in id order
        so the numeric work is independent of the discipline's internal
        ordering (determinism across schedulers when the batch is the
        whole set).
        """
        ids = pending.ids
        if ids.size == 0:
            return ids
        batch = max(
            self.min_batch, int(np.ceil(ids.size * self.batch_fraction))
        )
        if batch >= ids.size:
            return ids
        magnitude = np.abs(pending.delta[ids])
        if self.scheduler == "fifo":
            order = np.lexsort((ids, pending.seq[ids]))
        elif self.scheduler == "delta":
            order = np.lexsort((ids, -magnitude))
        else:  # lastiter
            # Strict guidance priority starves: a low-lastIter cluster
            # can re-activate itself with ever-shrinking deltas forever
            # while the mass sits on never-scheduled high-lastIter
            # vertices.  Half the batch therefore goes to the oldest
            # pending vertices (FIFO aging, the PrIter escape hatch),
            # which bounds every vertex's wait and keeps the
            # lastIter-led discipline terminating.
            order = np.lexsort((ids, -magnitude, last_iter[ids]))
            lead = order[: (batch + 1) // 2]
            in_lead = np.zeros(ids.size, dtype=bool)
            in_lead[lead] = True
            fifo = np.lexsort((ids, pending.seq[ids]))
            rest = fifo[~in_lead[fifo]][: batch - lead.size]
            return np.sort(ids[np.concatenate([lead, rest])])
        return np.sort(ids[order[:batch]])

    def _emit_round(
        self,
        rec,
        round_index: int,
        scheduled: int,
        skipped: int,
        updates: int,
        mass: float,
    ) -> None:
        if rec.enabled:
            rec.emit(
                trace_events.ASYNC_ROUND,
                round=int(round_index),
                scheduled=int(scheduled),
                skipped=int(skipped),
                updates=int(updates),
                delta_mass=float(mass),
                scheduler=self.scheduler,
            )

    # ------------------------------------------------------------------
    # min/max relaxation (chaotic relaxation over the pending set)
    # ------------------------------------------------------------------
    def run_minmax(
        self,
        engine,
        app: MinMaxApplication,
        run_graph: Graph,
        dispatch,
        root: Optional[int],
        max_iterations: Optional[int],
        guidance: Optional[RRGuidance],
    ) -> RunResult:
        if not getattr(app, "accumulative", False):
            raise EngineError(
                "application %r does not declare accumulative semantics; "
                "the async engine cannot run it" % app.name
            )
        self._reject_faults(engine)
        n = run_graph.num_vertices
        rec = engine.recorder
        cluster = engine._make_cluster(run_graph)
        metrics = cluster.new_metrics()
        guidance = self._guidance(
            engine,
            run_graph,
            app.guidance_roots(run_graph, root),
            guidance,
            metrics,
        )
        last_iter = guidance.last_iter if guidance is not None else None

        values = dispatch.values
        values[...] = app.initial_values(run_graph, root).astype(np.float64)
        pending = PendingSet(n, kind="priority")
        seeds = np.asarray(
            app.initial_frontier(run_graph, root), dtype=np.int64
        )
        # Seeds outrank everything a round can produce: they are the
        # only vertices whose information exists nowhere else yet.
        pending.accumulate(seeds, np.full(seeds.size, np.inf))
        owner = cluster.owner
        monitor = ProgressMonitor(self.progress_window)
        cap = (
            max_iterations
            or engine._default_iteration_cap(run_graph) * ROUND_CAP_FACTOR
        )
        rounds = 0

        while pending:
            rounds += 1
            if rounds > cap:
                raise ConvergenceError(
                    "%s did not settle within %d async rounds"
                    % (app.name, cap)
                )
            dispatch.begin_superstep(rounds)
            scheduled = self._schedule(pending, last_iter)
            deferred = pending.count - scheduled.size
            pending.take(scheduled)
            metrics.begin_iteration(ASYNC)
            changed = np.empty(0, dtype=np.int64)
            with rec.phase("scatter"):
                dsts, candidates, out_counts, stats = dispatch.push(
                    scheduled
                )
                engine._emit_dispatch(dispatch, stats, "push")
                if dsts.size:
                    metrics.add_edge_ops(
                        np.bincount(
                            owner[scheduled],
                            weights=out_counts,
                            minlength=cluster.num_nodes,
                        ).astype(np.int64)
                    )
            if dsts.size:
                _, changed, new_values = segmented_improvements(
                    dsts, candidates, values, app.aggregation
                )
                with rec.phase("apply"):
                    if changed.size:
                        # Priority of a fresh improvement = how far the
                        # value moved (first touches move from the
                        # identity: infinite priority).
                        magnitude = np.abs(values[changed] - new_values)
                        values[changed] = new_values
                        pending.accumulate(changed, magnitude)
            with rec.phase("sync"):
                msg_count, msg_bytes = cluster.messages_for_changed(changed)
                metrics.add_messages(msg_count, msg_bytes)
            metrics.add_updates(changed.size)
            metrics.set_frontier(active=scheduled.size, skipped=deferred)
            mass = float(pending.count)
            self._emit_round(
                rec, rounds, scheduled.size, deferred, changed.size, mass
            )
            metrics.end_iteration()
            monitor.observe(mass, changed.size)

        return RunResult(
            values=dispatch.detach_values(),
            metrics=metrics,
            iterations=rounds,
            graph=run_graph,
            guidance=guidance,
            converged=True,
            degraded=dispatch.degraded,
        )

    # ------------------------------------------------------------------
    # accumulative arithmetic (Maiter delta propagation)
    # ------------------------------------------------------------------
    def run_arithmetic(
        self,
        engine,
        app: ArithmeticApplication,
        run_graph: Graph,
        dispatch,
        max_iterations: Optional[int],
        tolerance: Optional[float],
        guidance: Optional[RRGuidance],
    ) -> RunResult:
        if not getattr(app, "accumulative", False):
            raise EngineError(
                "application %r does not declare accumulative semantics "
                "(delta_seed/delta_edge_contributions); the async engine "
                "cannot run it — use the BSP engines" % app.name
            )
        self._reject_faults(engine)
        n = run_graph.num_vertices
        rec = engine.recorder
        cluster = engine._make_cluster(run_graph)
        metrics = cluster.new_metrics()
        from repro.core.engine import _arith_guidance_roots

        guidance = self._guidance(
            engine, run_graph, _arith_guidance_roots(run_graph), guidance,
            metrics,
        )
        last_iter = guidance.last_iter if guidance is not None else None

        values = dispatch.values
        values0, deltas0 = app.delta_seed(run_graph)
        values[...] = np.asarray(values0, dtype=np.float64)
        deltas0 = np.asarray(deltas0, dtype=np.float64)
        pending = PendingSet(n, kind="sum")
        seeds = np.nonzero(deltas0 != 0.0)[0]
        pending.accumulate(seeds, deltas0[seeds])

        tolerance = app.default_tolerance if tolerance is None else tolerance
        cap = (
            max_iterations or app.default_max_iterations
        ) * ROUND_CAP_FACTOR
        out_csr = run_graph.out_csr
        out_deg = out_csr.degrees()
        owner = cluster.owner
        applied = np.zeros(n, dtype=np.float64)
        monitor = ProgressMonitor(self.progress_window)
        rounds = 0

        while pending and pending.mass() > tolerance:
            rounds += 1
            if rounds > cap:
                raise ConvergenceError(
                    "%s pending delta mass did not fall under %g within "
                    "%d async rounds" % (app.name, tolerance, cap)
                )
            dispatch.begin_superstep(rounds)
            scheduled = self._schedule(pending, last_iter)
            deferred = pending.count - scheduled.size
            deltas = pending.take(scheduled)
            metrics.begin_iteration(ASYNC)
            changed = scheduled[deltas != 0.0]
            with rec.phase("apply"):
                values[scheduled] += deltas
                metrics.add_vertex_ops(
                    np.bincount(
                        owner[scheduled], minlength=cluster.num_nodes
                    ).astype(np.int64)
                )
            with rec.phase("scatter"):
                srcs, dsts, weights = out_csr.expand_sources(scheduled)
                if srcs.size:
                    applied[scheduled] = deltas
                    contributions = app.delta_edge_contributions(
                        applied[srcs], srcs, dsts, weights
                    )
                    applied[scheduled] = 0.0
                    # An exactly-zero contribution (denormal underflow)
                    # carries no mass; activating its destination would
                    # keep the pending set alive for nothing.
                    nz = contributions != 0.0
                    if not nz.all():
                        dsts, contributions = dsts[nz], contributions[nz]
                    pending.accumulate(dsts, contributions)
                    metrics.add_edge_ops(
                        np.bincount(
                            owner[scheduled],
                            weights=out_deg[scheduled],
                            minlength=cluster.num_nodes,
                        ).astype(np.int64)
                    )
            with rec.phase("sync"):
                msg_count, msg_bytes = cluster.messages_for_changed(changed)
                metrics.add_messages(msg_count, msg_bytes)
            metrics.add_updates(changed.size)
            metrics.set_frontier(active=scheduled.size, skipped=deferred)
            mass = pending.mass()
            self._emit_round(
                rec, rounds, scheduled.size, deferred, changed.size, mass
            )
            metrics.end_iteration()
            # Updates deliberately not counted as progress here: an
            # arithmetic round always applies deltas, so only shrinking
            # mass demonstrates convergence.
            monitor.observe(mass)

        return RunResult(
            values=dispatch.detach_values(),
            metrics=metrics,
            iterations=rounds,
            graph=run_graph,
            guidance=guidance,
            converged=True,
            degraded=dispatch.degraded,
        )


class AsyncEngine(SLFEEngine):
    """The async personality: :class:`SLFEEngine` under an
    :class:`AsyncPolicy`.

    Serial-only: the pending set mutates on every round, so there is no
    phase boundary at which worker processes could share it coherently
    (the parallel pool's shared-memory protocol is superstep-shaped).
    An explicit ``backend="parallel"`` is rejected; the configured
    backend is deliberately ignored rather than inherited.
    """

    name = "Async"

    def __init__(
        self,
        graph: Graph,
        config=None,
        scheduler: str = "delta",
        batch_fraction: float = 0.25,
        min_batch: int = 64,
        progress_window: int = 200,
        **kwargs,
    ) -> None:
        if kwargs.get("backend") not in (None, "serial"):
            raise EngineError(
                "the async engine is serial-only (got backend %r)"
                % kwargs["backend"]
            )
        kwargs["backend"] = "serial"
        kwargs.setdefault("num_workers", 1)
        kwargs["policy"] = AsyncPolicy(
            scheduler=scheduler,
            batch_fraction=batch_fraction,
            min_batch=min_batch,
            progress_window=progress_window,
        )
        super().__init__(graph, config, **kwargs)

    @property
    def scheduler(self) -> str:
        return self.policy.scheduler
