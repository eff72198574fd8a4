"""Asynchronous delta-accumulative execution (Maiter-style).

:class:`AsyncEngine` replaces the BSP superstep clock with *rounds*
over a :class:`~repro.core.frontier.PendingSet`: each round schedules a
batch of vertices with pending work, applies/propagates their deltas,
and activates the destinations the deltas reached.  No barrier ever
forms — fresh neighbour state propagates as soon as its vertex is
scheduled, which is the redundancy argument of Maiter ("delta-based
accumulative iterative computation") and "Fast Iterative Graph
Computing with Updated Neighbor States": BSP recomputes every vertex
from whole-superstep-old inputs, async only moves the information that
actually changed.

Two application families run asynchronously:

* **min/max relaxation** (SSSP, CC, WP, ...) is natively accumulative:
  the engine schedules changed vertices, relaxes their out-edges
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
engine uses a global signal: arithmetic runs stop when the total
pending delta mass falls under the tolerance; min/max runs stop when
the pending set drains.  A :class:`~repro.core.state.ProgressMonitor`
enforces the progress-monotone property (every window of rounds must
reach a new mass low or make an update) and a generous round cap backs
it up.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cluster.metrics import ASYNC
from repro.core.accounting import segmented_improvements
from repro.core.engine import RunResult, SLFEEngine
from repro.core.frontier import PendingSet
from repro.core.rrg import default_roots
from repro.core.state import ProgressMonitor
from repro.errors import ConvergenceError, EngineError
from repro.graph.graph import Graph
from repro.trace import recorder as trace_events

__all__ = ["AsyncEngine", "SCHEDULERS"]

#: The deterministic scheduling disciplines the async engine offers.
SCHEDULERS = ("fifo", "delta", "lastiter")

#: Cushion on the BSP iteration caps: one async round touches a batch,
#: not the whole graph, so legitimate runs need many more rounds.
ROUND_CAP_FACTOR = 50


class AsyncEngine(SLFEEngine):
    """Delta-accumulative rounds over a pending-vertex priority queue.

    Serial-only: the pending set mutates on every round, so there is no
    phase boundary at which worker processes could share it coherently
    (the parallel pool's shared-memory protocol is superstep-shaped).
    An explicit ``backend="parallel"`` is rejected; the configured
    backend is deliberately ignored rather than inherited.

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
        if scheduler not in SCHEDULERS:
            raise EngineError(
                "unknown async scheduler %r (choose from %s)"
                % (scheduler, ", ".join(SCHEDULERS))
            )
        if not 0.0 < batch_fraction <= 1.0:
            raise EngineError("batch_fraction must be in (0, 1]")
        if min_batch < 1:
            raise EngineError("min_batch must be >= 1")
        kwargs["backend"] = "serial"
        kwargs.setdefault("num_workers", 1)
        super().__init__(graph, config, **kwargs)
        self.scheduler = scheduler
        self.batch_fraction = batch_fraction
        self.min_batch = min_batch
        self.progress_window = progress_window

    # ------------------------------------------------------------------
    # shared round plumbing
    # ------------------------------------------------------------------
    def _async_roots(self, app, roots: np.ndarray) -> Optional[np.ndarray]:
        """Reject what async cannot run; the guidance roots it takes.

        Only the ``lastiter`` scheduler takes guidance (None otherwise):
        async rounds never skip vertices by guidance (there is no Ruler
        to compare against), so generating it would be pure
        preprocessing waste for the other schedulers.
        """
        if not getattr(app, "accumulative", False):
            raise EngineError(
                "application %r does not declare accumulative semantics "
                "(plus delta_seed/delta_edge_contributions for a sum); the "
                "async engine cannot run it — use the BSP engines" % app.name
            )
        # Each of these is anchored on the BSP superstep clock; ignoring
        # one would hand back a result that silently lacks it.
        for option, given in (
            ("fault injection", self.fault_plan),
            ("checkpoints (checkpoint_every)", self.checkpoint_every > 0),
            ("a rebalancer", self.rebalancer is not None),
            ("per-vertex op records", self.record_per_vertex_ops),
        ):
            if given:
                raise EngineError(
                    "the async engine has no superstep clock to anchor %s "
                    "on — run it on the BSP engines" % option
                )
        if self.scheduler != "lastiter":
            return None
        if not self.enable_rr:
            raise EngineError(
                "the lastiter scheduler orders vertices by RR guidance — "
                "construct the async engine with enable_rr=True"
            )
        return roots

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

    def _rounds(
        self, app, run_graph, dispatch, opened, pending, relax, mass,
        tolerance, cap, stall, updates_progress,
    ) -> RunResult:
        """The round loop both families share.

        Rounds run while the pending ``mass()`` exceeds ``tolerance``:
        each schedules a batch, drains its deltas into ``relax(scheduled,
        deltas)`` — which returns the vertices whose values moved — and
        syncs them.  ``updates_progress`` says whether an update counts
        as progress for the :class:`ProgressMonitor`.
        """
        cluster, metrics, guidance = opened
        rec = self.recorder
        last_iter = guidance.last_iter if guidance is not None else None
        monitor = ProgressMonitor(self.progress_window)
        rounds = 0
        current = mass()
        while pending and current > tolerance:
            rounds += 1
            if rounds > cap:
                raise ConvergenceError(
                    "%s %s within %d async rounds" % (app.name, stall, cap)
                )
            dispatch.begin_superstep(rounds)
            scheduled = self._schedule(pending, last_iter)
            deferred = pending.count - scheduled.size
            deltas = pending.take(scheduled)
            metrics.begin_iteration(ASYNC)
            changed = relax(scheduled, deltas)
            with rec.phase("sync"):
                msg_count, msg_bytes = cluster.messages_for_changed(changed)
                metrics.add_messages(msg_count, msg_bytes)
            metrics.add_updates(changed.size)
            metrics.set_frontier(active=scheduled.size, skipped=deferred)
            current = mass()
            if rec.enabled:
                rec.emit(
                    trace_events.ASYNC_ROUND,
                    round=int(rounds),
                    scheduled=int(scheduled.size),
                    skipped=int(deferred),
                    updates=int(changed.size),
                    delta_mass=float(current),
                    scheduler=self.scheduler,
                )
            metrics.end_iteration()
            monitor.observe(current, changed.size if updates_progress else 0)
        return self._result(dispatch, metrics, rounds, run_graph, guidance)

    # ------------------------------------------------------------------
    # min/max relaxation (chaotic relaxation over the pending set)
    # ------------------------------------------------------------------
    def _run_minmax(
        self, app, run_graph, dispatch, root, max_iterations, guidance
    ) -> RunResult:
        roots = self._async_roots(app, app.guidance_roots(run_graph, root))
        opened = self._open_run(
            run_graph, dispatch, roots, guidance,
            app.initial_values(run_graph, root),
        )
        cluster, metrics, _ = opened
        rec = self.recorder
        values = dispatch.values
        pending = PendingSet(run_graph.num_vertices, kind="priority")
        seeds = np.asarray(
            app.initial_frontier(run_graph, root), dtype=np.int64
        )
        # Seeds outrank everything a round can produce: they are the
        # only vertices whose information exists nowhere else yet.
        pending.accumulate(seeds, np.full(seeds.size, np.inf))

        def relax(scheduled, _deltas):
            with rec.phase("scatter"):
                dsts, candidates, out_counts, stats = dispatch.push(
                    scheduled
                )
                self._emit_dispatch(dispatch, stats, "push")
                if not dsts.size:
                    return np.empty(0, dtype=np.int64)
                metrics.add_edge_ops(
                    np.bincount(
                        cluster.owner[scheduled],
                        weights=out_counts,
                        minlength=cluster.num_nodes,
                    ).astype(np.int64)
                )
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
            return changed

        return self._rounds(
            app, run_graph, dispatch, opened, pending, relax,
            lambda: float(pending.count), 0.0,
            max_iterations
            or self._default_iteration_cap(run_graph) * ROUND_CAP_FACTOR,
            "did not settle", True,
        )

    # ------------------------------------------------------------------
    # accumulative arithmetic (Maiter delta propagation)
    # ------------------------------------------------------------------
    def _run_arithmetic(
        self, app, run_graph, dispatch, max_iterations, tolerance, guidance
    ) -> RunResult:
        roots = self._async_roots(app, default_roots(run_graph))
        values0, deltas0 = app.delta_seed(run_graph)
        opened = self._open_run(run_graph, dispatch, roots, guidance, values0)
        cluster, metrics, _ = opened
        values = dispatch.values
        deltas0 = np.asarray(deltas0, dtype=np.float64)
        pending = PendingSet(run_graph.num_vertices, kind="sum")
        seeds = np.nonzero(deltas0 != 0.0)[0]
        pending.accumulate(seeds, deltas0[seeds])

        tolerance = app.default_tolerance if tolerance is None else tolerance
        rec = self.recorder
        out_csr = run_graph.out_csr
        out_deg = out_csr.degrees()
        owner = cluster.owner
        applied = np.zeros(run_graph.num_vertices, dtype=np.float64)

        def relax(scheduled, deltas):
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
            return changed

        # Updates deliberately not counted as progress here: an
        # arithmetic round always applies deltas, so only shrinking mass
        # demonstrates convergence.
        return self._rounds(
            app, run_graph, dispatch, opened, pending, relax, pending.mass,
            tolerance,
            (max_iterations or app.default_max_iterations) * ROUND_CAP_FACTOR,
            "pending delta mass did not fall under %g" % tolerance, False,
        )
