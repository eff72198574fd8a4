"""Per-vertex execution state: stability tracking for "finish early".

:class:`StabilityTracker` is the engine-side realisation of the paper's
``RulerS`` array (Algorithm 5 lines 11-18): it counts, per vertex, how
many *consecutive* iterations the vertex's property has not changed, and
declares the vertex early-converged (EC) once that count exceeds the
vertex's guidance ``last_iter``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConvergenceError

__all__ = ["StabilityTracker", "ProgressMonitor"]


class StabilityTracker:
    """Counts per-vertex stability against RR guidance.

    The tracker is a pure counter: the engine decides once per superstep
    which vertices changed (one ``|new - old|`` difference, shared with
    its convergence test and its update set) and hands the mask to
    :meth:`observe`.  It keeps no copy of the values.

    Parameters
    ----------
    last_iter:
        The guidance array; a vertex is EC once ``stable_count[v] >=
        max(last_iter[v], 1)``.  The ``max(…, 1)`` keeps unreached
        vertices (``last_iter == 0``) from being frozen before they have
        been stable for at least one round.
    min_stable_rounds:
        Floor on the per-vertex threshold.  The paper's criterion can
        freeze a vertex whose inputs transiently cancel (a plateau that
        is not convergence); requiring a few extra silent rounds makes
        that pathologically unlikely at negligible cost.
    """

    def __init__(
        self, last_iter: np.ndarray, min_stable_rounds: int = 1
    ) -> None:
        if min_stable_rounds < 1:
            raise ValueError("min_stable_rounds must be >= 1")
        self.threshold = np.maximum(
            last_iter.astype(np.int64), min_stable_rounds
        )
        n = last_iter.size
        self.stable_count = np.zeros(n, dtype=np.int64)
        self._ec = np.zeros(n, dtype=bool)
        #: Bumped whenever the EC set changes (freeze, thaw, restore):
        #: callers caching anything derived from the set — the engine's
        #: live task list and per-node op counts — re-derive only then.
        self.ec_version = 0

    # ------------------------------------------------------------------
    @property
    def ec_mask(self) -> np.ndarray:
        """Boolean mask of early-converged vertices (do not mutate)."""
        return self._ec

    @property
    def num_ec(self) -> int:
        return int(self._ec.sum())

    def active_mask(self) -> np.ndarray:
        """Vertices still being computed (the complement of EC)."""
        return ~self._ec

    # ------------------------------------------------------------------
    def observe(self, changed: np.ndarray) -> np.ndarray:
        """Count one superstep; ``changed`` masks the vertices that moved.

        Returns ``changed & live``: EC vertices were not recomputed, so
        their counts stand whatever the mask says.  The result is
        exactly the set whose update must be broadcast to remote nodes.
        """
        live = ~self._ec
        changed_live = changed & live
        # Branch-free full passes (no boolean fancy indexing, no where=):
        # +1 where live, *0 where changed.
        self.stable_count += live
        self.stable_count *= ~changed_live
        newly_ec = live & (self.stable_count >= self.threshold)
        if newly_ec.any():
            self._ec |= newly_ec
            self.ec_version += 1
        return changed_live

    def thaw(self, vertices: np.ndarray) -> int:
        """Un-freeze EC vertices among ``vertices``; returns how many.

        The paper's criterion freezes a vertex after its value has been
        silent for ``last_iter`` rounds — but on cyclic graphs the
        guidance can underestimate how long information keeps arriving,
        so a frozen vertex may still have in-neighbours whose values
        move.  The engine calls this with the out-neighbours of every
        changed vertex (or, expanding from the cheaper side, with the
        frozen vertices that have a changed in-neighbour — the same
        set): any frozen vertex whose input just moved is put
        back into computation with its stability count reset, which
        makes "finish early" an optimisation (skip vertices with
        provably quiescent inputs) instead of an approximation.
        ``vertices`` may repeat and need not be sorted.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size == 0:
            return 0
        # A scatter into a mask dedupes and sorts in O(n) where
        # np.unique would sort the (often |E|-sized) expanded list.
        hit = np.zeros(self._ec.size, dtype=bool)
        hit[vertices] = True
        hit &= self._ec
        frozen = np.nonzero(hit)[0]
        if frozen.size == 0:
            return 0
        self._ec[frozen] = False
        self.stable_count[frozen] = 0
        self.ec_version += 1
        return int(frozen.size)

    # ------------------------------------------------------------------
    def state_arrays(self) -> dict:
        """The tracker's mutable state, for checkpointing (RulerS data)."""
        return {"stable_count": self.stable_count, "ec": self._ec}

    def restore_state(self, stable_count: np.ndarray, ec: np.ndarray) -> None:
        """Overwrite the tracker's state in place (rollback path)."""
        self.stable_count[:] = stable_count
        self._ec[:] = ec
        self.ec_version += 1

    def __repr__(self) -> str:
        return "StabilityTracker(ec=%d / %d)" % (self.num_ec, self._ec.size)


class ProgressMonitor:
    """Progress-monotone stall detector for barrier-free execution.

    An async engine has no superstep barrier to hang a convergence
    check on: termination is "global pending delta mass under a
    threshold", which a buggy application (a non-contractive delta
    operator, a scheduler starving the heavy vertices) can simply never
    reach.  The monitor enforces the property a sound accumulative run
    must have: over any ``window`` consecutive rounds, either the
    pending mass reaches a new low or at least one round made a value
    update.  When ``window`` rounds pass with neither, it raises
    :class:`~repro.errors.ConvergenceError` instead of letting the run
    spin forever under the round cap.
    """

    def __init__(self, window: int = 200) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.best_mass = np.inf
        self.rounds_without_progress = 0
        self.rounds = 0

    def observe(self, mass: float, updates: int = 0) -> None:
        """Record one round's pending mass and update count."""
        self.rounds += 1
        # Strict improvement only: floats that merely wobble below the
        # incumbent by rounding noise still count (any new low is
        # progress toward the mass threshold).
        if mass < self.best_mass:
            self.best_mass = mass
            self.rounds_without_progress = 0
        elif updates > 0:
            self.rounds_without_progress = 0
        else:
            self.rounds_without_progress += 1
            if self.rounds_without_progress >= self.window:
                raise ConvergenceError(
                    "async execution stalled: no pending-mass low and no "
                    "updates for %d rounds (round %d, pending mass %g, "
                    "best %g)"
                    % (self.window, self.rounds, mass, self.best_mass)
                )

    def __repr__(self) -> str:
        return "ProgressMonitor(stalled %d / %d rounds)" % (
            self.rounds_without_progress, self.window,
        )
