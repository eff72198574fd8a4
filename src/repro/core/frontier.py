"""Active-vertex frontiers and push/pull direction selection.

The "active list" (Pregel-style) drives sparse computation; the
direction heuristic is Gemini's (after Beamer's direction-optimising
BFS): when the frontier's outgoing work exceeds a fixed fraction of the
edge set, gathering over in-edges (pull) is cheaper than scattering over
out-edges (push).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "Frontier",
    "PendingSet",
    "choose_mode",
    "PUSH",
    "PULL",
    "DEFAULT_DENSE_DENOMINATOR",
]

PUSH = "push"
PULL = "pull"

#: Gemini's dense/sparse threshold: pull when active out-edges > |E| / 20.
DEFAULT_DENSE_DENOMINATOR = 20

_EMPTY_IDS = np.empty(0, dtype=np.int64)


class Frontier:
    """A set of active vertices, held as its ascending id list.

    The ids (and so the count) are what a sparse superstep works from,
    so they are the only state: :meth:`replace_with` adopts the list it
    is handed, and a push superstep's frontier upkeep is proportional
    to the frontier, not to |V|.  The boolean :attr:`mask` (what a
    checkpoint stores) is built from the ids on demand.
    """

    def __init__(self, num_vertices: int, active: Optional[np.ndarray] = None) -> None:
        self.num_vertices = int(num_vertices)
        self.ids = _EMPTY_IDS
        if active is not None:
            self.replace_with(active)

    # ------------------------------------------------------------------
    @classmethod
    def all_vertices(cls, num_vertices: int) -> "Frontier":
        frontier = cls(num_vertices)
        frontier.activate_all()
        return frontier

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "Frontier":
        return cls(mask.size, np.flatnonzero(mask))

    # ------------------------------------------------------------------
    @property
    def mask(self) -> np.ndarray:
        """A fresh boolean membership array."""
        mask = np.zeros(self.num_vertices, dtype=bool)
        mask[self.ids] = True
        return mask

    @property
    def count(self) -> int:
        return self.ids.size

    def __len__(self) -> int:
        return self.count

    def __bool__(self) -> bool:
        return self.count > 0

    def __contains__(self, vertex: int) -> bool:
        at = np.searchsorted(self.ids, vertex)
        return bool(at < self.count and self.ids[at] == vertex)

    # ------------------------------------------------------------------
    def activate(self, vertices: np.ndarray) -> None:
        self.replace_with(
            np.concatenate((self.ids, np.asarray(vertices, dtype=np.int64)))
        )

    def activate_all(self) -> None:
        self.ids = np.arange(self.num_vertices, dtype=np.int64)

    def clear(self) -> None:
        self.ids = _EMPTY_IDS

    def replace_with(self, vertices: np.ndarray) -> None:
        """Make ``vertices`` the active set.

        A strictly ascending id array is adopted as is; anything else is
        sorted and de-duplicated first, and ids outside the vertex range
        are rejected.  (The engine's apply phase, whose ids are already
        ascending and in range, assigns :attr:`ids` without the checks.)
        """
        ids = np.asarray(vertices, dtype=np.int64)
        if ids.size > 1 and not np.all(ids[1:] > ids[:-1]):
            ids = np.unique(ids)
        if ids.size and (ids[0] < 0 or ids[-1] >= self.num_vertices):
            raise IndexError(
                "frontier ids must lie in [0, %d)" % self.num_vertices
            )
        self.ids = ids

    def out_edge_count(self, out_degrees: np.ndarray) -> int:
        """Total out-degree of the active set (the direction signal)."""
        return int(out_degrees[self.ids].sum())

    def __repr__(self) -> str:
        return "Frontier(%d / %d active)" % (self.count, self.num_vertices)


class PendingSet:
    """Pending-delta bookkeeping for asynchronous scheduling rounds.

    Where :class:`Frontier` answers "which vertices are active this
    superstep", a :class:`PendingSet` answers the async engine's richer
    question: which vertices have unpropagated work, *how much* (the
    delta magnitude priority schedulers order by), and *since when*
    (the activation batch sequence FIFO scheduling orders by).

    ``kind`` selects how deltas combine:

    * ``"sum"`` — accumulative arithmetic apps (Maiter-style): deltas
      add; :meth:`take` drains the accumulated delta for application.
    * ``"priority"`` — min/max relaxation apps: the stored value is an
      improvement magnitude used purely for scheduling (the vertex's
      real state lives in the values array); magnitudes combine by max.

    All updates are vectorised and deterministic: a batch of
    activations shares one sequence number, so FIFO order is (batch,
    vertex id) — independent of the order ``accumulate`` received the
    vertices in.
    """

    def __init__(self, num_vertices: int, kind: str = "sum") -> None:
        if kind not in ("sum", "priority"):
            raise ValueError("kind must be 'sum' or 'priority'")
        self.kind = kind
        self.delta = np.zeros(num_vertices, dtype=np.float64)
        self.active = np.zeros(num_vertices, dtype=bool)
        self.seq = np.zeros(num_vertices, dtype=np.int64)
        self._next_seq = 0

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return int(self.active.sum())

    @property
    def ids(self) -> np.ndarray:
        return np.nonzero(self.active)[0]

    def __bool__(self) -> bool:
        return bool(self.active.any())

    def mass(self) -> float:
        """Total |pending delta| over active vertices (termination signal)."""
        return float(np.abs(self.delta[self.active]).sum())

    # ------------------------------------------------------------------
    def accumulate(
        self, vertices: np.ndarray, contributions: np.ndarray
    ) -> None:
        """Fold per-vertex contributions in and activate the vertices.

        ``vertices`` may repeat (one entry per in-edge); contributions
        to the same vertex combine by the set's ``kind`` rule.  Newly
        activated vertices are stamped with this call's batch sequence
        number for FIFO ordering.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size == 0:
            return
        contributions = np.asarray(contributions, dtype=np.float64)
        if self.kind == "sum":
            np.add.at(self.delta, vertices, contributions)
        else:
            np.maximum.at(self.delta, vertices, np.abs(contributions))
        newly = np.unique(vertices[~self.active[vertices]])
        if newly.size:
            self.seq[newly] = self._next_seq
        self.active[vertices] = True
        self._next_seq += 1

    def take(self, vertices: np.ndarray) -> np.ndarray:
        """Drain and deactivate ``vertices``; returns their deltas."""
        vertices = np.asarray(vertices, dtype=np.int64)
        taken = self.delta[vertices].copy()
        self.delta[vertices] = 0.0
        self.active[vertices] = False
        return taken

    def __repr__(self) -> str:
        return "PendingSet(%s, %d / %d active)" % (
            self.kind, self.count, self.active.size,
        )


def choose_mode(
    active_edges: int,
    num_edges: int,
    dense_denominator: int = DEFAULT_DENSE_DENOMINATOR,
) -> str:
    """Pick push (sparse) or pull (dense) for the next superstep.

    Pull wins when the frontier's outgoing edges (``active_edges``,
    :meth:`Frontier.out_edge_count` over the run's degree array)
    exceed ``|E| / dense_denominator``; an empty graph defaults to
    push.  The caller keeps the count: a pull superstep reuses it to
    pick the cheaper side of its touched set.
    """
    if num_edges == 0:
        return PUSH
    threshold = num_edges / dense_denominator
    return PULL if active_edges > threshold else PUSH
