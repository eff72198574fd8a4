"""Execution metrics: the ground truth behind every experiment.

Engines record one :class:`IterationRecord` per superstep.  All of the
paper's evaluation quantities derive from these records:

* Table 2 — ``updates per vertex`` = total property writes / |V|;
* Figure 9 — ``edge_ops`` per iteration with and without RR;
* Figure 4 — time split between push- and pull-mode iterations;
* Figure 10b — per-node op imbalance;
* Table 5 / Figures 5-8 — modeled runtime via :mod:`repro.cluster.costmodel`.

The collector is also a consumer of the shared trace vocabulary
(:mod:`repro.trace.recorder`): constructed with a recorder, every
counter call forwards the corresponding typed event (superstep spans,
edge/vertex ops, messages, frontier sizes) into the trace stream.  The
default :data:`~repro.trace.recorder.NULL_RECORDER` makes each forward
a single branch, so untraced runs pay nothing measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import ClusterConfigError
from repro.trace import recorder as trace_events
from repro.trace.recorder import NULL_RECORDER, Recorder

__all__ = ["IterationRecord", "MetricsCollector"]

PUSH = "push"
PULL = "pull"
#: Async engines record rounds, not barrier supersteps; one record per
#: scheduling round keeps the cost model and exporters mode-agnostic.
ASYNC = "async"


@dataclass
class IterationRecord:
    """Counters for one superstep.

    Attributes
    ----------
    iteration:
        0-based superstep index.
    mode:
        ``"push"`` or ``"pull"``.
    edge_ops_per_node:
        Edge relaxations (candidate computed + aggregated) per node.
    vertex_ops_per_node:
        Per-vertex apply operations per node.
    updates:
        Number of vertex property writes this superstep.
    messages:
        Coalesced remote updates sent across the network.
    message_bytes:
        Total payload bytes for those messages.
    active_vertices:
        Size of the frontier driving this superstep.
    skipped_vertices:
        Vertices whose computation RR bypassed this superstep.
    """

    iteration: int
    mode: str
    edge_ops_per_node: np.ndarray
    vertex_ops_per_node: np.ndarray
    updates: int = 0
    messages: int = 0
    message_bytes: int = 0
    active_vertices: int = 0
    skipped_vertices: int = 0
    io_bytes: int = 0  # secondary-storage traffic (out-of-core engines)
    retries: int = 0  # retransmitted messages (fault injection)
    retry_bytes: int = 0  # retransmission payload
    retry_seconds: float = 0.0  # backoff + retransfer latency
    node_slowdown: Optional[np.ndarray] = None  # straggler multipliers

    @property
    def edge_ops(self) -> int:
        return int(self.edge_ops_per_node.sum())

    @property
    def vertex_ops(self) -> int:
        return int(self.vertex_ops_per_node.sum())


class MetricsCollector:
    """Accumulates per-superstep records for one application run."""

    def __init__(
        self, num_nodes: int, recorder: Optional[Recorder] = None
    ) -> None:
        if num_nodes < 1:
            raise ClusterConfigError("num_nodes must be >= 1")
        self.num_nodes = num_nodes
        self.records: List[IterationRecord] = []
        self._open: Optional[IterationRecord] = None
        #: seconds spent in preprocessing (RRG generation), set by engines
        self.preprocessing_ops: int = 0
        #: trace consumer; the shared no-op unless a trace is being taken
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        # run-level fault-tolerance accounting (checkpoint/rollback/takeover)
        self.checkpoints_taken: int = 0
        self.checkpoint_bytes: int = 0
        self.rollbacks: int = 0
        self.supersteps_replayed: int = 0
        self.recoveries: int = 0
        self.recovery_bytes: int = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def begin_iteration(self, mode: str) -> IterationRecord:
        """Open a new superstep record; it must be closed before the next."""
        if self._open is not None:
            raise ClusterConfigError("previous iteration was not ended")
        if mode not in (PUSH, PULL, ASYNC):
            raise ClusterConfigError(
                "mode must be 'push', 'pull', or 'async'"
            )
        record = IterationRecord(
            iteration=len(self.records),
            mode=mode,
            edge_ops_per_node=np.zeros(self.num_nodes, dtype=np.int64),
            vertex_ops_per_node=np.zeros(self.num_nodes, dtype=np.int64),
        )
        self._open = record
        if self.recorder.enabled:
            self.recorder.begin_superstep(mode, index=record.iteration)
        return record

    def add_edge_ops(self, per_node: np.ndarray) -> None:
        """Attribute edge relaxations to nodes (array of length num_nodes)."""
        per_node = np.asarray(per_node, dtype=np.int64)
        self._require_open().edge_ops_per_node += per_node
        if self.recorder.enabled:
            self.recorder.emit(
                trace_events.EDGE_OPS,
                per_node=per_node.tolist(),
                total=int(per_node.sum()),
            )

    def add_vertex_ops(self, per_node: np.ndarray) -> None:
        per_node = np.asarray(per_node, dtype=np.int64)
        self._require_open().vertex_ops_per_node += per_node
        if self.recorder.enabled:
            self.recorder.emit(
                trace_events.VERTEX_OPS,
                per_node=per_node.tolist(),
                total=int(per_node.sum()),
            )

    def add_updates(self, count: int) -> None:
        self._require_open().updates += int(count)
        if self.recorder.enabled:
            self.recorder.emit(trace_events.UPDATES, count=int(count))

    def add_messages(self, count: int, payload_bytes: int) -> None:
        record = self._require_open()
        record.messages += int(count)
        record.message_bytes += int(payload_bytes)
        if self.recorder.enabled:
            self.recorder.emit(
                trace_events.MESSAGES,
                count=int(count),
                bytes=int(payload_bytes),
            )

    def add_io(self, num_bytes: int) -> None:
        """Record secondary-storage traffic (GraphChi-style engines)."""
        self._require_open().io_bytes += int(num_bytes)
        if self.recorder.enabled:
            self.recorder.emit(trace_events.IO, bytes=int(num_bytes))

    def add_retry(
        self, count: int, payload_bytes: int, seconds: float
    ) -> None:
        """Record retransmitted traffic (message-loss recovery).

        Retries are tracked apart from :meth:`add_messages` so the
        ``messages`` aggregate keeps counting *logical* updates — a
        retransmission repeats a payload, it carries no new information.
        """
        record = self._require_open()
        record.retries += int(count)
        record.retry_bytes += int(payload_bytes)
        record.retry_seconds += float(seconds)

    def set_node_slowdown(self, factors: np.ndarray) -> None:
        """Attach per-node straggler multipliers to the open superstep."""
        self._require_open().node_slowdown = np.asarray(
            factors, dtype=np.float64
        )

    def add_checkpoint(self, payload_bytes: int) -> None:
        self.checkpoints_taken += 1
        self.checkpoint_bytes += int(payload_bytes)

    def add_rollback(self, supersteps_replayed: int) -> None:
        self.rollbacks += 1
        self.supersteps_replayed += max(0, int(supersteps_replayed))

    def add_recovery(self, bytes_moved: int) -> None:
        self.recoveries += 1
        self.recovery_bytes += int(bytes_moved)

    def set_frontier(self, active: int, skipped: int = 0) -> None:
        record = self._require_open()
        record.active_vertices = int(active)
        record.skipped_vertices = int(skipped)
        if self.recorder.enabled:
            self.recorder.emit(
                trace_events.FRONTIER,
                active=int(active),
                skipped=int(skipped),
            )

    def end_iteration(self) -> IterationRecord:
        record = self._require_open()
        self.records.append(record)
        self._open = None
        if self.recorder.enabled:
            self.recorder.end_superstep(
                mode=record.mode,
                edge_ops=record.edge_ops,
                vertex_ops=record.vertex_ops,
                updates=record.updates,
                messages=record.messages,
                message_bytes=record.message_bytes,
                active=record.active_vertices,
                skipped=record.skipped_vertices,
                io_bytes=record.io_bytes,
            )
        return record

    def _require_open(self) -> IterationRecord:
        if self._open is None:
            raise ClusterConfigError("no iteration in progress")
        return self._open

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    @property
    def num_iterations(self) -> int:
        return len(self.records)

    @property
    def total_edge_ops(self) -> int:
        return sum(r.edge_ops for r in self.records)

    @property
    def total_vertex_ops(self) -> int:
        return sum(r.vertex_ops for r in self.records)

    @property
    def total_updates(self) -> int:
        return sum(r.updates for r in self.records)

    @property
    def total_messages(self) -> int:
        return sum(r.messages for r in self.records)

    @property
    def total_message_bytes(self) -> int:
        return sum(r.message_bytes for r in self.records)

    @property
    def total_skipped(self) -> int:
        return sum(r.skipped_vertices for r in self.records)

    @property
    def total_retries(self) -> int:
        return sum(r.retries for r in self.records)

    def updates_per_vertex(self, num_vertices: int) -> float:
        """Table 2's metric: average property writes per vertex."""
        if num_vertices <= 0:
            return 0.0
        return self.total_updates / num_vertices

    def edge_ops_by_iteration(self) -> np.ndarray:
        """Figure 9's series: edge relaxations per superstep."""
        return np.array([r.edge_ops for r in self.records], dtype=np.int64)

    def edge_ops_by_node(self) -> np.ndarray:
        """Total edge relaxations per node."""
        if not self.records:
            return np.zeros(self.num_nodes, dtype=np.int64)
        return np.sum([r.edge_ops_per_node for r in self.records], axis=0)

    def node_imbalance(self) -> float:
        """(max - min) / max of per-node total work; 0 when perfectly even.

        The paper's Figure 10b reports the time gap between the earliest
        and latest finishing nodes — with a fixed per-op cost that gap is
        exactly this work gap.
        """
        loads = self.edge_ops_by_node().astype(np.float64)
        peak = loads.max() if loads.size else 0.0
        if peak <= 0:
            return 0.0
        return float((peak - loads.min()) / peak)

    def mode_counts(self) -> dict:
        """Number of supersteps spent in each mode.

        The ``async`` key appears only when async rounds actually ran,
        so BSP-era consumers see the same shape as before.
        """
        counts = {PUSH: 0, PULL: 0}
        for record in self.records:
            counts[record.mode] = counts.get(record.mode, 0) + 1
        return counts
