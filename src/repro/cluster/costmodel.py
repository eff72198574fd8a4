"""BSP cost model: metrics records -> modeled seconds.

Each superstep costs

    max_over_nodes(edge_ops * t_edge + vertex_ops * t_vertex) / S(cores)
    + alpha * communicating_pairs + message_bytes / bandwidth
    + io_bytes / disk_bandwidth

where ``S(cores)`` is the node's Amdahl speedup.  The per-superstep
``max`` over nodes is what makes load imbalance (Figure 10) cost time,
and the communication terms are what redundancy reduction saves when
fewer vertices change per iteration.

The constants live in :class:`repro.cluster.config.ClusterConfig` and are
identical for every engine — modeled speedups are therefore entirely
driven by the operation/message counts each engine actually generated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.cluster.metrics import IterationRecord, MetricsCollector
from repro.cluster.network import NetworkModel

__all__ = ["IterationCost", "RuntimeBreakdown", "CostModel"]


@dataclass(frozen=True)
class IterationCost:
    """Modeled cost of one superstep."""

    iteration: int
    mode: str
    compute_seconds: float
    network_seconds: float
    io_seconds: float
    retry_seconds: float = 0.0  # message-loss retransmissions

    @property
    def total_seconds(self) -> float:
        return (
            self.compute_seconds
            + self.network_seconds
            + self.io_seconds
            + self.retry_seconds
        )


@dataclass(frozen=True)
class RuntimeBreakdown:
    """Modeled cost of a whole run."""

    iterations: tuple
    preprocessing_seconds: float
    checkpoint_seconds: float = 0.0  # snapshot writes to stable storage
    recovery_seconds: float = 0.0  # takeover state movement after crashes

    @property
    def compute_seconds(self) -> float:
        return sum(c.compute_seconds for c in self.iterations)

    @property
    def network_seconds(self) -> float:
        return sum(c.network_seconds for c in self.iterations)

    @property
    def io_seconds(self) -> float:
        return sum(c.io_seconds for c in self.iterations)

    @property
    def retry_seconds(self) -> float:
        return sum(c.retry_seconds for c in self.iterations)

    @property
    def fault_tolerance_seconds(self) -> float:
        """What fault tolerance added: checkpoints + recovery + retries.

        The recovery-overhead experiment reports this next to
        :attr:`execution_seconds` (replayed supersteps already show up
        there, as the extra iteration costs the rollback re-runs).
        """
        return (
            self.checkpoint_seconds + self.recovery_seconds + self.retry_seconds
        )

    @property
    def execution_seconds(self) -> float:
        """Runtime excluding preprocessing (what the paper's tables report)."""
        return (
            sum(c.total_seconds for c in self.iterations)
            + self.checkpoint_seconds
            + self.recovery_seconds
        )

    @property
    def total_seconds(self) -> float:
        """End-to-end: preprocessing + execution (Figure 8's metric)."""
        return self.preprocessing_seconds + self.execution_seconds

    def mode_seconds(self, mode: str) -> float:
        """Time spent in supersteps of one mode (Figure 4's split)."""
        return sum(c.total_seconds for c in self.iterations if c.mode == mode)

    def mode_fraction(self, mode: str) -> float:
        total = self.execution_seconds
        if total <= 0:
            return 0.0
        return self.mode_seconds(mode) / total


class CostModel:
    """Evaluates :class:`MetricsCollector` output under a cluster config."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.network = NetworkModel(config.network)

    # ------------------------------------------------------------------
    def iteration_cost(
        self,
        record: IterationRecord,
        communicating_pairs: Optional[int] = None,
    ) -> IterationCost:
        """Cost one superstep.

        ``communicating_pairs`` defaults to every ordered node pair when
        the record carries messages (engines that track the exact pair
        count can pass it).
        """
        node = self.config.node
        per_node = (
            record.edge_ops_per_node * node.seconds_per_edge_op
            + record.vertex_ops_per_node * node.seconds_per_vertex_op
        )
        if record.node_slowdown is not None:
            # Stragglers stretch that node's compute; the per-superstep
            # max then makes the whole cluster wait for it (Figure 10's
            # imbalance effect, induced by a fault instead of skew).
            per_node = per_node * record.node_slowdown
        compute = float(per_node.max()) / node.speedup() if per_node.size else 0.0
        if record.messages > 0:
            if communicating_pairs is None:
                communicating_pairs = self.config.num_nodes * max(
                    self.config.num_nodes - 1, 1
                )
            network = self.network.transfer_seconds(
                record.message_bytes, communicating_pairs
            )
        else:
            network = 0.0
        io_seconds = (
            record.io_bytes / self.config.disk.bandwidth_bytes_per_second
            if record.io_bytes
            else 0.0
        )
        return IterationCost(
            iteration=record.iteration,
            mode=record.mode,
            compute_seconds=compute,
            network_seconds=network,
            io_seconds=io_seconds,
            retry_seconds=float(record.retry_seconds),
        )

    def spread_seconds(self, edge_ops: float) -> float:
        """Compute seconds of ``edge_ops`` spread evenly over the cluster."""
        return (
            edge_ops
            / self.config.num_nodes
            * self.config.node.seconds_per_edge_op
            / self.config.node.speedup()
        )

    def evaluate(self, metrics: MetricsCollector) -> RuntimeBreakdown:
        """Cost a full run, preprocessing included."""
        iterations: List[IterationCost] = [
            self.iteration_cost(record) for record in metrics.records
        ]
        # Preprocessing (RRG generation) is pure local compute over the
        # recorded op count, spread across the cluster like execution is.
        pre_seconds = self.spread_seconds(metrics.preprocessing_ops)
        # Fault-tolerance overheads: each node streams its slice of the
        # snapshot to its own stable storage concurrently (disk bandwidth
        # is per node), and a takeover ships the lost partition's state
        # across the fabric (one communicating pair per recovery).
        checkpoint_seconds = (
            metrics.checkpoint_bytes
            / self.config.disk.bandwidth_bytes_per_second
            / self.config.num_nodes
            if metrics.checkpoint_bytes
            else 0.0
        )
        recovery_seconds = (
            self.network.transfer_seconds(
                metrics.recovery_bytes, metrics.recoveries
            )
            if metrics.recoveries
            else 0.0
        )
        return RuntimeBreakdown(
            iterations=tuple(iterations),
            preprocessing_seconds=pre_seconds,
            checkpoint_seconds=checkpoint_seconds,
            recovery_seconds=recovery_seconds,
        )

    # ------------------------------------------------------------------
    def scaling_curve(
        self, metrics: MetricsCollector, core_counts: List[int]
    ) -> np.ndarray:
        """Modeled execution seconds at several intra-node core counts.

        Used by the Figure 6 experiment: same op counts, different Amdahl
        speedups (communication terms are unaffected by core count).
        """
        base = self.evaluate(metrics)
        results = []
        for cores in core_counts:
            scale = self.config.node.speedup() / self.config.node.speedup(cores)
            compute = base.compute_seconds * scale
            results.append(compute + base.network_seconds + base.io_seconds)
        return np.array(results)
