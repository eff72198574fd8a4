"""Simulated distributed cluster: ownership + communication accounting.

:class:`SimulatedCluster` binds a graph, a vertex partition and a cluster
configuration, and precomputes the quantities engines need to attribute
work and messages to nodes in O(active set) per superstep:

* ``owner[v]`` — which node owns vertex ``v`` (computation on ``v``'s
  in-edges happens there in pull mode);
* ``remote_fanout[v]`` — how many *distinct remote nodes* contain an
  out-neighbour of ``v``.  When ``v``'s value changes, exactly that many
  coalesced update messages leave ``v``'s node (this is the "active list"
  broadcast of Gemini/SLFE and the mirror synchronisation of the GAS
  systems, which both batch one update per destination node).

The fan-out table is load-time work: it depends only on the graph's
out-edges, the owner array and the node count, so every cluster built
on one :class:`Graph` with the same ownership shares one read-only
table (a one-entry memo on the graph) instead of re-reading |E| per job.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Tuple

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.cluster.metrics import MetricsCollector
from repro.errors import EngineError
from repro.graph.csr import expand_rows
from repro.graph.graph import Graph
from repro.partition.base import VertexPartition
from repro.trace import recorder as trace_events
from repro.trace.recorder import NULL_RECORDER, Recorder

__all__ = ["SimulatedCluster"]


class SimulatedCluster:
    """Execution context for one (graph, partition, cluster) triple."""

    def __init__(
        self,
        graph: Graph,
        partition: VertexPartition,
        config: ClusterConfig,
        recorder: Optional[Recorder] = None,
    ) -> None:
        partition._check(graph)
        if partition.num_parts != config.num_nodes:
            raise ValueError(
                "partition has %d parts but cluster has %d nodes"
                % (partition.num_parts, config.num_nodes)
            )
        self.graph = graph
        self.partition = partition
        self.config = config
        self.owner = partition.owner
        self.num_nodes = config.num_nodes
        #: trace sink shared with the metrics collector (no-op by default)
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        #: liveness mask; a node failed via :meth:`fail_node` stays dead
        self.alive = np.ones(self.num_nodes, dtype=bool)
        self._remote_fanout = self._shared_remote_fanout()

    # ------------------------------------------------------------------
    def _shared_remote_fanout(self) -> np.ndarray:
        """The construction-time table, memoised on the graph.

        The key is ``(num_nodes, blake2b(owner bytes))``: a digest, not
        a copy of the owner array, so the memo holds |V| int64 and
        nothing else.  The shared table is read-only; :meth:`migrate`
        and :meth:`fail_node` replace this cluster's reference with a
        private table and never touch the shared one.
        """
        if self.num_nodes == 1:
            return self._compute_remote_fanout()
        owner = np.ascontiguousarray(self.owner)
        key = (self.num_nodes, hashlib.blake2b(owner).digest())
        memo = self.graph._fanout_memo
        if memo is not None and memo[0] == key:
            return memo[1]
        table = self._compute_remote_fanout()
        table.flags.writeable = False
        self.graph._fanout_memo = (key, table)
        return table

    def _compute_remote_fanout(self) -> np.ndarray:
        """remote_fanout[v] = |{owner(w) : v->w} \\ {owner(v)}|."""
        n = self.graph.num_vertices
        # Allocated before the O(|E|) temporaries, so the table that
        # outlives them does not land above them on the heap.
        fanout = np.zeros(n, dtype=np.int64)
        out = self.graph.out_csr
        if self.num_nodes == 1 or out.num_edges == 0:
            # No remote edges exist — and on a spilled (out-of-core)
            # graph the edge arrays are not resident to expand anyway.
            return fanout
        try:
            dsts = out.indices
        except EngineError as err:
            raise EngineError(
                "the remote fan-out table of a %d-node cluster reads every "
                "out-edge, and a spilled graph's edges are not resident: "
                "run it with num_nodes=1" % self.num_nodes
            ) from err
        # One O(|E|) scatter marks which (vertex, node) pairs an edge
        # reaches (no sort over the pairs); a vertex's own node is not
        # remote, and the row sums are the distinct remote nodes.
        nodes = self.num_nodes
        own = np.arange(n, dtype=np.int64) * nodes
        pairs = self.owner[dsts]
        pairs += np.repeat(own, out.degrees())
        reached = np.zeros(n * nodes, dtype=bool)
        reached[pairs] = True
        reached[own + self.owner] = False
        return reached.reshape(n, nodes).sum(axis=1, out=fanout)

    # ------------------------------------------------------------------
    @property
    def remote_fanout(self) -> np.ndarray:
        """Per-vertex distinct-remote-node out fanout (read only)."""
        return self._remote_fanout

    def new_metrics(self) -> MetricsCollector:
        return MetricsCollector(self.num_nodes, recorder=self.recorder)

    def ops_per_node_for_destinations(
        self, dst_vertices: np.ndarray, ops_per_dst: np.ndarray
    ) -> np.ndarray:
        """Attribute per-destination edge scans to their owning nodes."""
        return np.bincount(
            self.owner[dst_vertices],
            weights=ops_per_dst,
            minlength=self.num_nodes,
        ).astype(np.int64)

    def ops_per_node_for_sources(
        self, src_vertices: np.ndarray, ops_per_src: np.ndarray
    ) -> np.ndarray:
        """Attribute per-source edge scans (push mode) to owning nodes."""
        return np.bincount(
            self.owner[src_vertices],
            weights=ops_per_src,
            minlength=self.num_nodes,
        ).astype(np.int64)

    def migrate(
        self,
        vertices: np.ndarray,
        target_node: int,
        source_node: Optional[int] = None,
        bytes_moved: Optional[int] = None,
    ) -> None:
        """Reassign ``vertices`` to ``target_node`` (dynamic rebalancing).

        Ownership-dependent caches (the remote fanout table) are
        recomputed, into a table private to this cluster; this is the
        bookkeeping a real system pays once per migration alongside
        shipping the vertex state.  ``source_node``
        and ``bytes_moved`` are optional context for the trace event
        (the rebalancer knows both; ad-hoc callers may not).
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if not 0 <= target_node < self.num_nodes:
            raise ValueError("target node out of range")
        if not self.alive[target_node]:
            raise ValueError(
                "target node %d is dead and cannot receive vertices"
                % target_node
            )
        self.owner[vertices] = target_node
        self._remote_fanout = self._compute_remote_fanout()
        if self.recorder.enabled:
            payload = {
                "vertices_moved": int(vertices.size),
                "target_node": int(target_node),
            }
            if source_node is not None:
                payload["source_node"] = int(source_node)
            if bytes_moved is not None:
                payload["bytes_moved"] = int(bytes_moved)
            self.recorder.emit(trace_events.MIGRATION, **payload)

    def fail_node(self, node: int, bytes_per_vertex: int = 8) -> Tuple[int, int]:
        """Permanent node failure: survivors absorb the lost partition.

        The dead node's vertices are redistributed round-robin across the
        surviving nodes (deterministic: vertex order x ascending survivor
        ids), the ownership caches are recomputed once, and a ``recovery``
        trace event records the takeover.  Returns ``(vertices_moved,
        bytes_moved)`` — the state survivors must re-materialise from the
        last checkpoint, charged by the cost model as recovery traffic.
        """
        if not 0 <= node < self.num_nodes:
            raise ValueError("failed node out of range")
        if not self.alive[node]:
            raise ValueError("node %d is already dead" % node)
        self.alive[node] = False
        survivors = np.flatnonzero(self.alive)
        if survivors.size == 0:
            self.alive[node] = True
            raise ValueError("cannot fail the last alive node")
        lost = np.flatnonzero(self.owner == node)
        if lost.size:
            self.owner[lost] = survivors[np.arange(lost.size) % survivors.size]
            self._remote_fanout = self._compute_remote_fanout()
        bytes_moved = int(lost.size) * bytes_per_vertex
        if self.recorder.enabled:
            self.recorder.emit(
                trace_events.RECOVERY,
                failed_node=int(node),
                vertices_moved=int(lost.size),
                bytes_moved=bytes_moved,
                survivors=int(survivors.size),
            )
        return int(lost.size), bytes_moved

    def messages_on_pair(
        self, changed_vertices: np.ndarray, src_node: int, dst_node: int
    ) -> int:
        """Coalesced updates ``src_node`` sends ``dst_node`` this superstep.

        The per-pair share of :meth:`messages_for_changed`: changed
        vertices owned by ``src_node`` that have at least one
        out-neighbour on ``dst_node``.  Fault injection uses this to size
        a lost batch exactly.
        """
        if changed_vertices.size == 0 or src_node == dst_node:
            return 0
        on_src = changed_vertices[self.owner[changed_vertices] == src_node]
        if on_src.size == 0:
            return 0
        # Only the rows of ``on_src`` are expanded; a vertex counts once
        # however many of its edges (or repeats of its id) reach the node.
        out = self.graph.out_csr
        counts, sel = expand_rows(out.indptr, on_src)
        hit = self.owner[out.indices[sel]] == dst_node
        return int(np.unique(np.repeat(on_src, counts)[hit]).size)

    def messages_for_changed(
        self, changed_vertices: np.ndarray
    ) -> Tuple[int, int]:
        """Coalesced messages caused by broadcasting changed values.

        Returns ``(num_messages, payload_bytes)``: each changed vertex
        sends one update to every distinct remote node holding one of its
        out-neighbours.
        """
        if changed_vertices.size == 0 or self.num_nodes == 1:
            return 0, 0
        count = int(self._remote_fanout[changed_vertices].sum())
        return count, count * self.config.network.bytes_per_update

    def __repr__(self) -> str:
        return "SimulatedCluster(nodes=%d, graph=%r)" % (
            self.num_nodes,
            self.graph,
        )
