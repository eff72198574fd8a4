"""The O(|E|) scatter behind ``SimulatedCluster.remote_fanout`` equals the
``np.unique``-over-pairs formulation it replaced (kept here as the
oracle): same array, same dtype, for any graph, any ownership, any
node count — at construction, after ``migrate`` and after ``fail_node``.

The table is memoised on the graph (one entry, keyed by node count and
a digest of the owner array): clusters sharing it stay exact whatever
another cluster on the same graph migrates or loses, the shared table
is read-only, and any other ownership misses.

Likewise ``messages_on_pair``: expanding only the changed vertices' rows
returns the integer the all-edges ``np.isin`` formulation (the oracle
below) did, for any changed list and any node pair.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.cluster import SimulatedCluster
from repro.cluster.config import ClusterConfig
from repro.graph.graph import Graph
from repro.partition.base import VertexPartition


def unique_pairs_fanout(graph: Graph, owner: np.ndarray, num_nodes: int):
    """remote_fanout as the parent commit computed it: sort the distinct
    ``(src, owner[dst])`` pairs, drop the local ones, count per source."""
    n = graph.num_vertices
    srcs, dsts, _ = graph.edge_arrays()
    if num_nodes == 1 or srcs.size == 0:
        return np.zeros(n, dtype=np.int64)
    unique_pairs = np.unique(srcs * num_nodes + owner[dsts])
    pair_src = unique_pairs // num_nodes
    remote = unique_pairs % num_nodes != owner[pair_src]
    return np.bincount(pair_src[remote], minlength=n).astype(np.int64)


def all_edges_messages_on_pair(cluster, changed_vertices, src_node, dst_node):
    """messages_on_pair as the parent commit computed it: mask every
    edge of the graph by source membership and destination owner."""
    if changed_vertices.size == 0 or src_node == dst_node:
        return 0
    on_src = changed_vertices[cluster.owner[changed_vertices] == src_node]
    if on_src.size == 0:
        return 0
    srcs, dsts, _ = cluster.graph.edge_arrays()
    mask = np.isin(srcs, on_src) & (cluster.owner[dsts] == dst_node)
    return int(np.unique(srcs[mask]).size)


def _assert_fanout(cluster: SimulatedCluster) -> None:
    expected = unique_pairs_fanout(
        cluster.graph, cluster.owner, cluster.num_nodes
    )
    assert cluster.remote_fanout.dtype == expected.dtype
    assert cluster.remote_fanout.tobytes() == expected.tobytes()


@st.composite
def clusters(draw, min_nodes=1):
    n = draw(st.integers(0, 24))
    m = draw(st.integers(0, 90)) if n else 0
    endpoint = st.integers(0, max(n - 1, 0))
    # Self-loops and duplicate edges included.
    srcs = draw(st.lists(endpoint, min_size=m, max_size=m))
    dsts = draw(st.lists(endpoint, min_size=m, max_size=m))
    graph = Graph.from_edges(
        n, (np.asarray(srcs, dtype=np.int64), np.asarray(dsts, dtype=np.int64))
    )
    # 1 and 2 nodes, the benchmark's 8, and one node per vertex.
    num_nodes = draw(st.sampled_from(
        sorted({max(k, min_nodes) for k in (1, 2, 8, max(n, 1))})
    ))
    owner = draw(st.lists(st.integers(0, num_nodes - 1),
                          min_size=n, max_size=n))
    partition = VertexPartition(np.asarray(owner, dtype=np.int64), num_nodes)
    return SimulatedCluster(
        graph, partition, ClusterConfig(num_nodes=num_nodes)
    )


@given(clusters())
def test_scatter_fanout_equals_unique_pairs(cluster):
    _assert_fanout(cluster)


@given(clusters(), st.data())
def test_fanout_after_migrate_and_node_failure(cluster, data):
    n, nodes = cluster.graph.num_vertices, cluster.num_nodes
    moved = data.draw(st.lists(st.integers(0, max(n - 1, 0)), unique=True,
                               max_size=n))
    cluster.migrate(np.asarray(moved, dtype=np.int64),
                    data.draw(st.integers(0, nodes - 1)))
    _assert_fanout(cluster)
    if nodes > 1:
        cluster.fail_node(data.draw(st.integers(0, nodes - 1)))
        _assert_fanout(cluster)


def _twin(cluster: SimulatedCluster) -> SimulatedCluster:
    """Another cluster on the same graph with an equal (not the same)
    owner array, as a second job's partitioner would produce."""
    partition = VertexPartition(cluster.owner.copy(), cluster.num_nodes)
    return SimulatedCluster(cluster.graph, partition, cluster.config)


@given(clusters(min_nodes=2), st.data())
def test_shared_table_survives_another_clusters_migrate_and_failure(
    cluster, data
):
    second = _twin(cluster)
    shared = second.remote_fanout
    assert shared is cluster.remote_fanout  # one table per graph
    n, nodes = cluster.graph.num_vertices, cluster.num_nodes
    moved = data.draw(st.lists(st.integers(0, max(n - 1, 0)), unique=True,
                               max_size=n))
    cluster.migrate(np.asarray(moved, dtype=np.int64),
                    data.draw(st.integers(0, nodes - 1)))
    cluster.fail_node(data.draw(st.integers(0, nodes - 1)))
    _assert_fanout(cluster)
    assert second.remote_fanout is shared
    _assert_fanout(second)
    third = _twin(second)
    assert third.remote_fanout is shared
    _assert_fanout(third)


@given(clusters(min_nodes=2))
def test_shared_table_is_read_only_int64(cluster):
    table = cluster.remote_fanout
    assert table.dtype == np.int64
    assert not table.flags.writeable
    if table.size:
        with pytest.raises(ValueError):
            table[0] = 7


@given(clusters(min_nodes=2), st.data())
def test_other_ownership_or_node_count_misses_the_memo(cluster, data):
    graph, nodes = cluster.graph, cluster.num_nodes
    n = graph.num_vertices
    owner = cluster.owner.copy()
    if n:
        vertex = data.draw(st.integers(0, n - 1))
        owner[vertex] = (owner[vertex] + 1) % nodes
        moved = SimulatedCluster(graph, VertexPartition(owner, nodes),
                                 ClusterConfig(num_nodes=nodes))
        assert moved.remote_fanout is not cluster.remote_fanout
        _assert_fanout(moved)
    wider = SimulatedCluster(
        graph, VertexPartition(cluster.owner.copy(), nodes + 1),
        ClusterConfig(num_nodes=nodes + 1),
    )
    assert wider.remote_fanout is not cluster.remote_fanout
    assert wider.remote_fanout.dtype == np.int64
    _assert_fanout(wider)


def _assert_pair_counts(cluster, changed):
    nodes = range(cluster.num_nodes)
    pairs = {(src, dst): cluster.messages_on_pair(changed, src, dst)
             for src in nodes for dst in nodes}
    assert pairs == {
        pair: all_edges_messages_on_pair(cluster, changed, *pair)
        for pair in pairs
    }
    assert all(type(count) is int for count in pairs.values())
    # Each changed vertex sends one message per distinct remote node.
    distinct = np.unique(changed)
    assert sum(pairs.values()) == cluster.messages_for_changed(distinct)[0]


@given(clusters(), st.data())
def test_messages_on_pair_equals_the_all_edges_mask(cluster, data):
    n, nodes = cluster.graph.num_vertices, cluster.num_nodes
    vertex = st.integers(0, max(n - 1, 0))
    # Unsorted, repeated, possibly empty.
    changed = np.asarray(
        data.draw(st.lists(vertex, max_size=2 * n)), dtype=np.int64
    )
    _assert_pair_counts(cluster, changed)
    moved = data.draw(st.lists(vertex, unique=True, max_size=n))
    cluster.migrate(np.asarray(moved, dtype=np.int64),
                    data.draw(st.integers(0, nodes - 1)))
    _assert_pair_counts(cluster, changed)
    if nodes > 1:
        cluster.fail_node(data.draw(st.integers(0, nodes - 1)))
        _assert_pair_counts(cluster, changed)


def test_fanout_counts_each_remote_node_once():
    # 0 -> {1, 2, 2, 3, 0}: nodes B, C, C, C and itself (A).
    edges = np.array([[0, 1], [0, 2], [0, 2], [0, 3], [0, 0]], dtype=np.int64)
    graph = Graph.from_edges(4, edges)
    partition = VertexPartition(np.array([0, 1, 2, 2], dtype=np.int64), 3)
    cluster = SimulatedCluster(graph, partition, ClusterConfig(num_nodes=3))
    assert cluster.remote_fanout.tolist() == [2, 0, 0, 0]
