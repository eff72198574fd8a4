"""Tests for dynamic inter-node rebalancing (the paper's future work)."""

import numpy as np
import pytest

from repro.apps import PageRank, SSSP, reference
from repro.cluster.cluster import SimulatedCluster
from repro.cluster.config import ClusterConfig
from repro.cluster.faults import FaultPlan
from repro.cluster.rebalance import DynamicRebalancer
from repro.core.engine import SLFEEngine
from repro.errors import ClusterConfigError
from repro.graph import datasets
from repro.partition import ChunkingPartitioner
from repro.partition.base import VertexPartition


class Lopsided(ChunkingPartitioner):
    """Node 0 keeps three quarters of the vertices; 1.. share the rest."""

    def partition(self, run_graph, num_parts):
        owner = np.zeros(run_graph.num_vertices, dtype=np.int64)
        tail = run_graph.num_vertices // 4
        owner[-tail:] = np.arange(tail) % (num_parts - 1) + 1
        return VertexPartition(owner, num_parts)


class TestPlanning:
    def test_balanced_load_no_migration(self):
        reb = DynamicRebalancer()
        owner = np.array([0, 0, 1, 1])
        ops = np.ones(4)
        assert reb.plan(owner, ops, 2) is None

    def test_hot_node_triggers_migration(self):
        reb = DynamicRebalancer(imbalance_threshold=0.2, max_fraction=1.0)
        owner = np.array([0, 0, 0, 1])
        ops = np.array([100.0, 90.0, 10.0, 1.0])
        planned = reb.plan(owner, ops, 2)
        assert planned is not None
        vertices, source, target = planned
        assert source == 0 and target == 1
        # hottest vertices first
        assert 0 in vertices.tolist()

    def test_single_node_never_migrates(self):
        reb = DynamicRebalancer()
        assert reb.plan(np.zeros(4, dtype=np.int64), np.ones(4), 1) is None

    def test_zero_work_no_migration(self):
        reb = DynamicRebalancer()
        assert reb.plan(np.array([0, 1]), np.zeros(2), 2) is None

    def test_fraction_cap_limits_moves(self):
        reb = DynamicRebalancer(imbalance_threshold=0.01, max_fraction=0.05)
        owner = np.zeros(100, dtype=np.int64)
        owner[50:] = 1
        ops = np.ones(100)
        ops[:50] = 100.0
        planned = reb.plan(owner, ops, 2)
        assert planned is not None
        assert planned[0].size <= 5  # 5% of 100... of the busiest node's 50

    def test_validation(self):
        with pytest.raises(ClusterConfigError):
            DynamicRebalancer(period=0)
        with pytest.raises(ClusterConfigError):
            DynamicRebalancer(imbalance_threshold=0.0)
        with pytest.raises(ClusterConfigError):
            DynamicRebalancer(max_fraction=0.0)

    def test_should_check_period_and_warmup(self):
        reb = DynamicRebalancer(period=3, warmup=0)
        assert [i for i in range(1, 10) if reb.should_check(i)] == [3, 6, 9]
        guarded = DynamicRebalancer(period=3, warmup=7)
        assert [i for i in range(1, 13) if guarded.should_check(i)] == [9, 12]

    def test_warmup_validation(self):
        with pytest.raises(ClusterConfigError):
            DynamicRebalancer(warmup=-1)


class TestPlanningAfterTakeover:
    """Rebalancing once a crash has shrunk the owner set (recovery path)."""

    def test_dead_node_never_chosen_as_target(self):
        # Node 2 is dead and owns nothing; its zero load must not make
        # it the "calmest" migration target.
        reb = DynamicRebalancer(imbalance_threshold=0.2, max_fraction=1.0)
        owner = np.array([0, 0, 0, 1])
        ops = np.array([100.0, 90.0, 10.0, 1.0])
        alive = np.array([True, True, False])
        planned = reb.plan(owner, ops, 3, alive=alive)
        assert planned is not None
        _, source, target = planned
        assert source == 0 and target == 1

    def test_dead_node_never_chosen_as_source(self):
        # Stale ownership pointing at a dead node (mid-takeover) must
        # not nominate the dead node as the migration source.
        reb = DynamicRebalancer(imbalance_threshold=0.01, max_fraction=1.0)
        owner = np.array([2, 2, 0, 1])
        ops = np.array([100.0, 90.0, 10.0, 1.0])
        alive = np.array([True, True, False])
        planned = reb.plan(owner, ops, 3, alive=alive)
        if planned is not None:
            _, source, target = planned
            assert source in (0, 1) and target in (0, 1)

    def test_single_survivor_never_migrates(self):
        reb = DynamicRebalancer(imbalance_threshold=0.01)
        owner = np.array([0, 0, 1, 1])
        ops = np.array([100.0, 90.0, 1.0, 1.0])
        alive = np.array([True, False])
        assert reb.plan(owner, ops, 2, alive=alive) is None

    def test_apply_respects_cluster_liveness(self, diamond):
        # End to end through apply(): after node 1 dies, a lopsided load
        # must migrate within the survivors {0, 2}, never back onto 1.
        partition = VertexPartition(np.array([0, 0, 2, 2]), 3)
        cluster = SimulatedCluster(
            diamond, partition, ClusterConfig(num_nodes=3)
        )
        cluster.fail_node(1)
        reb = DynamicRebalancer(
            imbalance_threshold=0.01, max_fraction=1.0, warmup=0
        )
        reb.observe(np.array([100.0, 90.0, 1.0, 1.0]))
        event = reb.apply(cluster, iteration=4)
        assert event is not None
        assert event.source_node == 0 and event.target_node == 2
        assert not (cluster.owner == 1).any()


class TestClusterMigration:
    def test_migrate_updates_owner_and_fanout(self, diamond):
        partition = VertexPartition(np.array([0, 0, 1, 1]), 2)
        cluster = SimulatedCluster(diamond, partition, ClusterConfig(num_nodes=2))
        before = cluster.remote_fanout.copy()
        cluster.migrate(np.array([2]), 0)
        assert cluster.owner.tolist() == [0, 0, 0, 1]
        assert not np.array_equal(cluster.remote_fanout, before)

    def test_migrate_validates_target(self, diamond):
        partition = VertexPartition(np.zeros(4, dtype=np.int64), 1)
        cluster = SimulatedCluster(diamond, partition, ClusterConfig(num_nodes=1))
        with pytest.raises(ValueError):
            cluster.migrate(np.array([0]), 5)


class TestEngineIntegration:
    @pytest.fixture(scope="class")
    def graph(self):
        return datasets.load("LJ", scale_divisor=8000, weighted=True)

    def make_engine(self, graph, rebalancer):
        return SLFEEngine(
            graph,
            config=ClusterConfig(num_nodes=4),
            rebalancer=rebalancer,
        )

    def test_results_unchanged_by_rebalancing(self, graph):
        root = int(np.argmax(graph.out_degrees()))
        reb = DynamicRebalancer(period=2, imbalance_threshold=0.05)
        result = self.make_engine(graph, reb).run_minmax(SSSP(), root=root)
        assert np.allclose(result.values, reference.dijkstra(graph, root))

    def test_migrations_happen_and_are_charged(self, graph):
        root = int(np.argmax(graph.out_degrees()))
        reb = DynamicRebalancer(period=2, imbalance_threshold=0.05)
        plain = self.make_engine(graph, None).run_minmax(SSSP(), root=root)
        moved = self.make_engine(graph, reb).run_minmax(SSSP(), root=root)
        assert reb.total_vertices_moved > 0
        assert (
            moved.metrics.total_message_bytes
            >= plain.metrics.total_message_bytes
        )

    def test_rebalancing_fixes_lopsided_partition(self, graph):
        # The rebalancer's value case: a persistently skewed initial
        # partition (chunking is already balanced, so there it should
        # mostly stay quiet — see the threshold test below).
        def engine(rebalancer):
            return SLFEEngine(
                graph,
                config=ClusterConfig(num_nodes=4),
                partitioner=Lopsided(),
                rebalancer=rebalancer,
            )

        expected = reference.pagerank(graph, tolerance=1e-11)
        plain = engine(None).run_arithmetic(PageRank(), tolerance=1e-9)
        reb = DynamicRebalancer(period=2, imbalance_threshold=0.2)
        moved = engine(reb).run_arithmetic(PageRank(), tolerance=1e-9)
        assert np.allclose(moved.values, expected, atol=5e-4, rtol=1e-3)
        assert reb.total_vertices_moved > 0
        assert (
            moved.metrics.node_imbalance() < plain.metrics.node_imbalance()
        )

    def test_balanced_partition_stays_quiet_at_default_threshold(self, graph):
        root = int(np.argmax(graph.out_degrees()))
        reb = DynamicRebalancer()  # default 25% threshold
        self.make_engine(graph, reb).run_minmax(SSSP(), root=root)
        # Chunking keeps the gap well under the trigger.
        assert reb.total_vertices_moved == 0

    def test_arithmetic_with_rebalancing(self, graph):
        reb = DynamicRebalancer(period=3, imbalance_threshold=0.05)
        result = self.make_engine(graph, reb).run_arithmetic(
            PageRank(), tolerance=1e-9
        )
        expected = reference.pagerank(graph, tolerance=1e-11)
        assert np.allclose(result.values, expected, atol=5e-4, rtol=1e-3)


@pytest.fixture
def owner_maps(monkeypatch):
    """The owner map in force at each superstep, one per metrics record.

    Read when the record opens: a crash moves ownership before that, a
    migration after the superstep's edge ops are charged.
    """
    maps = []
    new_metrics = SimulatedCluster.new_metrics

    def recording(cluster):
        metrics = new_metrics(cluster)
        begin = metrics.begin_iteration

        def begin_iteration(mode):
            maps.append(cluster.owner.copy())
            return begin(mode)

        metrics.begin_iteration = begin_iteration
        return metrics

    monkeypatch.setattr(SimulatedCluster, "new_metrics", recording)
    return maps


class TestMigrationAccounting:
    """Mid-run migration moves where work is charged, never the values."""

    @pytest.fixture(scope="class")
    def graph(self):
        return datasets.load("LJ", scale_divisor=8000, weighted=True)

    @pytest.mark.parametrize("faults", [False, True], ids=["clean", "crash"])
    @pytest.mark.parametrize("rr", [True, False], ids=["rr", "norr"])
    @pytest.mark.parametrize("app", ["PR", "SSSP"])
    def test_edge_ops_follow_the_owner_map(
        self, graph, owner_maps, app, rr, faults
    ):
        root = int(np.argmax(graph.out_degrees()))
        kwargs = dict(
            config=ClusterConfig(num_nodes=4),
            partitioner=Lopsided(),
            enable_rr=rr,
        )
        if faults:
            kwargs.update(
                fault_plan=FaultPlan.parse(
                    "crash@3:1,loss@2:0-2x2,slow@4:1x2.5+3", num_nodes=4
                ),
                checkpoint_every=2,
            )

        def run(**extra):
            engine = SLFEEngine(graph, **kwargs, **extra)
            if app == "PR":
                return engine.run_arithmetic(PageRank())
            return engine.run_minmax(SSSP(), root=root)

        static = run()
        del owner_maps[:]
        reb = DynamicRebalancer(period=2, imbalance_threshold=0.01, warmup=0)
        moved = run(rebalancer=reb, record_per_vertex_ops=True)

        assert np.array_equal(moved.values, static.values)
        assert reb.total_vertices_moved > 0
        records = moved.metrics.records
        assert len(records) == len(owner_maps) == len(moved.per_vertex_ops)
        for record, owner, (ids, ops) in zip(
            records, owner_maps, moved.per_vertex_ops
        ):
            recount = np.bincount(owner[ids], weights=ops, minlength=4)
            assert np.array_equal(
                record.edge_ops_per_node, recount.astype(np.int64)
            ), "superstep %d charged to a stale owner map" % record.iteration
