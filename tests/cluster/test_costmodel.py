"""Unit tests for the network and cost models."""

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig, NetworkConfig, NodeConfig
from repro.cluster.costmodel import CostModel
from repro.cluster.metrics import MetricsCollector
from repro.cluster.network import NetworkModel


class TestNetworkModel:
    def test_zero_traffic_is_free(self):
        net = NetworkModel(NetworkConfig())
        assert net.transfer_seconds(0, 0) == 0.0

    def test_latency_plus_bandwidth(self):
        cfg = NetworkConfig(
            latency_seconds=1e-3,
            bandwidth_bytes_per_second=1e6,
            bytes_per_update=10,
        )
        net = NetworkModel(cfg)
        # 2 pairs * 1ms + 5000 bytes / 1MB/s = 2ms + 5ms
        assert net.transfer_seconds(5000, 2) == pytest.approx(0.007)

    def test_update_bytes(self):
        net = NetworkModel(NetworkConfig(bytes_per_update=16))
        assert net.update_bytes(10) == 160


def run_with(edge_ops_per_node_list, messages=0, message_bytes=0, io_bytes=0):
    m = MetricsCollector(len(edge_ops_per_node_list[0]))
    for ops in edge_ops_per_node_list:
        m.begin_iteration("pull")
        m.add_edge_ops(np.array(ops))
        if messages:
            m.add_messages(messages, message_bytes)
        if io_bytes:
            m.add_io(io_bytes)
        m.end_iteration()
    return m


class TestCostModel:
    def test_compute_uses_slowest_node(self):
        cfg = ClusterConfig(num_nodes=2, node=NodeConfig(cores=1))
        model = CostModel(cfg)
        balanced = model.evaluate(run_with([[100, 100]]))
        skewed = model.evaluate(run_with([[180, 20]]))
        assert skewed.compute_seconds > balanced.compute_seconds
        # Same totals, so the difference is pure imbalance cost.
        assert skewed.compute_seconds == pytest.approx(
            balanced.compute_seconds * 1.8
        )

    def test_more_cores_is_faster(self):
        m = run_with([[10000, 10000]])
        slow = CostModel(
            ClusterConfig(num_nodes=2, node=NodeConfig(cores=1))
        ).evaluate(m)
        fast = CostModel(
            ClusterConfig(num_nodes=2, node=NodeConfig(cores=32))
        ).evaluate(m)
        assert fast.compute_seconds < slow.compute_seconds

    def test_messages_cost_network_time(self):
        model = CostModel(ClusterConfig(num_nodes=2))
        silent = model.evaluate(run_with([[10, 10]]))
        chatty = model.evaluate(
            run_with([[10, 10]], messages=100, message_bytes=1600)
        )
        assert silent.network_seconds == 0.0
        assert chatty.network_seconds > 0.0

    def test_io_costs_disk_time(self):
        model = CostModel(ClusterConfig(num_nodes=1))
        run = model.evaluate(run_with([[10]], io_bytes=150_000_000))
        assert run.io_seconds == pytest.approx(1.0)

    def test_preprocessing_seconds(self):
        model = CostModel(ClusterConfig(num_nodes=2, node=NodeConfig(cores=1)))
        m = run_with([[10, 10]])
        m.preprocessing_ops = 1_000_000
        run = model.evaluate(m)
        expected = (
            500_000 * model.config.node.seconds_per_edge_op
        )  # per node, 1 core
        assert run.preprocessing_seconds == pytest.approx(expected)
        assert run.total_seconds == pytest.approx(
            run.execution_seconds + expected
        )

    @pytest.mark.parametrize("ops", [0, 1, 7, 1_000_003, 2**40 + 1])
    def test_preprocessing_is_the_spread_formula(self, ops):
        # The report's RR estimates and evaluate() share this term; it
        # must stay the exact float expression evaluate() always used.
        model = CostModel(ClusterConfig(num_nodes=3))
        node = model.config.node
        expected = ops / 3 * node.seconds_per_edge_op / node.speedup()
        assert model.spread_seconds(ops) == expected
        m = run_with([[1, 1, 1]])
        m.preprocessing_ops = ops
        assert model.evaluate(m).preprocessing_seconds == expected

    def test_mode_fraction(self):
        m = MetricsCollector(1)
        m.begin_iteration("pull")
        m.add_edge_ops(np.array([300]))
        m.end_iteration()
        m.begin_iteration("push")
        m.add_edge_ops(np.array([100]))
        m.end_iteration()
        run = CostModel(ClusterConfig(num_nodes=1)).evaluate(m)
        assert run.mode_fraction("pull") == pytest.approx(0.75)
        assert run.mode_fraction("push") == pytest.approx(0.25)

    def test_mode_fraction_empty_run(self):
        run = CostModel(ClusterConfig(num_nodes=1)).evaluate(MetricsCollector(1))
        assert run.mode_fraction("pull") == 0.0

    def test_scaling_curve_monotone(self):
        m = run_with([[100000]])
        model = CostModel(ClusterConfig(num_nodes=1))
        curve = model.scaling_curve(m, [1, 2, 4, 8, 16, 32, 68])
        assert np.all(np.diff(curve) < 0)

    def test_scaling_curve_matches_amdahl_ratio(self):
        m = run_with([[100000]])
        cfg = ClusterConfig(num_nodes=1)
        model = CostModel(cfg)
        curve = model.scaling_curve(m, [1, 68])
        assert curve[0] / curve[1] == pytest.approx(
            cfg.node.speedup(68) / cfg.node.speedup(1)
        )
