"""Interconnect and DRAM timing substrate."""

import dataclasses
import math

import pytest

from repro import MachineConfig, Policy
from repro.analysis.experiments import ExperimentConfig, run_workload
from repro.interconnect.network import Network
from repro.mem.dram import DramModel


@pytest.fixture
def config():
    return MachineConfig().scaled(4)


class TestNetwork:
    def test_one_way_latency_composition(self, config):
        net = Network(config)
        expected = (config.cluster_bus_latency + 2 * config.tree_hop_latency
                    + config.crossbar_latency)
        assert net.one_way_latency == expected

    def test_tree_assignment(self):
        net = Network(MachineConfig())  # 128 clusters, 16 per tree
        assert net.tree_of(0) == 0
        assert net.tree_of(15) == 0
        assert net.tree_of(16) == 1
        assert net.tree_of(127) == 7

    def test_transit_includes_latency(self, config):
        net = Network(config)
        arrive = net.to_l3(0, 100.0)
        assert arrive >= 100.0 + net.one_way_latency

    def test_round_trip(self, config):
        net = Network(config)
        done = net.round_trip(0, 0.0, service=10.0)
        assert done >= 2 * net.one_way_latency + 10.0

    def test_message_counting(self, config):
        net = Network(config)
        net.to_l3(0, 0.0)
        net.to_cluster(1, 5.0)
        assert net.messages == 2

    def test_saturation_queues(self, config):
        net = Network(config)
        base = net.to_l3(0, 0.0)
        for _ in range(2000):
            last = net.to_l3(0, 0.0)
        assert last > base  # the link backed up


class TestSlowNetwork:
    """A tree link slower than one message per capacity bucket: each
    message's 50-cycle occupancy spills across buckets."""

    RATE = 0.02

    def test_burst_queues(self, config):
        net = Network(dataclasses.replace(config,
                                          tree_msgs_per_cycle=self.RATE))
        finishes = [net.to_l3(0, 0.0) for _ in range(20)]
        assert all(math.isfinite(f) for f in finishes)
        assert all(b > a for a, b in zip(finishes, finishes[1:]))
        # 19 queued 50-cycle occupancies, less bucket-granular starts.
        assert finishes[-1] - finishes[0] > 18 / self.RATE

    def test_workload_runs_slower(self):
        exp = ExperimentConfig(n_clusters=4, scale=0.1)
        fast, _ = run_workload("heat", Policy.cohesion(), exp)
        slow, _ = run_workload("heat", Policy.cohesion(), exp,
                               tree_msgs_per_cycle=self.RATE)
        assert slow.cycles > fast.cycles


class TestDram:
    def test_access_latency(self, config):
        dram = DramModel(config)
        done = dram.access(0, 0.0)
        assert done >= config.dram_latency

    def test_channel_contention(self, config):
        dram = DramModel(config)
        first = dram.access(0, 0.0)
        for _ in range(200):
            last = dram.access(0, 0.0)
        assert last > first

    def test_channels_independent(self, config):
        if config.dram_channels < 2:
            pytest.skip("single-channel scaled config")
        dram = DramModel(config)
        for _ in range(50):
            dram.access(0, 0.0)
        assert dram.access(1, 0.0) == pytest.approx(
            config.dram_latency + dram.occupancy_per_line)

    def test_access_counting(self, config):
        dram = DramModel(config)
        dram.access(0, 0.0)
        dram.access(0, 1.0)
        assert dram.accesses[0] == 2
        assert dram.total_accesses == 2

    def test_multi_line_transfer_costs_more(self, config):
        dram = DramModel(config)
        one = dram.access(0, 0.0, lines=1)
        dram2 = DramModel(config)
        four = dram2.access(0, 0.0, lines=4)
        assert four > one

    def test_bandwidth_from_config(self):
        config = MachineConfig()
        dram = DramModel(config)
        # 16 B/cycle/channel -> 2 cycles per 32 B line
        assert dram.occupancy_per_line == pytest.approx(2.0)
