"""Interconnect and DRAM timing substrate."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import MachineConfig
from repro.interconnect.network import _XBAR_OCCUPANCY, Network
from repro.mem.dram import DramModel
from repro.timing import Resource, ResourceGroup


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


class _ReferenceNetwork:
    """Twin links and crossbar driven through plain Resource.acquire."""

    def __init__(self, net: Network) -> None:
        self.net = net
        self.up_links = ResourceGroup(net.n_trees)
        self.down_links = ResourceGroup(net.n_trees)
        self.crossbar = Resource()

    def to_l3(self, cluster: int, now: float) -> float:
        net = self.net
        link = self.up_links[cluster // net.clusters_per_tree]
        start = link.acquire(now, net.tree_occupancy)
        begin = self.crossbar.acquire(start, _XBAR_OCCUPANCY)
        return begin + net.one_way_latency

    def to_cluster(self, cluster: int, now: float) -> float:
        net = self.net
        start = self.crossbar.acquire(now, _XBAR_OCCUPANCY)
        link = self.down_links[cluster // net.clusters_per_tree]
        begin = link.acquire(start, net.tree_occupancy)
        return begin + net.one_way_latency


def _tallies(net):
    resources = net.up_links.members + net.down_links.members + [net.crossbar]
    return [(r.acquisitions, r.total_busy) for r in resources]


class TestInlinedAcquire:
    """``to_l3``/``to_cluster`` inline ``Resource.acquire``; they must
    agree with the general method on every call, saturated or not."""

    @settings(max_examples=30, deadline=None)
    # 1,280 messages at one instant: past the crossbar's 512 per bucket.
    @example(rate=4.0, calls=[(c, 0.0, c % 4 == 0, 40) for c in range(32)])
    # Each link message fills a whole bucket: the links saturate at once.
    @example(rate=1.0 / 32.0, calls=[(0, 0.0, True, 40), (17, 3.0, False, 40)])
    @given(rate=st.sampled_from([1.0 / 32.0, 0.125, 1.0, 4.0]),
           calls=st.lists(st.tuples(st.integers(0, 31),
                                    st.floats(0.0, 64.0),
                                    st.booleans(),
                                    st.integers(1, 256)),
                          min_size=1, max_size=40))
    def test_matches_general_acquire(self, rate, calls):
        net = Network(MachineConfig().scaled(32, tree_msgs_per_cycle=rate))
        ref = _ReferenceNetwork(net)
        for cluster, now, up, repeat in calls:
            for _ in range(repeat):
                if up:
                    assert net.to_l3(cluster, now) == ref.to_l3(cluster, now)
                else:
                    assert (net.to_cluster(cluster, now)
                            == ref.to_cluster(cluster, now))
                assert _tallies(net) == _tallies(ref)


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
