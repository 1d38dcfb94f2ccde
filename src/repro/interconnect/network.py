"""Interconnect timing between clusters and L3 cache banks.

The baseline (Section 3.1, Figure 4) connects cores to their cluster's L2
over a pipelined two-lane split-phase bus; clusters reach the L3 through
a two-level network: a tree that combines the traffic of sixteen
clusters, whose root feeds an unordered crossbar connected to the L3
banks. We model:

* a fixed one-way latency (bus + tree stages + crossbar),
* per-tree-root link bandwidth (one message per cycle per direction),
* crossbar slot bandwidth shared by all traffic.

Messages are point-to-point and unordered, matching the paper's
"unordered multistage bi-directional interconnect"; ordering guarantees
come from serialising at the home directory bank, never from the network.
"""

from __future__ import annotations

from repro.config import MachineConfig
from repro.obs.bus import EV_NET, ObsEvent
from repro.timing import Resource, ResourceGroup

#: The crossbar switches many messages per cycle across its ports.
_XBAR_OCCUPANCY = 1.0 / 16.0


class Network:
    """Latency and contention model for the cluster <-> L3 interconnect."""

    __slots__ = ("one_way_latency", "n_trees", "clusters_per_tree",
                 "up_links", "down_links", "crossbar", "messages",
                 "tree_occupancy", "obs")

    def __init__(self, config: MachineConfig) -> None:
        tree_stages = 2  # 16-cluster combining tree: two 4:1 stages
        self.one_way_latency = (config.cluster_bus_latency
                                + tree_stages * config.tree_hop_latency
                                + config.crossbar_latency)
        self.n_trees = config.n_trees
        self.clusters_per_tree = config.clusters_per_tree
        # The two-lane split-phase root links move several message
        # headers per cycle per direction (Table 3's network).
        self.tree_occupancy = 1.0 / config.tree_msgs_per_cycle
        self.up_links = ResourceGroup(self.n_trees)
        self.down_links = ResourceGroup(self.n_trees)
        self.crossbar = Resource()
        self.messages = 0
        # Observability bus, wired by the owning MemorySystem.
        self.obs = None

    def tree_of(self, cluster: int) -> int:
        return cluster // self.clusters_per_tree

    def to_l3(self, cluster: int, now: float) -> float:
        """Time a message sent by ``cluster`` at ``now`` reaches its L3 bank."""
        self.messages += 1
        link = self.up_links.members[cluster // self.clusters_per_tree]
        start = link.acquire(now, self.tree_occupancy)
        begin = self.crossbar.acquire(start, _XBAR_OCCUPANCY)
        finish = begin + self.one_way_latency
        obs = self.obs
        if obs is not None and obs.active:
            obs.emit(ObsEvent(now, EV_NET, cluster, dur=finish - now,
                              detail="up"))
        return finish

    def to_cluster(self, cluster: int, now: float) -> float:
        """Time a reply/probe sent at ``now`` arrives at ``cluster``."""
        self.messages += 1
        start = self.crossbar.acquire(now, _XBAR_OCCUPANCY)
        link = self.down_links.members[cluster // self.clusters_per_tree]
        begin = link.acquire(start, self.tree_occupancy)
        finish = begin + self.one_way_latency
        obs = self.obs
        if obs is not None and obs.active:
            obs.emit(ObsEvent(now, EV_NET, cluster, dur=finish - now,
                              detail="down"))
        return finish

    def round_trip(self, cluster: int, now: float, service: float = 0.0) -> float:
        """Convenience: request down, ``service`` cycles, reply back up."""
        arrive = self.to_l3(cluster, now)
        return self.to_cluster(cluster, arrive + service)
