"""Machine and memory-model configuration.

:class:`MachineConfig` defaults reproduce Table 3 of the paper (the
1024-core baseline). :class:`Policy` selects one of the evaluated memory
models (Section 4.1): pure SWcc, optimistic or realistic HWcc, or
Cohesion, together with a directory organisation and sizing.

Pure Python cannot run the full 1024-core machine for every sweep in a
reasonable time, so :meth:`MachineConfig.scaled` produces a proportionally
smaller machine (fewer clusters, banks, and channels) that preserves the
per-cluster cache sizes and the sharer-to-directory ratios; see
EXPERIMENTS.md for which scale each experiment was run at.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.mem.address import LINE_BYTES, AddressMap
from repro.types import DirectoryKind, PolicyKind


#: Longest a single tree message or DRAM line transfer may hold its link
#: or channel, in cycles. The contention model charges one capacity
#: bucket entry per 32 cycles of hold, so rates implying holds far beyond
#: any plausible machine are rejected as bad input rather than simulated.
MAX_OCCUPANCY_CYCLES = 1024.0


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class MachineConfig:
    """Sizing and timing parameters of the simulated machine (Table 3)."""

    # -- organisation ------------------------------------------------------
    n_cores: int = 1024
    cores_per_cluster: int = 8
    line_bytes: int = LINE_BYTES

    # -- per-core L1s ------------------------------------------------------
    l1i_bytes: int = 2 * 1024
    l1i_assoc: int = 2
    l1d_bytes: int = 1 * 1024
    l1d_assoc: int = 2

    # -- per-cluster L2 ----------------------------------------------------
    l2_bytes: int = 64 * 1024
    l2_assoc: int = 16
    l2_latency: int = 4          # clks
    l2_ports: int = 2

    # -- shared L3 ---------------------------------------------------------
    l3_bytes: int = 4 * 1024 * 1024
    l3_assoc: int = 8
    l3_banks: int = 32
    l3_latency: int = 16         # clks, minimum ("16+")

    # -- DRAM --------------------------------------------------------------
    dram_channels: int = 8
    memory_bw_gbps: float = 192.0    # GB/s aggregate
    core_freq_ghz: float = 1.5
    dram_latency: int = 150          # core clks for a row access (GDDR5-ish)

    # -- interconnect ------------------------------------------------------
    clusters_per_tree: int = 16
    tree_hop_latency: int = 4        # clks per tree stage traversal
    crossbar_latency: int = 6        # clks through the central crossbar
    cluster_bus_latency: int = 2     # core <-> L2 split-phase bus
    tree_msgs_per_cycle: float = 4.0  # root-link bandwidth per direction

    # -- miss handling -------------------------------------------------------
    write_buffer_depth: int = 16
    """Posted operations (store misses, upgrades, writebacks, releases)
    in flight per cluster before the issuing core stalls."""

    # -- functional layer --------------------------------------------------
    track_data: bool = False
    """Store per-word values end to end so tests can check read results."""

    def __post_init__(self) -> None:
        for name in ("n_cores", "cores_per_cluster", "clusters_per_tree",
                     "l1i_assoc", "l1d_assoc", "l2_assoc", "l3_assoc",
                     "l3_banks"):
            if not getattr(self, name) >= 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.n_cores % self.cores_per_cluster:
            raise ConfigError("n_cores must be a multiple of cores_per_cluster")
        if self.line_bytes != LINE_BYTES:
            raise ConfigError("only 32-byte lines are supported")
        for name in ("l1i_bytes", "l1d_bytes", "l2_bytes", "l3_bytes"):
            size = getattr(self, name)
            if not size > 0 or size % self.line_bytes:
                raise ConfigError(
                    f"{name} must be a positive multiple of the line size")
        if not _is_pow2(self.dram_channels):
            raise ConfigError("dram_channels must be a power of two")
        if self.l3_banks % self.dram_channels:
            raise ConfigError("l3_banks must be a multiple of dram_channels")
        n_clusters = self.n_cores // self.cores_per_cluster
        if n_clusters % self.clusters_per_tree:
            raise ConfigError("cluster count must be a multiple of clusters_per_tree")
        # Compared by multiplication so tiny rates cannot divide by zero.
        if not self.tree_msgs_per_cycle * MAX_OCCUPANCY_CYCLES >= 1:
            raise ConfigError(
                "tree_msgs_per_cycle must be at least "
                f"1/{MAX_OCCUPANCY_CYCLES:g} (one message per "
                f"{MAX_OCCUPANCY_CYCLES:g} cycles)")
        if not self.core_freq_ghz > 0:
            raise ConfigError("core_freq_ghz must be positive")
        if not self.memory_bw_gbps > 0:
            raise ConfigError("memory_bw_gbps must be positive")
        if not (self.dram_bytes_per_cycle_per_channel * MAX_OCCUPANCY_CYCLES
                >= self.line_bytes):
            raise ConfigError(
                "memory_bw_gbps / core_freq_ghz is too low: a DRAM line "
                "transfer may hold its channel at most "
                f"{MAX_OCCUPANCY_CYCLES:g} cycles")
        if self.l2_ports < 1:
            raise ConfigError("l2_ports must be at least 1")
        if self.write_buffer_depth <= 0:
            raise ConfigError("write_buffer_depth must be positive")
        for cache, assoc in (("l1i", self.l1i_assoc), ("l1d", self.l1d_assoc),
                             ("l2", self.l2_assoc), ("l3", self.l3_assoc)):
            lines = getattr(self, f"{cache}_bytes") // self.line_bytes
            if lines % assoc:
                raise ConfigError(f"{cache}: line count not divisible by associativity")

    # -- derived quantities --------------------------------------------------
    @property
    def n_clusters(self) -> int:
        return self.n_cores // self.cores_per_cluster

    @property
    def n_trees(self) -> int:
        return self.n_clusters // self.clusters_per_tree

    @property
    def l2_lines(self) -> int:
        return self.l2_bytes // self.line_bytes

    @property
    def l2_total_bytes(self) -> int:
        return self.l2_bytes * self.n_clusters

    @property
    def l3_bank_bytes(self) -> int:
        return self.l3_bytes // self.l3_banks

    @property
    def words_per_line(self) -> int:
        return self.line_bytes // 4

    @property
    def dram_bytes_per_cycle_per_channel(self) -> float:
        total = self.memory_bw_gbps / self.core_freq_ghz  # bytes per core clk
        return total / self.dram_channels

    @property
    def address_map(self) -> AddressMap:
        return AddressMap(n_channels=self.dram_channels, n_l3_banks=self.l3_banks)

    def scaled(self, n_clusters: int, **overrides) -> "MachineConfig":
        """Return a proportionally scaled-down machine.

        Keeps per-cluster resources identical and shrinks the shared L3,
        its banking, the DRAM channels, and aggregate bandwidth in
        proportion, so that per-cluster pressure on shared resources --
        and therefore normalized message/occupancy results -- match the
        full machine.
        """
        if n_clusters <= 0:
            raise ConfigError("n_clusters must be positive")
        base = self.n_clusters
        if n_clusters > base:
            raise ConfigError("scaled() only shrinks the machine")
        factor = base // n_clusters
        if base % n_clusters:
            raise ConfigError(f"n_clusters must divide {base}")
        channels = max(1, self.dram_channels // factor)
        while not _is_pow2(channels):
            channels -= 1
        banks = max(channels, self.l3_banks // factor)
        banks -= banks % channels
        per = banks // channels
        while not _is_pow2(per):
            per -= 1
            banks = per * channels
        fields = dict(
            n_cores=n_clusters * self.cores_per_cluster,
            l3_bytes=max(self.l3_bank_bytes, self.l3_bytes // factor),
            l3_banks=banks,
            dram_channels=channels,
            memory_bw_gbps=self.memory_bw_gbps / factor,
            clusters_per_tree=min(self.clusters_per_tree, n_clusters),
        )
        fields.update(overrides)
        return dataclasses.replace(self, **fields)


@dataclass(frozen=True)
class Policy:
    """A memory-model design point (Section 4.1).

    ``kind`` selects the protocol family; ``directory`` and its sizing
    select the directory organisation used for the HWcc domain (ignored
    for pure SWcc, which has no directory).
    """

    kind: PolicyKind = PolicyKind.COHESION
    directory: DirectoryKind = DirectoryKind.SPARSE
    dir_entries_per_bank: int = 16 * 1024
    dir_assoc: int = 128
    raise_on_swcc_race: bool = True
    """Raise :class:`~repro.errors.CoherenceRaceError` on Case 5b races."""

    def __post_init__(self) -> None:
        if self.kind is PolicyKind.SWCC:
            return
        if self.directory is DirectoryKind.INFINITE:
            return
        if self.dir_entries_per_bank <= 0:
            raise ConfigError("dir_entries_per_bank must be positive")
        if self.dir_assoc <= 0:
            raise ConfigError("dir_assoc must be positive")
        if self.dir_assoc > self.dir_entries_per_bank:
            raise ConfigError("dir_assoc cannot exceed entries per bank")
        if self.dir_entries_per_bank % self.dir_assoc:
            raise ConfigError("dir_entries_per_bank must be a multiple of dir_assoc")

    # -- the four named design points of Section 4.1 -------------------------
    @staticmethod
    def swcc() -> "Policy":
        """Pure software-managed coherence: no directory at all."""
        return Policy(kind=PolicyKind.SWCC, directory=DirectoryKind.INFINITE)

    @staticmethod
    def hwcc_ideal() -> "Policy":
        """Optimistic HWcc: infinite, zero-cost, full-map directory."""
        return Policy(kind=PolicyKind.HWCC, directory=DirectoryKind.INFINITE)

    @staticmethod
    def hwcc_real(entries_per_bank: int = 16 * 1024, assoc: int = 128) -> "Policy":
        """Realistic HWcc: sparse set-associative on-die directory."""
        return Policy(kind=PolicyKind.HWCC, directory=DirectoryKind.SPARSE,
                      dir_entries_per_bank=entries_per_bank, dir_assoc=assoc)

    @staticmethod
    def cohesion(entries_per_bank: int = 16 * 1024, assoc: int = 128,
                 directory: DirectoryKind = DirectoryKind.SPARSE) -> "Policy":
        """Cohesion with the same realistic directory hardware as hwcc_real."""
        return Policy(kind=PolicyKind.COHESION, directory=directory,
                      dir_entries_per_bank=entries_per_bank, dir_assoc=assoc)

    @staticmethod
    def cohesion_ideal() -> "Policy":
        """Cohesion with an unbounded full-map directory (Figure 10's base)."""
        return Policy(kind=PolicyKind.COHESION, directory=DirectoryKind.INFINITE)

    @property
    def uses_directory(self) -> bool:
        return self.kind is not PolicyKind.SWCC

    @property
    def hybrid(self) -> bool:
        return self.kind is PolicyKind.COHESION
