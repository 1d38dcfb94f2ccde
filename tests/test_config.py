"""Machine configuration (Table 3) and policy validation."""

import dataclasses

import pytest

from repro.config import MAX_OCCUPANCY_CYCLES, MachineConfig, Policy
from repro.errors import ConfigError
from repro.types import DirectoryKind, PolicyKind


class TestTable3Defaults:
    """The default MachineConfig is exactly the paper's Table 3."""

    def test_cores_and_clusters(self):
        config = MachineConfig()
        assert config.n_cores == 1024
        assert config.cores_per_cluster == 8
        assert config.n_clusters == 128

    def test_cache_sizes(self):
        config = MachineConfig()
        assert config.l1i_bytes == 2 * 1024 and config.l1i_assoc == 2
        assert config.l1d_bytes == 1 * 1024 and config.l1d_assoc == 2
        assert config.l2_bytes == 64 * 1024 and config.l2_assoc == 16
        assert config.l3_bytes == 4 * 1024 * 1024 and config.l3_assoc == 8

    def test_line_and_latencies(self):
        config = MachineConfig()
        assert config.line_bytes == 32
        assert config.l2_latency == 4
        assert config.l3_latency == 16
        assert config.l2_ports == 2

    def test_l2_aggregate_is_8mb(self):
        assert MachineConfig().l2_total_bytes == 8 * 1024 * 1024

    def test_memory_system(self):
        config = MachineConfig()
        assert config.l3_banks == 32
        assert config.dram_channels == 8
        assert config.memory_bw_gbps == 192.0
        assert config.core_freq_ghz == 1.5

    def test_derived_quantities(self):
        config = MachineConfig()
        assert config.l2_lines == 2048
        assert config.l3_bank_bytes == 128 * 1024
        assert config.words_per_line == 8
        assert config.n_trees == 8
        # 192 GB/s at 1.5 GHz = 128 B/cycle over 8 channels
        assert config.dram_bytes_per_cycle_per_channel == pytest.approx(16.0)


class TestConfigValidation:
    def test_cores_must_divide_clusters(self):
        with pytest.raises(ConfigError):
            MachineConfig(n_cores=1001)

    def test_only_32_byte_lines(self):
        with pytest.raises(ConfigError):
            MachineConfig(line_bytes=64)

    def test_cache_size_must_be_line_multiple(self):
        with pytest.raises(ConfigError):
            MachineConfig(l2_bytes=1000)

    def test_assoc_must_divide_lines(self):
        with pytest.raises(ConfigError):
            MachineConfig(l2_bytes=32 * 3 * 5, l2_assoc=16)

    def test_banks_multiple_of_channels(self):
        with pytest.raises(ConfigError):
            MachineConfig(l3_banks=12, dram_channels=8)

    def test_channels_power_of_two(self):
        with pytest.raises(ConfigError):
            MachineConfig(dram_channels=3)

    def test_clusters_per_tree_divides(self):
        with pytest.raises(ConfigError):
            MachineConfig(n_cores=8 * 24, clusters_per_tree=16)

    def test_tree_rate_must_be_positive(self):
        for rate in (0.0, -1.0, float("nan")):
            with pytest.raises(ConfigError):
                MachineConfig(tree_msgs_per_cycle=rate)
        # Occupancies wider than a capacity bucket are legal.
        MachineConfig(tree_msgs_per_cycle=0.02)

    @pytest.mark.parametrize("field", ["core_freq_ghz", "memory_bw_gbps"])
    def test_dram_rates_must_be_positive(self, field):
        for value in (0.0, -1.0):
            with pytest.raises(ConfigError, match=field):
                MachineConfig(**{field: value})

    def test_occupancy_is_bounded(self):
        # A near-zero rate would make each message or line transfer hold
        # its link or channel for an unbounded number of cycles.
        with pytest.raises(ConfigError, match="tree_msgs_per_cycle"):
            MachineConfig(tree_msgs_per_cycle=1e-9)
        with pytest.raises(ConfigError, match="memory_bw_gbps"):
            MachineConfig(memory_bw_gbps=1e-9)
        with pytest.raises(ConfigError, match="memory_bw_gbps"):
            MachineConfig(memory_bw_gbps=1e-320)
        MachineConfig(tree_msgs_per_cycle=1.0 / MAX_OCCUPANCY_CYCLES)
        # The 1-cluster scaled machine holds a DRAM channel 32 cycles.
        MachineConfig().scaled(1)

    @pytest.mark.parametrize("field", [
        "n_cores", "cores_per_cluster", "clusters_per_tree", "l1i_assoc",
        "l1d_assoc", "l2_assoc", "l3_assoc", "l3_banks", "l2_bytes"])
    def test_counts_must_be_positive(self, field):
        with pytest.raises(ConfigError, match=field):
            MachineConfig(**{field: 0})

    def test_l2_needs_a_port(self):
        with pytest.raises(ConfigError):
            MachineConfig(l2_ports=0)


class TestScaled:
    def test_scaled_preserves_per_cluster_resources(self):
        small = MachineConfig().scaled(4)
        assert small.n_clusters == 4
        assert small.l2_bytes == 64 * 1024
        assert small.l1d_bytes == 1024

    def test_scaled_shrinks_shared_resources(self):
        small = MachineConfig().scaled(4)
        assert small.l3_banks <= 32
        assert small.dram_channels <= 8
        assert small.memory_bw_gbps < 192.0

    def test_scaled_identity(self):
        same = MachineConfig().scaled(128)
        assert same.n_cores == 1024
        assert same.l3_banks == 32

    def test_scaled_validates(self):
        with pytest.raises(ConfigError):
            MachineConfig().scaled(0)
        with pytest.raises(ConfigError):
            MachineConfig().scaled(256)  # cannot grow
        with pytest.raises(ConfigError):
            MachineConfig().scaled(3)  # must divide 128

    def test_scaled_overrides(self):
        small = MachineConfig().scaled(4, l2_bytes=8 * 1024)
        assert small.l2_bytes == 8 * 1024

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 64, 128])
    def test_all_power_of_two_scales_valid(self, n):
        config = MachineConfig().scaled(n)
        assert config.n_clusters == n
        assert config.address_map.n_l3_banks == config.l3_banks


class TestPolicy:
    def test_named_design_points(self):
        assert Policy.swcc().kind is PolicyKind.SWCC
        assert not Policy.swcc().uses_directory
        assert Policy.hwcc_ideal().directory is DirectoryKind.INFINITE
        assert Policy.hwcc_real().directory is DirectoryKind.SPARSE
        assert Policy.hwcc_real().dir_entries_per_bank == 16 * 1024
        assert Policy.hwcc_real().dir_assoc == 128
        assert Policy.cohesion().hybrid
        assert Policy.cohesion_ideal().directory is DirectoryKind.INFINITE

    def test_sparse_sizing_validated(self):
        with pytest.raises(ConfigError):
            Policy.hwcc_real(entries_per_bank=0)
        with pytest.raises(ConfigError):
            Policy.hwcc_real(entries_per_bank=128, assoc=256)
        with pytest.raises(ConfigError):
            Policy.hwcc_real(entries_per_bank=100, assoc=8)

    def test_swcc_ignores_directory_sizing(self):
        policy = dataclasses.replace(Policy.swcc(), dir_entries_per_bank=-5)
        assert policy.kind is PolicyKind.SWCC

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            Policy.swcc().kind = PolicyKind.HWCC
