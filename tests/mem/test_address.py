"""Address arithmetic and L3-bank/DRAM-channel mapping."""

import pytest
from hypothesis import given, strategies as st

from repro.mem.address import (ADDRESS_SPACE, FULL_WORD_MASK, LINE_BYTES,
                               WORDS_PER_LINE, AddressMap, align_up,
                               line_base, line_of, lines_in_range,
                               word_index)

addresses = st.integers(min_value=0, max_value=ADDRESS_SPACE - 1)


class TestLineMath:
    def test_line_of_base(self):
        assert line_of(0) == 0
        assert line_of(31) == 0
        assert line_of(32) == 1

    def test_line_base_roundtrip(self):
        assert line_base(line_of(0x1234)) == 0x1220

    def test_word_index_cycles(self):
        assert [word_index(4 * i) for i in range(8)] == list(range(8))
        assert word_index(32) == 0

    def test_full_mask_covers_line(self):
        assert FULL_WORD_MASK == (1 << WORDS_PER_LINE) - 1
        assert WORDS_PER_LINE * 4 == LINE_BYTES

    @given(addresses)
    def test_line_contains_address(self, addr):
        base = line_base(line_of(addr))
        assert base <= addr < base + LINE_BYTES

    def test_align_down_up(self):
        assert line_base(line_of(33)) == 32
        assert line_base(line_of(32)) == 32
        assert align_up(33) == 64
        assert align_up(64) == 64

    @given(addresses)
    def test_align_bracket(self, addr):
        down = line_base(line_of(addr))
        assert down <= addr <= align_up(addr)
        assert align_up(addr) - down in (0, LINE_BYTES)

    def test_lines_in_range_empty(self):
        assert list(lines_in_range(100, 0)) == []
        assert list(lines_in_range(100, -4)) == []

    def test_lines_in_range_single(self):
        assert list(lines_in_range(0, 1)) == [0]
        assert list(lines_in_range(0, 32)) == [0]
        assert list(lines_in_range(0, 33)) == [0, 1]

    def test_lines_in_range_straddle(self):
        assert list(lines_in_range(30, 4)) == [0, 1]

    @given(addresses, st.integers(min_value=1, max_value=4096))
    def test_lines_in_range_covers(self, base, size):
        lines = list(lines_in_range(base, size))
        assert lines[0] == line_of(base)
        assert lines[-1] == line_of(base + size - 1)
        assert lines == sorted(lines)


class TestAddressMap:
    def test_default_geometry(self):
        amap = AddressMap()
        assert amap.n_channels == 8
        assert amap.n_l3_banks == 32
        assert amap.banks_per_channel == 4

    def test_channel_stride_is_2kb(self):
        amap = AddressMap()
        assert amap.channel_of(0) == 0
        assert amap.channel_of(2047) == 0
        assert amap.channel_of(2048) == 1
        assert amap.channel_of(8 * 2048) == 0

    def test_bank_groups_by_channel(self):
        amap = AddressMap()
        for addr in range(0, 1 << 20, 4096):
            bank = amap.bank_of(addr)
            assert amap.channel_of_bank(bank) == amap.channel_of(addr)

    @given(addresses)
    def test_bank_in_range(self, addr):
        amap = AddressMap()
        assert 0 <= amap.bank_of(addr) < 32

    @given(addresses)
    def test_line_and_byte_mapping_agree(self, addr):
        amap = AddressMap()
        assert amap.bank_of_line(line_of(addr)) == amap.bank_of(line_base(line_of(addr)))

    def test_same_line_same_bank(self):
        amap = AddressMap()
        for base in (0, 0x1000, 0x12340):
            banks = {amap.bank_of(base + off) for off in range(0, 32, 4)}
            assert len(banks) == 1

    def test_single_channel_machine(self):
        amap = AddressMap(n_channels=1, n_l3_banks=1)
        assert amap.bank_of(0x12345678) == 0
        assert amap.channel_of(0xFFFFFFFF) == 0

    def test_rejects_non_pow2_channels(self):
        with pytest.raises(ValueError):
            AddressMap(n_channels=3, n_l3_banks=6)

    def test_rejects_banks_not_multiple_of_channels(self):
        with pytest.raises(ValueError):
            AddressMap(n_channels=4, n_l3_banks=6)

    def test_rejects_non_pow2_banks_per_channel(self):
        with pytest.raises(ValueError):
            AddressMap(n_channels=2, n_l3_banks=6)

    def test_uniform_bank_distribution(self):
        amap = AddressMap()
        counts = [0] * 32
        for line in range(32 * 64):
            counts[amap.bank_of_line(line)] += 1
        assert max(counts) == min(counts)
