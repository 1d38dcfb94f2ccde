"""The hybrid.tbloff hashing instruction (footnote 1)."""

from hypothesis import given, settings, strategies as st

from repro.core.tbloff import (table_bit_index, table_entry_addr,
                               table_slot, tbloff)
from repro.runtime.layout import FINE_TABLE_BYTES

addresses = st.integers(min_value=0, max_value=(1 << 32) - 1)


class TestBitFields:
    def test_bit_index_uses_addr_9_to_5(self):
        assert table_bit_index(0) == 0
        assert table_bit_index(1 << 5) == 1
        assert table_bit_index(0x3E0) == 31
        assert table_bit_index(1 << 10) == 0  # bit 10 is in the word offset

    def test_word_offset_is_word_aligned(self):
        for addr in (0, 0x123456, 0xFFFFFFFF):
            assert tbloff(addr) % 4 == 0

    def test_low_line_bits_share_a_word(self):
        """32 consecutive lines (1 KB) map to 32 bits of one word."""
        base = 0x40000000
        offsets = {tbloff(base + 32 * i) for i in range(32)}
        bits = {table_bit_index(base + 32 * i) for i in range(32)}
        assert len(offsets) == 1
        assert bits == set(range(32))

    def test_channel_stride_bits_in_offset(self):
        """addr[13..11] land in word-offset bits [13..11] (footnote 1)."""
        base = 0x40000000
        for channel in range(8):
            addr = base | (channel << 11)
            word_offset = tbloff(addr) >> 2
            assert (word_offset >> 11) & 0x7 == channel

    def test_table_entry_addr(self):
        assert table_entry_addr(0xFE000000, 0) == 0xFE000000
        addr = 0x1234_5678
        assert table_entry_addr(0xFE000000, addr) == 0xFE000000 + tbloff(addr)

    def test_slot_composition(self):
        addr = 0xCAFE_BABE
        offset, bit = table_slot(addr)
        assert offset == tbloff(addr)
        assert bit == table_bit_index(addr)


class TestBijection:
    """The mapping is a permutation of the 27 line-address bits."""

    def test_offset_fits_16mb_table(self):
        for addr in (0, 0xFFFFFFFF, 0x80000000, 0x12345678):
            assert 0 <= tbloff(addr) < FINE_TABLE_BYTES

    @given(addresses)
    def test_offset_always_in_table(self, addr):
        assert 0 <= tbloff(addr) < FINE_TABLE_BYTES

    @given(addresses, addresses)
    def test_distinct_lines_distinct_bits(self, a, b):
        if (a >> 5) != (b >> 5):
            assert table_slot(a) != table_slot(b)
        else:
            assert table_slot(a) == table_slot(b)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=(1 << 27) - 1))
    def test_line_bits_fully_determine_slot(self, line):
        addr_a = line << 5
        addr_b = (line << 5) | 0x1F  # different byte within the line
        assert table_slot(addr_a) == table_slot(addr_b)

    def test_exhaustive_injectivity_on_a_window(self):
        """Every line of a 1 MB window maps to a unique table bit."""
        seen = set()
        for line in range(0x40000000 >> 5, (0x40000000 + (1 << 20)) >> 5):
            bit = table_slot(line << 5)
            assert bit not in seen
            seen.add(bit)
        assert len(seen) == (1 << 20) // 32
