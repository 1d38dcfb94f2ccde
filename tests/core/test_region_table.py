"""Coarse- and fine-grain region tables."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.region_table import (CoarseRegionTable, FineRegionTable)
from repro.core.tbloff import table_entry_addr
from repro.errors import RegionError


class TestCoarseRegionTable:
    def test_lookup_hit_and_miss(self):
        table = CoarseRegionTable()
        table.add(0x1000, 0x1000, name="code")
        assert table.lookup(0x1000)
        assert table.lookup(0x1FFF)
        assert not table.lookup(0x2000)
        assert not table.lookup(0xFFF)

    def test_lookup_line(self):
        table = CoarseRegionTable()
        table.add(0x1000, 0x1000)
        assert table.lookup_line(0x1000 >> 5)
        assert not table.lookup_line((0x2000 >> 5))

    def test_regions_are_frozen_records(self):
        table = CoarseRegionTable()
        region = table.add(0x1000, 0x1000, name="code")
        with pytest.raises(dataclasses.FrozenInstanceError):
            region.start = 0x2000
        assert (region.start, region.end, region.name) == \
            (0x1000, 0x2000, "code")

    def test_alignment_required(self):
        table = CoarseRegionTable()
        with pytest.raises(RegionError):
            table.add(0x1001, 0x1000)
        with pytest.raises(RegionError):
            table.add(0x1000, 0x101)

    def test_size_must_be_positive(self):
        table = CoarseRegionTable()
        with pytest.raises(RegionError):
            table.add(0x1000, 0)

    def test_overlap_rejected(self):
        table = CoarseRegionTable()
        table.add(0x1000, 0x1000)
        with pytest.raises(RegionError):
            table.add(0x1800, 0x1000)
        with pytest.raises(RegionError):
            table.add(0x0000, 0x1020)
        table.add(0x2000, 0x1000)  # adjacent is fine

    def test_capacity_limit(self):
        table = CoarseRegionTable(capacity=2)
        table.add(0x1000, 0x20)
        table.add(0x2000, 0x20)
        with pytest.raises(RegionError):
            table.add(0x3000, 0x20)

    def test_iteration_and_len(self):
        table = CoarseRegionTable()
        table.add(0x1000, 0x20, name="a")
        table.add(0x2000, 0x20, name="b")
        assert len(table) == 2
        assert sorted(r.name for r in table) == ["a", "b"]


class TestFineRegionTable:
    def test_default_is_hwcc(self):
        table = FineRegionTable(0xFE000000)
        assert not table.is_swcc(12345)

    def test_set_clear_roundtrip(self):
        table = FineRegionTable(0xFE000000)
        assert table.set_swcc(7)
        assert table.is_swcc(7)
        assert not table.set_swcc(7)  # already set
        assert table.clear_swcc(7)
        assert not table.is_swcc(7)
        assert not table.clear_swcc(7)

    def test_counters(self):
        table = FineRegionTable(0xFE000000)
        table.set_swcc(1)
        table.set_swcc(2)
        table.clear_swcc(1)
        assert table.bit_sets == 2
        assert table.bit_clears == 1

    def test_default_range_swcc(self):
        table = FineRegionTable(0xFE000000)
        table.add_default_swcc_range(0x40000000, 0x1000)
        assert table.is_swcc(0x40000000 >> 5)
        assert table.is_swcc((0x40000FFF) >> 5)
        assert not table.is_swcc((0x40001000) >> 5)
        assert table.override_count == 0

    def test_override_inside_default_range(self):
        table = FineRegionTable(0xFE000000)
        table.add_default_swcc_range(0x40000000, 0x1000)
        line = 0x40000000 >> 5
        assert table.clear_swcc(line)
        assert not table.is_swcc(line)
        assert table.override_count == 1
        assert table.set_swcc(line)       # back to the default
        assert table.override_count == 0  # override removed, not stacked

    def test_default_range_validation(self):
        table = FineRegionTable(0xFE000000)
        with pytest.raises(RegionError):
            table.add_default_swcc_range(0, 0)

    def test_table_word_addr_uses_tbloff(self):
        table = FineRegionTable(0xFE000000)
        line = 0x40000040 >> 5
        assert table.table_word_addr(line) == table_entry_addr(
            0xFE000000, line << 5)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 500), st.booleans()),
                    min_size=1, max_size=200))
    def test_matches_reference_bitmap(self, ops):
        """Sparse overrides+defaults behave exactly like a flat bitmap."""
        table = FineRegionTable(0xFE000000)
        table.add_default_swcc_range(100 * 32, 100 * 32)  # lines 100..199
        reference = {line: 100 <= line < 200 for line in range(501)}
        for line, make_swcc in ops:
            if make_swcc:
                table.set_swcc(line)
            else:
                table.clear_swcc(line)
            reference[line] = make_swcc
        for line, expect in reference.items():
            assert table.is_swcc(line) == expect
