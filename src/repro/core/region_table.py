"""Cohesion's coarse- and fine-grain region tables (Section 3.4, Figure 5).

The coarse-grain table is a small on-die structure of (start, size,
valid) ranges, queried in parallel with the directory at zero cost; the
runtime points its few entries at the large, long-lived SWcc regions:
the code segment, the per-core stack segment, and persistent immutable
globals.

The fine-grain table maps *all* of memory at one bit per cache line
(16 MB for a 4 GB space) and is consulted only when both the directory
and the coarse table miss. A set bit means the line is in the SWcc
domain; the default (cleared) state keeps memory hardware-coherent. The
bit state here is authoritative; its *storage* is simulated separately by
the memory system, which charges an L3 access (and a possible DRAM fill)
for the table word each lookup or atomic update touches, using the
``hybrid.tbloff`` mapping for the word's home bank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from repro.errors import RegionError
from repro.mem.address import LINE_BYTES, line_base, lines_in_range
from repro.core.tbloff import table_entry_addr


@dataclass
class CoarseRegion:
    """One entry of the coarse-grain region table."""

    start: int
    size: int
    valid: bool = True
    name: str = ""
    #: The owning table's per-line lookup memo, set by
    #: :meth:`CoarseRegionTable.add`: flipping ``valid`` must drop it.
    #: Only the memo is held, not the table, so the two form no cycle.
    _memo: Optional[dict] = field(default=None, repr=False, compare=False)

    def __setattr__(self, key, value):
        object.__setattr__(self, key, value)
        if key == "valid":
            memo = getattr(self, "_memo", None)
            if memo is not None:
                memo.clear()

    @property
    def end(self) -> int:
        return self.start + self.size

    def contains(self, addr: int) -> bool:
        return self.valid and self.start <= addr < self.end


class CoarseRegionTable:
    """Small on-die table of SWcc address ranges (a few entries)."""

    DEFAULT_CAPACITY = 16

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise RegionError("coarse table capacity must be positive")
        self.capacity = capacity
        self._regions: List[CoarseRegion] = []
        # Per-line lookup memo. The table is written a handful of times
        # at boot and read on every L2 miss, so the linear region scan
        # is worth caching; add()/remove() invalidate wholesale. Regions
        # hold this dict, so it is cleared in place, never replaced.
        self._line_memo: dict = {}

    def add(self, start: int, size: int, name: str = "") -> CoarseRegion:
        if size <= 0:
            raise RegionError(f"region {name!r} has non-positive size")
        if start % LINE_BYTES or size % LINE_BYTES:
            raise RegionError(f"region {name!r} is not line-aligned")
        if len(self._regions) >= self.capacity:
            raise RegionError("coarse region table is full")
        region = CoarseRegion(start, size, True, name)
        for other in self._regions:
            if other.valid and start < other.end and other.start < region.end:
                raise RegionError(f"region {name!r} overlaps {other.name!r}")
        region._memo = self._line_memo
        self._regions.append(region)
        self._line_memo.clear()
        return region

    def remove(self, region: CoarseRegion) -> None:
        try:
            self._regions.remove(region)
        except ValueError:
            raise RegionError("region not present in coarse table") from None
        self._line_memo.clear()

    def lookup(self, addr: int) -> bool:
        """True if ``addr`` falls in any valid SWcc coarse region."""
        for region in self._regions:
            if region.valid and region.start <= addr < region.end:
                return True
        return False

    def lookup_line(self, line: int) -> bool:
        memo = self._line_memo
        hit = memo.get(line)
        if hit is None:
            hit = memo[line] = self.lookup(line_base(line))
        return hit

    def __iter__(self) -> Iterator[CoarseRegion]:
        return iter(self._regions)

    def __len__(self) -> int:
        return len(self._regions)


class FineRegionTable:
    """Authoritative per-line domain bits (set = SWcc) plus addressing.

    ``table_word_addr(line)`` gives the in-memory byte address of the
    32-bit table word holding the line's bit -- the address the runtime's
    ``atom.or``/``atom.and`` target and whose cache behaviour the L3
    models.

    Storage is sparse in two layers: boot-time *default-SWcc ranges*
    (the runtime initialises the table slice covering the incoherent
    heap to ones when it zeroes the rest, Section 3.6: lines allocated
    there start in SWcc) plus per-line overrides recording every bit
    flipped by a runtime ``atom.or``/``atom.and`` since. This keeps the
    simulated 16 MB bitmap O(active transitions) in memory.
    """

    def __init__(self, base_addr: int) -> None:
        self.base_addr = base_addr
        self._default_ranges: List[tuple] = []  # (first_line, last_line_excl)
        self._overrides: dict = {}              # line -> bool (is SWcc)
        self.bit_sets = 0
        self.bit_clears = 0

    # -- boot-time defaults ------------------------------------------------
    def add_default_swcc_range(self, base: int, size: int) -> None:
        """Initialise the table bits for ``[base, base+size)`` to SWcc.

        A boot-time action (part of table setup); does not count as
        runtime transitions and costs no simulated traffic.
        """
        if size <= 0:
            raise RegionError("default SWcc range must have positive size")
        lines = lines_in_range(base, size)
        self._default_ranges.append((lines.start, lines.stop))
        self._default_ranges.sort()

    def _default_swcc(self, line: int) -> bool:
        for first, last in self._default_ranges:
            if first <= line < last:
                return True
            if line < first:
                return False
        return False

    # -- bit access ------------------------------------------------------------
    def is_swcc(self, line: int) -> bool:
        override = self._overrides.get(line)
        if override is not None:
            return override
        return self._default_swcc(line)

    def set_swcc(self, line: int) -> bool:
        """Mark ``line`` SWcc; returns True if the bit changed."""
        if self.is_swcc(line):
            return False
        if self._default_swcc(line):
            self._overrides.pop(line, None)
        else:
            self._overrides[line] = True
        self.bit_sets += 1
        return True

    def clear_swcc(self, line: int) -> bool:
        """Mark ``line`` HWcc; returns True if the bit changed."""
        if not self.is_swcc(line):
            return False
        if self._default_swcc(line):
            self._overrides[line] = False
        else:
            self._overrides.pop(line, None)
        self.bit_clears += 1
        return True

    def table_word_addr(self, line: int) -> int:
        """Byte address of the table word holding ``line``'s bit."""
        return table_entry_addr(self.base_addr, line_base(line))

    # -- snapshot / restore ------------------------------------------------
    def snapshot(self) -> dict:
        """Capture the override layer (boot defaults are immutable)."""
        return dict(self._overrides)

    def restore(self, snap: dict) -> None:
        """Reset overrides to a :meth:`snapshot` (counters untouched)."""
        self._overrides = dict(snap)

    @property
    def override_count(self) -> int:
        return len(self._overrides)
