"""Generic set-associative cache with per-word valid and dirty masks.

Both the Rigel-style L2s and the banked L3 are built from this class. It
models exactly the metadata the paper's protocols need:

* per-word valid bits (SWcc write-allocate may validate only the written
  words of a line, without fetching the rest);
* per-word dirty bits (the L3 merges disjoint write sets from multiple
  writers during SWcc => HWcc transitions);
* one *incoherent* bit per line (set by Cohesion on replies for
  software-managed data; such lines are dropped silently on clean
  eviction and are immune to hardware probes).

The cache is purely a state container: it never sends messages itself.
Replacement decisions return the victim line so the caller (the cluster
or L3 controller) can issue the protocol actions the victim requires.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from repro.mem.address import FULL_WORD_MASK, WORDS_PER_LINE

#: Sort key of an entry by LRU age.
_LRU = attrgetter("lru")


class CacheLine:
    """Tag-array entry for one resident line."""

    __slots__ = ("line", "valid_mask", "dirty_mask", "incoherent", "lru", "data")

    def __init__(self, line: int, valid_mask: int = FULL_WORD_MASK,
                 dirty_mask: int = 0, incoherent: bool = False,
                 data: Optional[List[int]] = None) -> None:
        self.line = line
        self.valid_mask = valid_mask
        self.dirty_mask = dirty_mask
        self.incoherent = incoherent
        self.lru = 0
        self.data = data

    @property
    def dirty(self) -> bool:
        return self.dirty_mask != 0

    @property
    def fully_valid(self) -> bool:
        return self.valid_mask == FULL_WORD_MASK

    def write_word(self, word: int, value: Optional[int] = None) -> None:
        """Mark ``word`` written (valid + dirty), storing ``value`` if tracked."""
        bit = 1 << word
        self.valid_mask |= bit
        self.dirty_mask |= bit
        if self.data is not None and value is not None:
            self.data[word] = value

    def read_word(self, word: int) -> Optional[int]:
        if self.data is None:
            return None
        return self.data[word]

    def clean(self) -> None:
        self.dirty_mask = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CacheLine({self.line:#x}, valid={self.valid_mask:#04x}, "
                f"dirty={self.dirty_mask:#04x}, incoherent={self.incoherent})")


class Cache:
    """LRU set-associative cache keyed by line number."""

    __slots__ = ("name", "n_sets", "assoc", "sets", "_occupied", "_tick",
                 "hits", "misses", "evictions", "track_data")

    def __init__(self, n_lines: int, assoc: int, name: str = "cache",
                 track_data: bool = False) -> None:
        if n_lines <= 0 or assoc <= 0 or n_lines % assoc:
            raise ValueError(f"bad cache geometry: {n_lines} lines, {assoc}-way")
        self.name = name
        self.n_sets = n_lines // assoc
        self.assoc = assoc
        self.sets: List[Dict[int, CacheLine]] = [dict() for _ in range(self.n_sets)]
        # Indices of non-empty sets (dict used as an ordered set), so
        # whole-cache walks and resets are O(resident lines), not
        # O(sets) -- the model checker restores thousands of mostly
        # empty caches per second.
        self._occupied: Dict[int, None] = {}
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.track_data = track_data

    # -- lookup ------------------------------------------------------------
    def set_index(self, line: int) -> int:
        return line % self.n_sets

    def lookup(self, line: int) -> Optional[CacheLine]:
        """Return the resident entry for ``line`` and refresh its LRU age."""
        entry = self.sets[line % self.n_sets].get(line)
        if entry is not None:
            self._tick += 1
            entry.lru = self._tick
            self.hits += 1
        else:
            self.misses += 1
        return entry

    def peek(self, line: int) -> Optional[CacheLine]:
        """Lookup without touching LRU state or hit/miss counters."""
        return self.sets[line % self.n_sets].get(line)

    def set_of(self, line: int) -> Dict[int, CacheLine]:
        """The live ``line -> entry`` dict of ``line``'s set.

        Each set's dict lives as long as the cache (restores clear it
        in place), so a caller that reads one line over and over may
        hold it and call ``.get(line)``: :meth:`peek` without the
        method call.
        """
        return self.sets[line % self.n_sets]

    def discard(self, line: int) -> None:
        """Remove ``line`` if present, without returning it.

        Equivalent to :meth:`remove` for callers that ignore the entry;
        kept separate so the store-path sibling-invalidation loop pays
        one dict hit for the (common) absent case.
        """
        index = line % self.n_sets
        bucket = self.sets[index]
        if line in bucket:
            del bucket[line]
            if not bucket:
                self._occupied.pop(index, None)

    # -- allocation ----------------------------------------------------------
    def allocate(self, line: int, valid_mask: int = FULL_WORD_MASK,
                 dirty_mask: int = 0, incoherent: bool = False
                 ) -> "tuple[CacheLine, Optional[CacheLine]]":
        """Insert ``line``, evicting an LRU victim from its set if full.

        Returns ``(new_entry, victim)``; ``victim`` is ``None`` when no
        eviction was needed. The caller owns any writeback/notification
        the victim's state demands.
        """
        bucket = self.sets[line % self.n_sets]
        existing = bucket.get(line)
        if existing is not None:
            existing.valid_mask |= valid_mask
            existing.dirty_mask |= dirty_mask
            existing.incoherent = incoherent
            self._tick += 1
            existing.lru = self._tick
            return existing, None
        victim = None
        if len(bucket) >= self.assoc:
            # Manual LRU scan: this is the allocation hot path, and a
            # min(key=lambda...) here costs one closure call per
            # resident line per miss.
            victim_line = -1
            best = None
            for ln, resident in bucket.items():
                lru = resident.lru
                if best is None or lru < best:
                    best = lru
                    victim_line = ln
            victim = bucket.pop(victim_line)
            self.evictions += 1
        data = [0] * WORDS_PER_LINE if self.track_data else None
        entry = CacheLine(line, valid_mask, dirty_mask, incoherent, data)
        self._tick += 1
        entry.lru = self._tick
        bucket[line] = entry
        self._occupied[line % self.n_sets] = None
        return entry, victim

    def fill(self, line: int, valid_mask: int = FULL_WORD_MASK) -> CacheLine:
        """Insert ``line`` when the caller discards the victim (L1 fills).

        Behaviourally :meth:`allocate` with the victim dropped on the
        floor, but the evicted :class:`CacheLine` object is *recycled*
        as the new entry -- the tiny L1s evict on almost every fill, so
        this removes one object construction from the hot path. On
        data-tracking caches the recycled line's words are zeroed, so
        the entry is indistinguishable from a freshly constructed one
        (snapshots would otherwise see stale invalid words).
        """
        bucket = self.sets[line % self.n_sets]
        existing = bucket.get(line)
        self._tick += 1
        if existing is not None:
            existing.valid_mask |= valid_mask
            existing.incoherent = False  # as allocate() with the default
            existing.lru = self._tick
            return existing
        if len(bucket) >= self.assoc:
            victim_line = -1
            best = None
            for ln, resident in bucket.items():
                lru = resident.lru
                if best is None or lru < best:
                    best = lru
                    victim_line = ln
            entry = bucket.pop(victim_line)
            self.evictions += 1
            entry.line = line
            entry.valid_mask = valid_mask
            entry.dirty_mask = 0
            entry.incoherent = False
            if entry.data is not None:
                entry.data[:] = (0,) * WORDS_PER_LINE
        else:
            data = [0] * WORDS_PER_LINE if self.track_data else None
            entry = CacheLine(line, valid_mask, 0, False, data)
        entry.lru = self._tick
        bucket[line] = entry
        self._occupied[line % self.n_sets] = None
        return entry

    # -- removal -------------------------------------------------------------
    def remove(self, line: int) -> Optional[CacheLine]:
        """Remove ``line`` if present, returning its entry."""
        index = line % self.n_sets
        bucket = self.sets[index]
        entry = bucket.pop(line, None)
        if entry is not None and not bucket:
            self._occupied.pop(index, None)
        return entry

    def invalidate_where(self, predicate: Callable[[CacheLine], bool]
                         ) -> List[CacheLine]:
        """Remove and return every resident line satisfying ``predicate``."""
        removed: List[CacheLine] = []
        for index in tuple(self._occupied):
            bucket = self.sets[index]
            doomed = [ln for ln, entry in bucket.items() if predicate(entry)]
            for ln in doomed:
                removed.append(bucket.pop(ln))
            if not bucket:
                del self._occupied[index]
        return removed

    # -- snapshot / restore ----------------------------------------------------
    def snapshot(self) -> List[tuple]:
        """Capture every resident line as plain tuples.

        Entries are ordered by LRU age (oldest first) so that
        :meth:`restore` reproduces the exact replacement order; the
        absolute ``_tick`` values are not preserved, only the ranking,
        which is all the LRU policy observes.
        """
        entries = sorted(self.lines(), key=_LRU)
        return [(e.line, e.valid_mask, e.dirty_mask, e.incoherent,
                 None if e.data is None else list(e.data))
                for e in entries]

    def restore(self, snap: List[tuple]) -> None:
        """Reset contents to a :meth:`snapshot` (statistics untouched).

        Costs what the cache and the snapshot hold: only occupied sets
        are cleared, and an empty cache restored to an empty snapshot
        does nothing else. The entries cleared out are rewritten as the
        restored ones, data lists in place, as :meth:`fill` recycles its
        victim; a new :class:`CacheLine` is built only when the snapshot
        holds more lines than the cache did.
        """
        sets = self.sets
        occupied = self._occupied
        spare = ()
        if occupied:
            if snap:
                spare = []
                for index in occupied:
                    bucket = sets[index]
                    spare += bucket.values()
                    bucket.clear()
            else:
                for index in occupied:
                    sets[index].clear()
            occupied.clear()
        n_sets = self.n_sets
        tick = 0
        for line, valid_mask, dirty_mask, incoherent, data in snap:
            tick += 1
            if spare:
                entry = spare.pop()
                entry.line = line
                entry.valid_mask = valid_mask
                entry.dirty_mask = dirty_mask
                entry.incoherent = incoherent
                if data is None:
                    entry.data = None
                elif entry.data is None:
                    entry.data = list(data)
                else:
                    entry.data[:] = data
            else:
                entry = CacheLine(line, valid_mask, dirty_mask, incoherent,
                                  None if data is None else list(data))
            entry.lru = tick
            index = line % n_sets
            sets[index][line] = entry
            occupied[index] = None
        self._tick = tick

    # -- introspection ---------------------------------------------------------
    def __contains__(self, line: int) -> bool:
        return line in self.sets[line % self.n_sets]

    def __bool__(self) -> bool:
        """True when any line is resident (cheaper than ``len() > 0``)."""
        return bool(self._occupied)

    def __len__(self) -> int:
        return sum(len(self.sets[index]) for index in self._occupied)

    def lines(self) -> Iterator[CacheLine]:
        """Every resident entry, set by set (no Python frame per set)."""
        return chain.from_iterable(
            map(dict.values, map(self.sets.__getitem__, tuple(self._occupied))))

    @property
    def capacity_lines(self) -> int:
        return self.n_sets * self.assoc


#: A cache's index of non-empty sets, read without a Python-level call.
_OCCUPIED = attrgetter("_occupied")


def occupied(caches: Iterable[Cache]) -> Iterator[Cache]:
    """The caches among ``caches`` that hold any line.

    Same as ``(c for c in caches if c)`` but with no
    :meth:`Cache.__bool__` call per cache: the model checker filters a
    cluster's sixteen mostly empty per-core caches on every restore.
    """
    return filter(_OCCUPIED, caches)
