"""On-die directory organisations (Sections 3.2 and 4.4).

One directory bank sits beside each L3 cache bank; all requests for a line
serialise through its home bank. Three organisations are modelled:

* :class:`InfiniteDirectory` -- the paper's *optimistic* configuration: a
  full-map directory with unbounded capacity and full associativity,
  eliminating directory evictions and broadcasts.
* :class:`SparseDirectory` -- the *realistic* configuration: a sparse [15]
  set-associative directory (default 16 K entries x 128 ways per bank)
  holding entries only for lines present in at least one L2. Evicted
  entries invalidate all their sharers. Each set's dict is kept in LRU
  order, oldest first, so its first key is the victim (O(1) even when
  the sweep makes a bank fully associative).
* :class:`LimitedPointerDirectory` -- the Dir4B limited scheme [2]: same
  sparse organisation, but each entry tracks at most four explicit sharer
  pointers; a fifth sharer sets the entry's broadcast bit, after which
  invalidations must probe every cluster.

Every bank also stamps each entry's ``lru`` with a unique, increasing
tick on every :meth:`~BaseDirectory.touch`. The ticks order entries
*across* sets, which :meth:`~BaseDirectory.snapshot` and the model
checker's state ranking need; within a set, the ticks and the dict order
agree, so the first key is exactly the minimum-``lru`` entry.

Entries always carry the *true* sharer bitmask (the simulator's ground
truth); the limited scheme only changes how invalidations are costed
(broadcast vs. multicast), exactly the behavioural difference that
matters for message counts and runtime.

The directory is inclusive of the L2s: every HWcc line cached in any L2
has an entry. Time-weighted occupancy per segment class is tracked here
for Figure 9c.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigError, ProtocolError
from repro.obs.bus import (EV_DIR_ALLOC, EV_DIR_EVICT, EV_DIR_FREE,
                           ObsEvent)
from repro.types import DirectoryKind, DirState, SegmentClass

DIR_S = 0
DIR_M = 1

_STATE_ENUM = {DIR_S: DirState.SHARED, DIR_M: DirState.MODIFIED}


def popcount(mask: int) -> int:
    """Number of set bits in ``mask`` (sharer count)."""
    try:
        return mask.bit_count()
    except AttributeError:  # pragma: no cover - Python < 3.10
        return bin(mask).count("1")


class DirectoryEntry:
    """Directory state for one HWcc line."""

    __slots__ = ("line", "state", "sharers", "broadcast", "lru", "klass")

    def __init__(self, line: int, klass: SegmentClass) -> None:
        self.line = line
        self.state = DIR_S
        self.sharers = 0          # bitmask over clusters
        self.broadcast = False    # limited-pointer overflow
        self.lru = 0
        self.klass = klass

    @property
    def state_enum(self) -> DirState:
        return _STATE_ENUM[self.state]

    @property
    def n_sharers(self) -> int:
        return popcount(self.sharers)

    def owner(self) -> int:
        """Cluster id of the single owner of a MODIFIED line."""
        if self.state != DIR_M or popcount(self.sharers) != 1:
            raise ProtocolError(f"line {self.line:#x} has no unique owner")
        return self.sharers.bit_length() - 1

    def sharer_ids(self) -> List[int]:
        ids = []
        mask = self.sharers
        while mask:
            low = mask & -mask
            ids.append(low.bit_length() - 1)
            mask ^= low
        return ids

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DirectoryEntry({self.line:#x}, {self.state_enum.value}, "
                f"sharers={self.sharers:#x}, bcast={self.broadcast})")


_ZERO_WEIGHTED = {klass: 0.0 for klass in SegmentClass}
_ZERO_COUNTS = {klass: 0 for klass in SegmentClass}


class _Occupancy:
    """Time-weighted entry-count accounting for one bank (Figure 9c)."""

    __slots__ = ("last_time", "weighted", "weighted_by_class",
                 "count", "count_by_class", "max_count")

    def __init__(self) -> None:
        self.last_time = 0.0
        self.weighted = 0.0
        self.weighted_by_class = _ZERO_WEIGHTED.copy()
        self.count = 0
        self.count_by_class = _ZERO_COUNTS.copy()
        self.max_count = 0

    def reset(self) -> None:
        """Restart at time zero with no entries, keeping this object.

        Banks share the machine-wide tracker by reference, so a rewind
        must zero it in place rather than replace it.
        """
        self.last_time = 0.0
        self.weighted = 0.0
        self.weighted_by_class.update(_ZERO_WEIGHTED)
        self.count = 0
        self.count_by_class.update(_ZERO_COUNTS)
        self.max_count = 0

    def advance(self, now: float) -> None:
        dt = now - self.last_time
        if dt <= 0:
            return
        self.weighted += self.count * dt
        for klass, count in self.count_by_class.items():
            if count:
                self.weighted_by_class[klass] += count * dt
        self.last_time = now

    def on_alloc(self, now: float, klass: SegmentClass) -> None:
        self.advance(now)
        self.count += 1
        self.count_by_class[klass] += 1
        if self.count > self.max_count:
            self.max_count = self.count

    def on_free(self, now: float, klass: SegmentClass) -> None:
        self.advance(now)
        self.count -= 1
        self.count_by_class[klass] -= 1

    def average(self, end_time: float) -> float:
        """Time-weighted mean entry count over ``[0, end_time]``.

        Folds the final interval -- between the last alloc/free event
        and the end of the run -- into the weighted sum before dividing;
        without that fold, entries still resident at the end of the run
        are under-weighted (the end-of-run truncation bug).
        """
        self.advance(end_time)
        if end_time <= 0:
            return float(self.count)
        return self.weighted / end_time

    def average_by_class(self, end_time: float) -> Dict[SegmentClass, float]:
        """Per-segment-class time-weighted mean counts over the run."""
        self.advance(end_time)
        if end_time <= 0:
            return {klass: float(count)
                    for klass, count in self.count_by_class.items()}
        return {klass: weighted / end_time
                for klass, weighted in self.weighted_by_class.items()}


class BaseDirectory:
    """Common storage-independent behaviour of one directory bank."""

    kind: DirectoryKind = DirectoryKind.INFINITE
    max_pointers: Optional[int] = None  # None => full-map sharer vector

    def __init__(self) -> None:
        self.occupancy = _Occupancy()
        #: Optional machine-wide tracker shared by every bank, so the
        #: *global* time-average and maximum entry counts (Figure 9c) are
        #: exact rather than a sum of per-bank maxima.
        self.global_occupancy: Optional[_Occupancy] = None
        #: Observability bus and this bank's index, wired by the owning
        #: :class:`~repro.core.cohesion.MemorySystem`.
        self.obs = None
        self.bank = 0
        self._tick = 0
        self.evictions = 0

    # -- interface to implement -------------------------------------------
    def get(self, line: int) -> Optional[DirectoryEntry]:
        raise NotImplementedError

    def set_of(self, line: int) -> Dict[int, DirectoryEntry]:
        """The live ``line -> entry`` dict that holds ``line``'s entry.

        The dict lives as long as the bank (restores clear it in
        place), so ``set_of(line).get(line)`` is :meth:`get` and a
        caller may hold the dict across restores.
        """
        raise NotImplementedError

    def _insert(self, entry: DirectoryEntry) -> Optional[DirectoryEntry]:
        """Store ``entry``; return a victim entry if one had to be evicted."""
        raise NotImplementedError

    def _delete(self, line: int) -> Optional[DirectoryEntry]:
        raise NotImplementedError

    def _clear(self) -> None:
        """Drop every entry (no accounting; :meth:`restore` redoes it)."""
        raise NotImplementedError

    def entries(self) -> Iterator[DirectoryEntry]:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    # -- shared logic ------------------------------------------------------
    def touch(self, entry: DirectoryEntry) -> None:
        self._tick += 1
        entry.lru = self._tick

    def allocate(self, line: int, klass: SegmentClass, now: float
                 ) -> Tuple[DirectoryEntry, Optional[DirectoryEntry]]:
        """Create an entry for ``line``; evict another entry if needed.

        The caller must invalidate every sharer of the returned victim
        (directory evictions invalidate all sharers, Section 3.2).
        """
        existing = self.get(line)
        if existing is not None:
            raise ProtocolError(f"duplicate directory allocation for {line:#x}")
        entry = DirectoryEntry(line, klass)
        self.touch(entry)
        victim = self._insert(entry)
        if victim is not None:
            self.evictions += 1
            self.occupancy.on_free(now, victim.klass)
            if self.global_occupancy is not None:
                self.global_occupancy.on_free(now, victim.klass)
        self.occupancy.on_alloc(now, klass)
        if self.global_occupancy is not None:
            self.global_occupancy.on_alloc(now, klass)
        obs = self.obs
        if obs is not None and obs.active:
            # Events carry the bank index in ``core`` and the bank's
            # post-update entry count in ``value``.
            if victim is not None:
                obs.emit(ObsEvent(now, EV_DIR_EVICT, -1, self.bank,
                                  victim.line, value=self.occupancy.count - 1,
                                  detail=victim.klass.value))
            obs.emit(ObsEvent(now, EV_DIR_ALLOC, -1, self.bank, line,
                              value=self.occupancy.count,
                              detail=klass.value))
        return entry, victim

    def deallocate(self, entry: DirectoryEntry, now: float) -> None:
        removed = self._delete(entry.line)
        if removed is not entry:
            raise ProtocolError(f"deallocating foreign entry {entry.line:#x}")
        self.occupancy.on_free(now, entry.klass)
        if self.global_occupancy is not None:
            self.global_occupancy.on_free(now, entry.klass)
        obs = self.obs
        if obs is not None and obs.active:
            obs.emit(ObsEvent(now, EV_DIR_FREE, -1, self.bank, entry.line,
                              value=self.occupancy.count,
                              detail=entry.klass.value))

    def add_sharer(self, entry: DirectoryEntry, cluster: int) -> None:
        entry.sharers |= 1 << cluster
        self.touch(entry)
        if (self.max_pointers is not None and not entry.broadcast
                and popcount(entry.sharers) > self.max_pointers):
            entry.broadcast = True

    def remove_sharer(self, entry: DirectoryEntry, cluster: int) -> None:
        entry.sharers &= ~(1 << cluster)
        if entry.sharers == 0:
            entry.broadcast = False

    # -- snapshot / restore -------------------------------------------------
    def snapshot(self) -> List[tuple]:
        """Capture every entry as plain tuples, ordered oldest-LRU first.

        Only the LRU *ranking* is preserved (that is all eviction
        decisions observe), so two banks holding the same entries in the
        same replacement order produce identical snapshots regardless of
        how many lookups each has absorbed.
        """
        ordered = sorted(self.entries(), key=attrgetter("lru"))
        return [(e.line, e.state, e.sharers, e.broadcast, e.klass)
                for e in ordered]

    def restore(self, snap: List[tuple]) -> None:
        """Reset contents to a :meth:`snapshot`.

        Occupancy accounting restarts from time zero with the restored
        entry counts, reset in place; time-weighted statistics
        accumulated since the snapshot are discarded (the model checker
        rewinds time anyway). The machine-wide tracker is the memory
        system's to rebuild, since it sums every bank.
        """
        self._clear()
        occupancy = self.occupancy
        occupancy.reset()
        by_class = occupancy.count_by_class
        tick = 0
        for line, state, sharers, broadcast, klass in snap:
            entry = DirectoryEntry(line, klass)
            entry.state = state
            entry.sharers = sharers
            entry.broadcast = broadcast
            tick += 1
            entry.lru = tick
            if self._insert(entry) is not None:
                raise ProtocolError(
                    f"directory restore overflowed a set at {line:#x}")
            by_class[klass] += 1
        self._tick = tick
        occupancy.count = occupancy.max_count = tick

    def invalidation_targets(self, entry: DirectoryEntry, n_clusters: int,
                             exclude: int = -1) -> Tuple[List[int], bool]:
        """Clusters the directory must probe to invalidate ``entry``.

        Returns ``(targets, is_broadcast)``. Under a full-map format the
        targets are exactly the sharers; a limited entry in broadcast mode
        must probe every cluster (all of which respond).
        """
        if entry.broadcast:
            return [c for c in range(n_clusters) if c != exclude], True
        return [c for c in entry.sharer_ids() if c != exclude], False


class InfiniteDirectory(BaseDirectory):
    """Optimistic full-map directory: unbounded, fully associative."""

    kind = DirectoryKind.INFINITE

    def __init__(self) -> None:
        super().__init__()
        self._entries: Dict[int, DirectoryEntry] = {}

    def get(self, line: int) -> Optional[DirectoryEntry]:
        return self._entries.get(line)

    def set_of(self, line: int) -> Dict[int, DirectoryEntry]:
        return self._entries

    def _insert(self, entry: DirectoryEntry) -> Optional[DirectoryEntry]:
        self._entries[entry.line] = entry
        return None

    def _delete(self, line: int) -> Optional[DirectoryEntry]:
        return self._entries.pop(line, None)

    def _clear(self) -> None:
        self._entries.clear()

    def entries(self) -> Iterator[DirectoryEntry]:
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)


class SparseDirectory(BaseDirectory):
    """Sparse set-associative full-map directory bank.

    Invariant: each dict in :attr:`sets` is in LRU order, oldest first,
    so its first key is the eviction victim. :meth:`touch` moves the
    resident entry to the end of its set and :meth:`_insert` appends, so
    victim selection costs O(1) rather than a scan of every way. The
    ``lru`` ticks are kept as well: they order entries across sets for
    :meth:`snapshot` and rank entries in the model checker's state.
    """

    kind = DirectoryKind.SPARSE

    def __init__(self, n_entries: int, assoc: int) -> None:
        super().__init__()
        if n_entries <= 0 or assoc <= 0 or n_entries % assoc:
            raise ConfigError(f"bad directory geometry: {n_entries} x {assoc}-way")
        self.n_sets = n_entries // assoc
        self.assoc = assoc
        self.sets: List[Dict[int, DirectoryEntry]] = [dict() for _ in range(self.n_sets)]
        # Indices of non-empty sets (dict used as an ordered set): banks
        # have thousands of sets but a handful of active entries, so
        # whole-bank walks must not touch the empty ones.
        self._occupied: Dict[int, None] = {}

    def set_of(self, line: int) -> Dict[int, DirectoryEntry]:
        return self.sets[line % self.n_sets]

    def get(self, line: int) -> Optional[DirectoryEntry]:
        return self.set_of(line).get(line)

    def touch(self, entry: DirectoryEntry) -> None:
        self._tick += 1
        entry.lru = self._tick
        line = entry.line
        bucket = self.sets[line % self.n_sets]
        # Only the resident entry moves: a not-yet-inserted entry
        # (allocate/restore touch before _insert) or a foreign entry for
        # the same line must leave the set's order alone.
        if bucket.get(line) is entry:
            del bucket[line]
            bucket[line] = entry

    def _insert(self, entry: DirectoryEntry) -> Optional[DirectoryEntry]:
        bucket = self.set_of(entry.line)
        victim = None
        if len(bucket) >= self.assoc:
            victim = bucket.pop(next(iter(bucket)))
        bucket[entry.line] = entry
        self._occupied[entry.line % self.n_sets] = None
        return victim

    def _delete(self, line: int) -> Optional[DirectoryEntry]:
        index = line % self.n_sets
        bucket = self.sets[index]
        entry = bucket.pop(line, None)
        if entry is not None and not bucket:
            self._occupied.pop(index, None)
        return entry

    def _clear(self) -> None:
        occupied = self._occupied
        if occupied:
            sets = self.sets
            for index in occupied:
                sets[index].clear()
            occupied.clear()

    def entries(self) -> Iterator[DirectoryEntry]:
        return chain.from_iterable(
            map(dict.values, map(self.sets.__getitem__, tuple(self._occupied))))

    def __len__(self) -> int:
        return sum(len(self.sets[index]) for index in self._occupied)


class LimitedPointerDirectory(SparseDirectory):
    """Dir4B: sparse directory with 4 sharer pointers + broadcast bit."""

    kind = DirectoryKind.DIR4B
    max_pointers = 4


def build_directory(kind: DirectoryKind, entries_per_bank: int = 16 * 1024,
                    assoc: int = 128) -> BaseDirectory:
    """Factory for one directory bank of the requested organisation."""
    if kind is DirectoryKind.INFINITE:
        return InfiniteDirectory()
    if kind is DirectoryKind.SPARSE:
        return SparseDirectory(entries_per_bank, assoc)
    if kind is DirectoryKind.DIR4B:
        return LimitedPointerDirectory(entries_per_bank, assoc)
    raise ConfigError(f"unknown directory kind: {kind!r}")
