"""Directory organisations: full-map, sparse, Dir4B."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.coherence.directory import (DIR_M, DIR_S, DirectoryEntry,
                                       InfiniteDirectory,
                                       LimitedPointerDirectory,
                                       SparseDirectory, _Occupancy,
                                       build_directory, popcount)
from repro.errors import ConfigError, ProtocolError
from repro.types import DirectoryKind, DirState, SegmentClass

HEAP = SegmentClass.HEAP_GLOBAL
STACK = SegmentClass.STACK


def test_popcount():
    assert popcount(0) == 0
    assert popcount(0b1011) == 3
    assert popcount((1 << 128) - 1) == 128


class TestDirectoryEntry:
    def test_initial_state(self):
        entry = DirectoryEntry(7, HEAP)
        assert entry.state == DIR_S
        assert entry.state_enum is DirState.SHARED
        assert entry.n_sharers == 0
        assert not entry.broadcast

    def test_sharer_ids(self):
        entry = DirectoryEntry(7, HEAP)
        entry.sharers = 0b1010_0001
        assert entry.sharer_ids() == [0, 5, 7]

    def test_owner_requires_modified_single_sharer(self):
        entry = DirectoryEntry(7, HEAP)
        entry.state = DIR_M
        entry.sharers = 1 << 9
        assert entry.owner() == 9
        entry.sharers |= 1
        with pytest.raises(ProtocolError):
            entry.owner()
        entry.state = DIR_S
        entry.sharers = 1 << 9
        with pytest.raises(ProtocolError):
            entry.owner()


class TestInfiniteDirectory:
    def test_allocate_never_evicts(self):
        directory = InfiniteDirectory()
        for line in range(1000):
            _entry, victim = directory.allocate(line, HEAP, now=float(line))
            assert victim is None
        assert len(directory) == 1000

    def test_duplicate_allocation_rejected(self):
        directory = InfiniteDirectory()
        directory.allocate(1, HEAP, 0.0)
        with pytest.raises(ProtocolError):
            directory.allocate(1, HEAP, 1.0)

    def test_deallocate(self):
        directory = InfiniteDirectory()
        entry, _ = directory.allocate(1, HEAP, 0.0)
        directory.deallocate(entry, 5.0)
        assert directory.get(1) is None
        assert len(directory) == 0

    def test_deallocate_foreign_entry_rejected(self):
        directory = InfiniteDirectory()
        directory.allocate(1, HEAP, 0.0)
        foreign = DirectoryEntry(1, HEAP)
        with pytest.raises(ProtocolError):
            directory.deallocate(foreign, 1.0)

    def test_add_remove_sharer(self):
        directory = InfiniteDirectory()
        entry, _ = directory.allocate(1, HEAP, 0.0)
        directory.add_sharer(entry, 3)
        directory.add_sharer(entry, 120)
        assert entry.n_sharers == 2
        directory.remove_sharer(entry, 3)
        assert entry.sharer_ids() == [120]

    def test_invalidation_targets_full_map(self):
        directory = InfiniteDirectory()
        entry, _ = directory.allocate(1, HEAP, 0.0)
        for cluster in (0, 5, 9):
            directory.add_sharer(entry, cluster)
        targets, broadcast = directory.invalidation_targets(entry, 16)
        assert targets == [0, 5, 9]
        assert not broadcast
        targets, _ = directory.invalidation_targets(entry, 16, exclude=5)
        assert targets == [0, 9]


class TestSparseDirectory:
    def test_geometry_validation(self):
        with pytest.raises(ConfigError):
            SparseDirectory(100, 8)
        with pytest.raises(ConfigError):
            SparseDirectory(0, 1)

    def test_set_conflict_evicts_lru(self):
        directory = SparseDirectory(8, 2)  # 4 sets x 2 ways
        a, b, c = 1, 1 + 4, 1 + 8  # same set
        ea, _ = directory.allocate(a, HEAP, 0.0)
        directory.allocate(b, HEAP, 1.0)
        directory.touch(ea)  # refresh a
        _entry, victim = directory.allocate(c, HEAP, 2.0)
        assert victim is not None and victim.line == b
        assert directory.evictions == 1

    def test_fully_associative_mode(self):
        directory = SparseDirectory(8, 8)  # 1 set
        victims = []
        for line in range(10):
            _e, victim = directory.allocate(line, HEAP, float(line))
            if victim is not None:
                victims.append(victim.line)
        assert victims == [0, 1]  # strict LRU order
        assert len(directory) == 8

    def test_get_and_delete(self):
        directory = SparseDirectory(8, 2)
        entry, _ = directory.allocate(3, HEAP, 0.0)
        assert directory.get(3) is entry
        directory.deallocate(entry, 1.0)
        assert directory.get(3) is None


#: (n_entries, assoc, line range): one set-associative geometry and two
#: fully associative ones, each driven with enough lines to evict.
GEOMETRIES = [(8, 2, 16), (8, 8, 16), (64, 64, 96)]

_OPS = st.lists(
    st.tuples(st.sampled_from(["alloc", "alloc", "touch", "share", "free",
                               "foreign", "restore"]),
              st.integers(0, 95), st.integers(0, 15)),
    max_size=120)


class TestVictimEquivalence:
    """Victims are exactly the min-``lru`` entries of the set.

    The oracle keeps its own recency stamp per resident line, bumped on
    every allocate/touch/add_sharer of that line, and predicts the
    victim as the set member with the smallest stamp.
    """

    @pytest.mark.parametrize("n_entries,assoc,n_lines", GEOMETRIES)
    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS)
    def test_victims_match_min_lru_oracle(self, n_entries, assoc, n_lines,
                                          ops):
        directory = SparseDirectory(n_entries, assoc)
        n_sets = n_entries // assoc
        stamps = {}
        clock = 0
        for t, (kind, raw_line, cluster) in enumerate(ops):
            line = raw_line % n_lines
            entry = directory.get(line)
            clock += 1
            if kind == "alloc" and entry is None:
                members = [ln for ln in stamps if ln % n_sets == line % n_sets]
                expected = (min(members, key=stamps.__getitem__)
                            if len(members) >= assoc else None)
                _entry, victim = directory.allocate(line, HEAP, float(t))
                assert (None if victim is None else victim.line) == expected
                stamps.pop(expected, None)
                stamps[line] = clock
            elif kind == "touch" and entry is not None:
                directory.touch(entry)
                stamps[line] = clock
            elif kind == "share" and entry is not None:
                directory.add_sharer(entry, cluster)
                stamps[line] = clock
            elif kind == "free" and entry is not None:
                directory.deallocate(entry, float(t))
                del stamps[line]
            elif kind == "foreign":
                # Same line, different object: must not move the resident.
                directory.touch(DirectoryEntry(line, HEAP))
                assert directory.get(line) is entry
            elif kind == "restore":
                snap = directory.snapshot()
                assert [s[0] for s in snap] == sorted(stamps,
                                                      key=stamps.__getitem__)
                directory = SparseDirectory(n_entries, assoc)
                directory.restore(snap)
            assert {e.line for e in directory.entries()} == set(stamps)
        for bucket in directory.sets:
            ticks = [e.lru for e in bucket.values()]
            assert ticks == sorted(ticks)

    def test_foreign_touch_does_not_displace_resident(self):
        directory = SparseDirectory(8, 8)
        ea, _ = directory.allocate(0, HEAP, 0.0)
        for line in range(1, 8):
            directory.allocate(line, HEAP, 0.0)
        directory.touch(DirectoryEntry(0, HEAP))  # foreign, same line
        _e, victim = directory.allocate(8, HEAP, 1.0)
        assert victim is ea

    def test_touch_before_insert_is_harmless(self):
        directory = SparseDirectory(8, 2)
        ea, _ = directory.allocate(1, HEAP, 0.0)
        directory.touch(DirectoryEntry(5, HEAP))  # same set, not resident
        assert list(directory.sets[1]) == [1]
        directory.allocate(5, HEAP, 1.0)
        _e, victim = directory.allocate(9, HEAP, 2.0)
        assert victim is ea

    @pytest.mark.parametrize("n_entries,assoc", [(8, 2), (8, 8), (64, 64)])
    def test_restore_preserves_eviction_order(self, n_entries, assoc):
        original = SparseDirectory(n_entries, assoc)
        entries = [original.allocate(line, HEAP, 0.0)[0]
                   for line in range(n_entries)]
        for entry in entries[::3]:
            original.touch(entry)
        for entry in entries[1::4]:
            original.add_sharer(entry, 2)
        restored = SparseDirectory(n_entries, assoc)
        restored.restore(original.snapshot())
        orders = [[bank.allocate(line, HEAP, 1.0)[1].line
                   for line in range(n_entries, 2 * n_entries)]
                  for bank in (original, restored)]
        assert orders[0] == orders[1]
        assert sorted(orders[0]) == list(range(n_entries))


class TestLimitedPointerDirectory:
    def test_overflow_sets_broadcast(self):
        directory = LimitedPointerDirectory(64, 8)
        entry, _ = directory.allocate(1, HEAP, 0.0)
        for cluster in range(4):
            directory.add_sharer(entry, cluster)
        assert not entry.broadcast
        directory.add_sharer(entry, 4)  # fifth sharer
        assert entry.broadcast

    def test_broadcast_invalidation_probes_everyone(self):
        directory = LimitedPointerDirectory(64, 8)
        entry, _ = directory.allocate(1, HEAP, 0.0)
        for cluster in range(5):
            directory.add_sharer(entry, cluster)
        targets, broadcast = directory.invalidation_targets(entry, 16)
        assert broadcast
        assert targets == list(range(16))
        targets, _ = directory.invalidation_targets(entry, 16, exclude=3)
        assert 3 not in targets and len(targets) == 15

    def test_broadcast_clears_when_empty(self):
        directory = LimitedPointerDirectory(64, 8)
        entry, _ = directory.allocate(1, HEAP, 0.0)
        for cluster in range(5):
            directory.add_sharer(entry, cluster)
        for cluster in range(5):
            directory.remove_sharer(entry, cluster)
        assert not entry.broadcast
        assert entry.n_sharers == 0


class TestBuildDirectory:
    @pytest.mark.parametrize("kind,cls", [
        (DirectoryKind.INFINITE, InfiniteDirectory),
        (DirectoryKind.SPARSE, SparseDirectory),
        (DirectoryKind.DIR4B, LimitedPointerDirectory),
    ])
    def test_factory(self, kind, cls):
        directory = build_directory(kind, 1024, 16)
        assert isinstance(directory, cls)
        assert directory.kind is kind


class TestOccupancyAccounting:
    def test_time_weighted_average(self):
        occ = _Occupancy()
        occ.on_alloc(0.0, HEAP)       # 1 entry from t=0
        occ.on_alloc(10.0, STACK)     # 2 entries from t=10
        occ.on_free(20.0, HEAP)       # 1 entry from t=20
        occ.advance(30.0)
        # integral: 1*10 + 2*10 + 1*10 = 40 entry-cycles over 30
        assert occ.weighted == pytest.approx(40.0)
        assert occ.max_count == 2
        assert occ.weighted_by_class[HEAP] == pytest.approx(20.0)
        assert occ.weighted_by_class[STACK] == pytest.approx(20.0)

    def test_advance_is_idempotent(self):
        occ = _Occupancy()
        occ.on_alloc(0.0, HEAP)
        occ.advance(10.0)
        occ.advance(10.0)
        occ.advance(5.0)  # time going backward is ignored
        assert occ.weighted == pytest.approx(10.0)

    def test_global_occupancy_shared_across_banks(self):
        shared = _Occupancy()
        banks = [InfiniteDirectory() for _ in range(2)]
        for bank in banks:
            bank.global_occupancy = shared
        e0, _ = banks[0].allocate(0, HEAP, 0.0)
        banks[1].allocate(1, HEAP, 0.0)
        assert shared.count == 2
        banks[0].deallocate(e0, 10.0)
        assert shared.count == 1
        assert shared.max_count == 2

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=60, unique=True))
    def test_count_matches_live_entries(self, lines):
        directory = InfiniteDirectory()
        entries = {}
        t = 0.0
        for line in lines:
            entries[line], _ = directory.allocate(line, HEAP, t)
            t += 1.0
        for line in lines[::2]:
            directory.deallocate(entries.pop(line), t)
            t += 1.0
        assert directory.occupancy.count == len(entries) == len(directory)
