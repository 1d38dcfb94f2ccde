"""The L3/directory front-end: domain resolution, MSI, writebacks, atomics."""

import pytest

from repro import Policy
from repro.coherence.directory import DIR_M, DIR_S
from repro.errors import ProtocolError
from repro.types import MessageType, SegmentClass

from tests.conftest import make_machine

# Convenient addresses (per the default AddressLayout)
COHERENT_HEAP = 0x2000_0000
INCOHERENT_HEAP = 0x4000_0000
CODE = 0x0001_0000
STACK = 0x8000_0000


def line_of(addr):
    return addr >> 5


class TestDomainResolutionOrder:
    """Section 3.4: directory, then coarse table, then fine table."""

    def test_pure_swcc_everything_incoherent(self, swcc_machine):
        ms = swcc_machine.memsys
        for addr in (COHERENT_HEAP, INCOHERENT_HEAP, CODE, STACK):
            reply = ms.read_line(0, line_of(addr), 0.0)
            assert reply.incoherent

    def test_pure_hwcc_everything_coherent(self, hwcc_machine):
        ms = hwcc_machine.memsys
        for addr in (COHERENT_HEAP, INCOHERENT_HEAP, CODE, STACK):
            reply = ms.read_line(0, line_of(addr), 0.0)
            assert not reply.incoherent
            assert ms.directory_of(line_of(addr)).get(line_of(addr)) is not None

    def test_cohesion_coarse_regions_swcc(self, cohesion_machine):
        ms = cohesion_machine.memsys
        for addr in (CODE, STACK):
            reply = ms.read_line(0, line_of(addr), 0.0)
            assert reply.incoherent
            assert ms.directory_of(line_of(addr)).get(line_of(addr)) is None

    def test_cohesion_coherent_heap_hwcc(self, cohesion_machine):
        ms = cohesion_machine.memsys
        reply = ms.read_line(0, line_of(COHERENT_HEAP), 0.0)
        assert not reply.incoherent

    def test_cohesion_incoherent_heap_default_swcc(self, cohesion_machine):
        """Boot marks the incoherent heap SWcc (initial state, §3.6)."""
        ms = cohesion_machine.memsys
        reply = ms.read_line(0, line_of(INCOHERENT_HEAP), 0.0)
        assert reply.incoherent

    def test_cohesion_fine_table_lookup_charged(self, cohesion_machine):
        ms = cohesion_machine.memsys
        before = ms.fine_lookups
        ms.read_line(0, line_of(INCOHERENT_HEAP), 0.0)
        assert ms.fine_lookups == before + 1
        # Directory hit path must NOT consult the fine table.
        ms.read_line(0, line_of(COHERENT_HEAP), 0.0)
        before = ms.fine_lookups
        ms.read_line(1, line_of(COHERENT_HEAP), 0.0)
        assert ms.fine_lookups == before

    def test_coarse_hit_skips_fine_table(self, cohesion_machine):
        ms = cohesion_machine.memsys
        before = ms.fine_lookups
        ms.read_line(0, line_of(CODE), 0.0)
        assert ms.fine_lookups == before


class TestMsiReads:
    def test_read_allocates_shared_entry(self, hwcc_machine):
        ms = hwcc_machine.memsys
        line = line_of(COHERENT_HEAP)
        ms.read_line(1, line, 0.0)
        entry = ms.directory_of(line).get(line)
        assert entry.state == DIR_S
        assert entry.sharer_ids() == [1]

    def test_multiple_readers_accumulate(self, hwcc_machine):
        ms = hwcc_machine.memsys
        line = line_of(COHERENT_HEAP)
        for cluster in range(2):
            ms.read_line(cluster, line, 0.0)
        entry = ms.directory_of(line).get(line)
        assert entry.sharer_ids() == [0, 1]

    def test_read_of_modified_line_downgrades_owner(self, hwcc_machine):
        machine = hwcc_machine
        ms = machine.memsys
        addr = COHERENT_HEAP
        line = line_of(addr)
        machine.clusters[0].store(0, addr, 77, 0.0)
        entry = ms.directory_of(line).get(line)
        assert entry.state == DIR_M and entry.owner() == 0
        reply = ms.read_line(1, line, 100.0)
        assert entry.state == DIR_S
        assert sorted(entry.sharer_ids()) == [0, 1]
        assert reply.data[0] == 77  # the dirty word travelled via the L3
        # owner keeps a clean copy
        owned = machine.clusters[0].l2.peek(line)
        assert owned is not None and not owned.dirty_mask

    def test_read_miss_from_owner_is_protocol_error(self, hwcc_machine):
        ms = hwcc_machine.memsys
        line = line_of(COHERENT_HEAP)
        hwcc_machine.clusters[0].store(0, COHERENT_HEAP, 1, 0.0)
        hwcc_machine.clusters[0].l2.remove(line)  # corrupt: silent eviction
        with pytest.raises(ProtocolError):
            ms.read_line(0, line, 50.0)

    def test_instruction_request_counted_separately(self, hwcc_machine):
        ms = hwcc_machine.memsys
        ms.read_line(0, line_of(CODE), 0.0, instruction=True)
        assert ms.counters.instruction_request == 1
        assert ms.counters.read_request == 0


class TestMsiWrites:
    def test_write_request_invalidates_readers(self, hwcc_machine):
        machine = hwcc_machine
        ms = machine.memsys
        addr = COHERENT_HEAP
        line = line_of(addr)
        machine.clusters[0].load(0, addr, 0.0)
        machine.clusters[1].load(0, addr, 0.0)
        before = ms.counters.probe_response
        machine.clusters[1].store(0, addr, 5, 10.0)  # upgrade from S
        assert ms.counters.probe_response == before + 1  # cluster 0 probed
        entry = ms.directory_of(line).get(line)
        assert entry.state == DIR_M and entry.owner() == 1
        assert machine.clusters[0].l2.peek(line) is None

    def test_write_miss_steals_from_modified_owner(self, hwcc_machine):
        machine = hwcc_machine
        addr = COHERENT_HEAP
        line = line_of(addr)
        machine.clusters[0].store(0, addr, 11, 0.0)
        machine.clusters[1].store(0, addr + 4, 22, 50.0)
        ms = machine.memsys
        entry = ms.directory_of(line).get(line)
        assert entry.owner() == 1
        assert machine.clusters[0].l2.peek(line) is None
        # cluster 0's dirty word was written back through the L3
        e1 = machine.clusters[1].l2.peek(line)
        assert e1.data[0] == 11 and e1.data[1] == 22

    def test_upgrade_requires_tracked_sharer(self, hwcc_machine):
        ms = hwcc_machine.memsys
        with pytest.raises(ProtocolError):
            ms.upgrade_request(0, line_of(COHERENT_HEAP), 0.0)


class TestWritebacksAndReleases:
    def test_dirty_eviction_deallocates_owner_entry(self, hwcc_machine):
        machine = hwcc_machine
        ms = machine.memsys
        addr = COHERENT_HEAP
        line = line_of(addr)
        machine.clusters[0].store(0, addr, 9, 0.0)
        entry = machine.clusters[0].l2.remove(line)
        ms.writeback(0, line, entry.dirty_mask, entry.data, 10.0,
                     MessageType.CACHE_EVICTION, incoherent=False)
        assert ms.directory_of(line).get(line) is None
        assert ms.counters.cache_eviction == 1

    def test_read_release_removes_sharer(self, hwcc_machine):
        machine = hwcc_machine
        ms = machine.memsys
        line = line_of(COHERENT_HEAP)
        ms.read_line(0, line, 0.0)
        ms.read_line(1, line, 0.0)
        ms.read_release(0, line, 10.0)
        assert ms.directory_of(line).get(line).sharer_ids() == [1]
        ms.read_release(1, line, 20.0)
        assert ms.directory_of(line).get(line) is None
        assert ms.counters.read_release == 2

    def test_incoherent_writeback_merges_at_l3(self, swcc_machine):
        ms = swcc_machine.memsys
        line = line_of(INCOHERENT_HEAP)
        ms.writeback(0, line, 0b0001, [111, 0, 0, 0, 0, 0, 0, 0], 0.0,
                     MessageType.SOFTWARE_FLUSH, incoherent=True)
        ms.writeback(1, line, 0b0010, [0, 222, 0, 0, 0, 0, 0, 0], 5.0,
                     MessageType.SOFTWARE_FLUSH, incoherent=True)
        reply = ms.read_line(0, line, 100.0)
        assert reply.data[0] == 111 and reply.data[1] == 222
        assert ms.counters.software_flush == 2

    def test_writeback_rejects_wrong_message_type(self, swcc_machine):
        with pytest.raises(ProtocolError):
            swcc_machine.memsys.writeback(
                0, 1, 0b1, None, 0.0, MessageType.READ_REQUEST, incoherent=True)


class TestDirectoryEvictionPath:
    def test_sparse_eviction_invalidates_sharers(self):
        machine = make_machine(Policy.hwcc_real(entries_per_bank=4, assoc=4))
        ms = machine.memsys
        base = line_of(COHERENT_HEAP)
        machine.clusters[0].load(0, COHERENT_HEAP, 0.0)
        # Fill the 4-entry directory bank of this line's home bank with
        # other lines until the first line's entry is evicted.
        bank = ms.map.bank_of_line(base)
        victim_count = 0
        line = base
        t = 10.0
        while ms.directory_of(base).get(base) is not None:
            line += 1
            if ms.map.bank_of_line(line) != bank:
                continue
            machine.clusters[1].load(0, line << 5, t)
            t += 10.0
            victim_count += 1
            assert victim_count < 64, "directory never evicted"
        # the original sharer's L2 copy was invalidated by the eviction
        assert machine.clusters[0].l2.peek(base) is None
        assert ms.counters.probe_response >= 1


class TestAtomics:
    def test_atomic_returns_old_value(self, hwcc_machine):
        ms = hwcc_machine.memsys
        addr = COHERENT_HEAP
        _t, old = ms.atomic(0, addr, lambda a, b: a + b, 5, 0.0)
        assert old == 0
        _t, old = ms.atomic(1, addr, lambda a, b: a + b, 3, 10.0)
        assert old == 5

    def test_atomic_counted_uncached(self, swcc_machine):
        ms = swcc_machine.memsys
        ms.atomic(0, COHERENT_HEAP, lambda a, b: a + b, 1, 0.0)
        assert ms.counters.uncached_atomic == 1

    def test_atomic_flushes_cached_copies(self, hwcc_machine):
        machine = hwcc_machine
        ms = machine.memsys
        addr = COHERENT_HEAP
        line = line_of(addr)
        machine.clusters[0].store(0, addr, 40, 0.0)
        _t, old = ms.atomic(1, addr, lambda a, b: a + b, 2, 50.0)
        assert old == 40
        assert machine.clusters[0].l2.peek(line) is None
        assert ms.directory_of(line).get(line) is None

    def test_atomic_wraps_32_bits(self, hwcc_machine):
        ms = hwcc_machine.memsys
        ms.atomic(0, COHERENT_HEAP, lambda a, b: a + b, 0xFFFFFFFF, 0.0)
        _t, old = ms.atomic(0, COHERENT_HEAP, lambda a, b: a + b, 1, 1.0)
        assert old == 0xFFFFFFFF
        _t, old = ms.atomic(0, COHERENT_HEAP, lambda a, b: a + b, 0, 2.0)
        assert old == 0


class TestSegmentClassification:
    def test_directory_entries_classified(self, hwcc_machine):
        ms = hwcc_machine.memsys
        cases = {
            CODE: SegmentClass.CODE,
            STACK: SegmentClass.STACK,
            COHERENT_HEAP: SegmentClass.HEAP_GLOBAL,
            INCOHERENT_HEAP: SegmentClass.HEAP_GLOBAL,
        }
        for addr, klass in cases.items():
            line = line_of(addr)
            ms.read_line(0, line, 0.0)
            assert ms.directory_of(line).get(line).klass is klass


class TestTimingSanity:
    def test_later_requests_finish_later(self, hwcc_machine):
        ms = hwcc_machine.memsys
        r1 = ms.read_line(0, line_of(COHERENT_HEAP), 0.0)
        r2 = ms.read_line(0, line_of(COHERENT_HEAP) + 1, r1.time)
        assert r2.time > r1.time > 0

    def test_l3_hit_faster_than_miss(self, hwcc_machine):
        ms = hwcc_machine.memsys
        line = line_of(COHERENT_HEAP)
        miss = ms.read_line(0, line, 0.0).time - 0.0
        ms.read_release(0, line, miss)
        t0 = 10_000.0
        hit = ms.read_line(1, line, t0).time - t0
        assert hit < miss
