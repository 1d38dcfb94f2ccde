"""Cluster cache controller: L1/L2 behaviour under both protocols."""

import pytest

from repro import Policy
from repro.errors import ProtocolError

from tests.conftest import make_machine

COHERENT_HEAP = 0x2000_0000
INCOHERENT_HEAP = 0x4000_0000
CODE = 0x0001_0000


def line_of(addr):
    return addr >> 5


class TestLoads:
    def test_l1_hit_is_one_cycle(self, hwcc_machine):
        cluster = hwcc_machine.clusters[0]
        t1, _ = cluster.load(0, COHERENT_HEAP, 0.0)
        t2, _ = cluster.load(0, COHERENT_HEAP, t1)
        assert t2 - t1 == 1.0

    def test_l2_hit_cheaper_than_miss(self, hwcc_machine):
        cluster = hwcc_machine.clusters[0]
        miss, _ = cluster.load(0, COHERENT_HEAP, 0.0)
        # same line, different core: misses its L1, hits the shared L2
        t0 = miss
        hit, _ = cluster.load(1, COHERENT_HEAP, t0)
        assert hit - t0 < miss - 0.0

    def test_load_fills_l1_and_l2(self, hwcc_machine):
        cluster = hwcc_machine.clusters[0]
        cluster.load(3, COHERENT_HEAP, 0.0)
        line = line_of(COHERENT_HEAP)
        assert cluster.l2.peek(line) is not None
        assert cluster.l1d[3].peek(line) is not None
        assert cluster.l1d[0].peek(line) is None

    def test_load_value_travels(self, hwcc_machine):
        ms = hwcc_machine.memsys
        ms.backing.write_word_addr(COHERENT_HEAP + 8, 31337)
        cluster = hwcc_machine.clusters[0]
        _t, value = cluster.load(0, COHERENT_HEAP + 8, 0.0)
        assert value == 31337

    def test_swcc_partial_line_merges_on_fetch(self, swcc_machine):
        """A write-allocated partial line keeps its dirty words when the
        rest of the line is later fetched for a load."""
        machine = swcc_machine
        ms = machine.memsys
        addr = INCOHERENT_HEAP
        ms.backing.write_word_addr(addr + 4, 400)
        cluster = machine.clusters[0]
        cluster.store(0, addr, 77, 0.0)  # only word 0 valid+dirty
        _t, value = cluster.load(0, addr + 4, 100.0)  # word 1 invalid -> fetch
        assert value == 400
        entry = cluster.l2.peek(line_of(addr))
        assert entry.fully_valid
        assert entry.data[0] == 77       # local dirty word preserved
        assert entry.dirty_mask == 0b1


class TestStores:
    def test_swcc_store_miss_sends_no_message(self, swcc_machine):
        machine = swcc_machine
        before = machine.memsys.counters.total()
        machine.clusters[0].store(0, INCOHERENT_HEAP, 5, 0.0)
        assert machine.memsys.counters.total() == before
        entry = machine.clusters[0].l2.peek(line_of(INCOHERENT_HEAP))
        assert entry.incoherent
        assert entry.valid_mask == 0b1 and entry.dirty_mask == 0b1

    def test_hwcc_store_miss_sends_write_request(self, hwcc_machine):
        machine = hwcc_machine
        machine.clusters[0].store(0, COHERENT_HEAP, 5, 0.0)
        assert machine.memsys.counters.write_request == 1
        entry = machine.clusters[0].l2.peek(line_of(COHERENT_HEAP))
        assert not entry.incoherent and entry.fully_valid

    def test_cohesion_store_miss_to_swcc_line(self, cohesion_machine):
        machine = cohesion_machine
        machine.clusters[0].store(0, INCOHERENT_HEAP, 5, 0.0)
        assert machine.memsys.counters.write_request == 1
        entry = machine.clusters[0].l2.peek(line_of(INCOHERENT_HEAP))
        assert entry.incoherent  # the reply carried the incoherent bit

    def test_store_hit_on_dirty_line_is_local(self, hwcc_machine):
        machine = hwcc_machine
        machine.clusters[0].store(0, COHERENT_HEAP, 5, 0.0)
        before = machine.memsys.counters.total()
        machine.clusters[0].store(0, COHERENT_HEAP + 4, 6, 100.0)
        assert machine.memsys.counters.total() == before

    def test_store_is_posted(self, hwcc_machine):
        """The core pays only issue cost for a store miss."""
        cluster = hwcc_machine.clusters[0]
        t_store = cluster.store(0, COHERENT_HEAP, 5, 0.0)
        t_load, _ = cluster.load(1, COHERENT_HEAP + 0x4000, 0.0)
        assert t_store < t_load  # much cheaper than a blocking miss

    def test_store_updates_own_l1_invalidates_siblings(self, hwcc_machine):
        cluster = hwcc_machine.clusters[0]
        addr = COHERENT_HEAP
        line = line_of(addr)
        cluster.load(0, addr, 0.0)
        cluster.load(1, addr, 10.0)
        assert cluster.l1d[1].peek(line) is not None
        cluster.store(0, addr, 123, 20.0)
        assert cluster.l1d[1].peek(line) is None  # sibling dropped
        _t, value = cluster.load(0, addr, 30.0)
        assert value == 123

    def test_full_write_buffer_stalls(self, hwcc_machine):
        cluster = hwcc_machine.clusters[0]
        t = 0.0
        times = []
        for i in range(cluster.write_buffer_depth + 4):
            t = cluster.store(0, COHERENT_HEAP + 32 * 64 * i, 1, t)
            times.append(t)
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert max(gaps[-3:]) > min(gaps[:3])  # later stores stall


class TestInstructionFetch:
    def test_ifetch_through_l1i(self, cohesion_machine):
        cluster = cohesion_machine.clusters[0]
        t1 = cluster.ifetch(0, CODE, 0.0)
        t2 = cluster.ifetch(0, CODE, t1)
        assert t2 - t1 == 1.0
        assert cohesion_machine.memsys.counters.instruction_request == 1

    def test_code_is_incoherent_under_cohesion(self, cohesion_machine):
        cluster = cohesion_machine.clusters[0]
        cluster.ifetch(0, CODE, 0.0)
        assert cluster.l2.peek(line_of(CODE)).incoherent

    def test_code_is_tracked_under_hwcc(self, hwcc_machine):
        cluster = hwcc_machine.clusters[0]
        cluster.ifetch(0, CODE, 0.0)
        line = line_of(CODE)
        assert not cluster.l2.peek(line).incoherent
        assert hwcc_machine.memsys.directory_of(line).get(line) is not None


class TestSoftwareCoherenceOps:
    def test_flush_dirty_line_sends_writeback(self, swcc_machine):
        machine = swcc_machine
        cluster = machine.clusters[0]
        line = line_of(INCOHERENT_HEAP)
        cluster.store(0, INCOHERENT_HEAP, 9, 0.0)
        cluster.flush_line(0, line, 10.0)
        assert machine.memsys.counters.software_flush == 1
        assert machine.memsys.counters.wb_issued == 1
        assert machine.memsys.counters.wb_on_valid == 1
        entry = cluster.l2.peek(line)
        assert entry is not None and not entry.dirty_mask  # cleaned, retained
        # value is globally visible now
        assert machine.memsys.backing is not None
        reply = machine.memsys.read_line(1, line, 100.0)
        assert reply.data[0] == 9

    def test_flush_absent_line_is_wasted(self, swcc_machine):
        machine = swcc_machine
        cluster = machine.clusters[0]
        cluster.flush_line(0, line_of(INCOHERENT_HEAP), 0.0)
        counters = machine.memsys.counters
        assert counters.wb_issued == 1
        assert counters.wb_on_valid == 0
        assert counters.software_flush == 0  # no message either

    def test_flush_clean_line_counts_valid_but_no_message(self, swcc_machine):
        cluster = swcc_machine.clusters[0]
        cluster.load(0, INCOHERENT_HEAP, 0.0)
        cluster.flush_line(0, line_of(INCOHERENT_HEAP), 10.0)
        counters = swcc_machine.memsys.counters
        assert counters.wb_on_valid == 1
        assert counters.software_flush == 0

    def test_invalidate_swcc_line_is_silent(self, swcc_machine):
        machine = swcc_machine
        cluster = machine.clusters[0]
        line = line_of(INCOHERENT_HEAP)
        cluster.load(0, INCOHERENT_HEAP, 0.0)
        before = machine.memsys.counters.total()
        cluster.invalidate_line(0, line, 10.0)
        assert machine.memsys.counters.total() == before
        assert cluster.l2.peek(line) is None
        assert cluster.l1d[0].peek(line) is None
        assert machine.memsys.counters.inv_on_valid == 1

    def test_invalidate_absent_line_is_wasted(self, swcc_machine):
        cluster = swcc_machine.clusters[0]
        cluster.invalidate_line(0, line_of(INCOHERENT_HEAP), 0.0)
        counters = swcc_machine.memsys.counters
        assert counters.inv_issued == 1
        assert counters.inv_on_valid == 0

    def test_invalidate_coherent_clean_sends_release(self, cohesion_machine):
        machine = cohesion_machine
        cluster = machine.clusters[0]
        line = line_of(COHERENT_HEAP)
        cluster.load(0, COHERENT_HEAP, 0.0)
        cluster.invalidate_line(0, line, 10.0)
        assert machine.memsys.counters.read_release == 1
        assert machine.memsys.directory_of(line).get(line) is None


class TestEvictionBehaviour:
    def _stream_lines(self, cluster, base_addr, count, t=0.0, step=64):
        for i in range(count):
            t, _ = cluster.load(0, base_addr + 32 * i, t)
        return t

    def test_swcc_clean_evictions_silent(self, swcc_machine):
        machine = swcc_machine
        cluster = machine.clusters[0]
        capacity = cluster.l2.capacity_lines
        self._stream_lines(cluster, INCOHERENT_HEAP, capacity + 64)
        counters = machine.memsys.counters
        assert cluster.l2.evictions > 0
        assert counters.read_release == 0
        assert counters.cache_eviction == 0

    def test_hwcc_clean_evictions_send_read_releases(self, hwcc_machine):
        machine = hwcc_machine
        cluster = machine.clusters[0]
        capacity = cluster.l2.capacity_lines
        self._stream_lines(cluster, COHERENT_HEAP, capacity + 64)
        assert machine.memsys.counters.read_release >= cluster.l2.evictions > 0

    def test_dirty_eviction_writes_back(self, swcc_machine):
        machine = swcc_machine
        cluster = machine.clusters[0]
        addr = INCOHERENT_HEAP
        cluster.store(0, addr, 424242, 0.0)
        capacity = cluster.l2.capacity_lines
        # stream enough conflicting lines to force the dirty line out
        self._stream_lines(cluster, addr + 32, capacity + 64, t=10.0)
        assert cluster.l2.peek(line_of(addr)) is None
        assert machine.memsys.counters.cache_eviction >= 1
        reply = machine.memsys.read_line(1, line_of(addr), 1e7)
        assert reply.data[0] == 424242


class TestProbes:
    def test_probe_invalidate_returns_dirty_data(self, hwcc_machine):
        cluster = hwcc_machine.clusters[0]
        cluster.store(0, COHERENT_HEAP, 31, 0.0)
        present, mask, values, _done = cluster.probe_invalidate(
            line_of(COHERENT_HEAP), 10.0)
        assert present and mask == 0b1 and values[0] == 31
        assert cluster.l2.peek(line_of(COHERENT_HEAP)) is None

    def test_probe_invalidate_absent(self, hwcc_machine):
        present, mask, values, _done = hwcc_machine.clusters[0].probe_invalidate(
            123456, 0.0)
        assert not present and mask == 0 and values is None

    def test_probe_downgrade_cleans_and_keeps(self, hwcc_machine):
        cluster = hwcc_machine.clusters[0]
        line = line_of(COHERENT_HEAP)
        cluster.store(0, COHERENT_HEAP, 8, 0.0)
        mask, values, _done = cluster.probe_downgrade(line, 10.0)
        assert mask == 0b1 and values[0] == 8
        entry = cluster.l2.peek(line)
        assert entry is not None and not entry.dirty_mask

    def test_probe_downgrade_absent_is_error(self, hwcc_machine):
        with pytest.raises(ProtocolError):
            hwcc_machine.clusters[0].probe_downgrade(999, 0.0)

    def test_probe_clean_query_states(self, cohesion_machine):
        cluster = cohesion_machine.clusters[0]
        addr = INCOHERENT_HEAP
        line = line_of(addr)
        status, _m, _v, _t = cluster.probe_clean_query(line, 0.0)
        assert status == "absent"
        cluster.load(0, addr, 0.0)
        status, _m, _v, _t = cluster.probe_clean_query(line, 10.0)
        assert status == "clean"
        assert not cluster.l2.peek(line).incoherent  # bit cleared
        cluster.l2.peek(line).incoherent = True
        cluster.store(0, addr, 3, 20.0)
        status, mask, values, _t = cluster.probe_clean_query(line, 30.0)
        assert status == "dirty" and mask == 0b1 and values[0] == 3

    def test_probe_make_coherent(self, cohesion_machine):
        cluster = cohesion_machine.clusters[0]
        line = line_of(INCOHERENT_HEAP)
        cluster.store(0, INCOHERENT_HEAP, 1, 0.0)
        cluster.probe_make_coherent(line)
        assert not cluster.l2.peek(line).incoherent
        with pytest.raises(ProtocolError):
            cluster.probe_make_coherent(line + 1000)

    def test_probe_drops_l1_copies(self, hwcc_machine):
        cluster = hwcc_machine.clusters[0]
        addr = COHERENT_HEAP
        line = line_of(addr)
        cluster.load(0, addr, 0.0)
        cluster.load(5, addr, 10.0)
        assert cluster.l1d[5].peek(line) is not None
        cluster.probe_invalidate(line, 20.0)
        assert cluster.l1d[0].peek(line) is None
        assert cluster.l1d[5].peek(line) is None

    def test_probe_drops_only_the_l1s_holding_the_line(self, hwcc_machine):
        cluster = hwcc_machine.clusters[0]
        line = line_of(COHERENT_HEAP)
        other = line_of(COHERENT_HEAP + 0x400)
        t, _ = cluster.load(0, COHERENT_HEAP, 0.0)
        t, _ = cluster.load(5, COHERENT_HEAP, t)
        t = cluster.ifetch(2, COHERENT_HEAP, t)
        t, _ = cluster.load(7, COHERENT_HEAP + 0x400, t)
        n = cluster.n_cores
        assert cluster._l1_present[line] == (1 << 0) | (1 << 5) | (1 << (n + 2))
        cluster.probe_invalidate(line, t)
        assert cluster.l1d[0].peek(line) is None
        assert cluster.l1d[5].peek(line) is None
        assert cluster.l1i[2].peek(line) is None
        assert line not in cluster._l1_present
        # Another core's copy of a different line survives the drop.
        assert cluster.l1d[7].peek(other) is not None
        assert cluster._l1_present[other] == 1 << 7


class TestL1PresentCompaction:
    """``_l1_present`` staleness is bounded: silent L1 evictions leave
    stale members behind, and the threshold compaction sweeps them out
    before the superset can outgrow twice the L1 line capacity."""

    def test_superset_stays_bounded_and_sound(self, hwcc_machine):
        cluster = hwcc_machine.clusters[0]
        bound = cluster._l1_compact_at
        n = bound + 64
        t = 0.0
        for i in range(n):
            t, _ = cluster.load(0, COHERENT_HEAP + 32 * i, t)
        present = cluster._l1_present
        assert len(present) <= bound
        assert len(present) < n
        # Soundness: every line actually resident in an L1 is a member.
        resident = set()
        for cache in list(cluster.l1d) + list(cluster.l1i):
            for bucket in cache.sets:
                resident.update(bucket)
        assert resident <= present.keys()

    def test_compaction_shrinks_the_set_after_evictions(self, hwcc_machine):
        cluster = hwcc_machine.clusters[0]
        bound = cluster._l1_compact_at
        # Stream far past core 0's L1D capacity: every fill silently
        # evicts a victim, stranding a stale member per load.
        t = 0.0
        i = 0
        while len(cluster._l1_present) < bound:
            t, _ = cluster.load(0, COHERENT_HEAP + 32 * i, t)
            i += 1
            assert i <= bound + 8, "superset never reached the bound"
        before = len(cluster._l1_present)
        t, _ = cluster.load(0, COHERENT_HEAP + 32 * i, t)
        after = len(cluster._l1_present)
        assert after < before
        # The rebuilt set reflects roughly the true resident lines, not
        # the streamed history.
        capacity = bound // 2
        assert after <= capacity


def resident_l1_lines(cluster):
    return {entry.line for cache in (*cluster.l1d, *cluster.l1i)
            for entry in cache.lines()}


class TestSparseSnapshot:
    """Snapshots list only occupied L1s; restores walk only those."""

    def test_round_trip_into_busy_cluster(self):
        source = make_machine(Policy.hwcc_ideal()).clusters[0]
        t, _ = source.load(3, COHERENT_HEAP, 0.0)
        source.ifetch(5, CODE, t)
        snap = source.snapshot()
        assert [i for i, _ in snap["l1d"]] == [3]
        assert [i for i, _ in snap["l1i"]] == [5]

        target = make_machine(Policy.hwcc_ideal()).clusters[0]
        t, _ = target.load(0, COHERENT_HEAP + 0x400, 0.0)
        t, _ = target.load(3, COHERENT_HEAP + 0x800, t)
        target.ifetch(1, CODE + 0x400, t)
        target.restore(snap)

        assert target.snapshot() == snap
        assert target._l1_present.keys() == resident_l1_lines(target)
        # Holder bits name core 3's L1D and core 5's L1I.
        assert target._l1_present == {
            line_of(COHERENT_HEAP): 1 << 3,
            line_of(CODE): 1 << (target.n_cores + 5)}
        assert not target.l1d[0] and not target.l1i[1]

    def test_empty_snapshot_empties_every_l1(self):
        empty = make_machine(Policy.hwcc_ideal()).clusters[0].snapshot()
        assert empty["l1d"] == [] and empty["l1i"] == []
        cluster = make_machine(Policy.hwcc_ideal()).clusters[0]
        t = 0.0
        for core in range(cluster.n_cores):
            t, _ = cluster.load(core, COHERENT_HEAP + 32 * core, t)
            t = cluster.ifetch(core, CODE + 32 * core, t)
        cluster.restore(empty)
        assert not any(cluster.l1d) and not any(cluster.l1i)
        assert cluster._l1_present == {}
        assert cluster.snapshot() == empty
