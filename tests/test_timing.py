"""Bucketed contention resources."""

import struct

from hypothesis import given, settings, strategies as st

from repro.timing import BUCKET_CYCLES, Resource, ResourceGroup


class TestResource:
    def test_idle_resource_starts_immediately(self):
        r = Resource()
        assert r.acquire(100.0, 1.0) == 100.0

    def test_zero_occupancy_is_free(self):
        r = Resource()
        assert r.acquire(5.0, 0.0) == 5.0
        assert r.total_busy == 0.0

    def test_saturated_bucket_spills_forward(self):
        r = Resource()
        now = 10.0
        starts = [r.acquire(now, 8.0) for _ in range(6)]
        # 4 fit in the first 32-cycle bucket; the rest start in the next.
        assert starts[:4] == [now] * 4
        assert all(s >= BUCKET_CYCLES for s in starts[4:])

    def test_earlier_time_not_blocked_by_later_reservation(self):
        """The motivating property: out-of-order acquisition stays local."""
        r = Resource()
        r.acquire(10_000.0, 8.0)           # a far-future reservation
        assert r.acquire(100.0, 8.0) == 100.0

    def test_backlog_reports_bucket_usage(self):
        r = Resource()
        r.acquire(0.0, 3.0)
        assert r.backlog(1.0) == 3.0
        assert r.backlog(BUCKET_CYCLES + 1) == 0.0

    def test_total_busy_accumulates(self):
        r = Resource()
        r.acquire(0.0, 2.0)
        r.acquire(1.0, 3.0)
        assert r.total_busy == 5.0
        assert r.acquisitions == 2

    def test_utilization(self):
        r = Resource()
        r.acquire(0.0, 10.0)
        assert r.utilization(100.0) == 0.1
        assert r.utilization(0.0) == 0.0
        r.acquire(0.0, 1000.0)
        assert r.utilization(100.0) == 1.0  # clamped

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 1e6), st.floats(0.01, 16.0)),
                    min_size=1, max_size=100))
    def test_start_never_before_request(self, reqs):
        r = Resource()
        for now, occ in reqs:
            assert r.acquire(now, occ) >= now

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0, 1000), min_size=1, max_size=200))
    def test_capacity_conserved_per_bucket(self, times):
        r = Resource()
        for now in times:
            r.acquire(now, 1.0)
        assert all(used <= BUCKET_CYCLES for used in r._used.values())
        assert abs(sum(r._used.values()) - r.total_busy) < 1e-6

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0, 1e5), st.integers(1, 200))
    def test_burst_delay_grows_linearly(self, now, n):
        """n simultaneous unit requests occupy ~n cycles of service."""
        r = Resource()
        last = max(r.acquire(now, 1.0) for _ in range(n))
        assert last - now <= n + BUCKET_CYCLES


class _ReferenceResource:
    """The original linear-scan ``Resource``, kept verbatim as the oracle.

    ``Resource.acquire`` now consults a path-compressed skip structure
    when the first bucket probe fails; this class preserves the plain
    scan so the sweep below can prove the two return bit-identical
    start times and leave bit-identical ``_used`` ledgers.
    """

    def __init__(self):
        self._used = {}
        self.total_busy = 0.0
        self.acquisitions = 0

    def acquire(self, now, occupancy):
        self.acquisitions += 1
        if occupancy <= 0.0:
            return now
        self.total_busy += occupancy
        used = self._used
        bucket = int(now / BUCKET_CYCLES)
        if occupancy <= BUCKET_CYCLES:
            filled = used.get(bucket, 0.0)
            while filled + occupancy > BUCKET_CYCLES:
                bucket += 1
                filled = used.get(bucket, 0.0)
            used[bucket] = filled + occupancy
        else:
            while used.get(bucket, 0.0) >= BUCKET_CYCLES:
                bucket += 1
            remaining = occupancy
            spill = bucket
            while remaining > 0.0:
                filled = used.get(spill, 0.0)
                take = BUCKET_CYCLES - filled
                if take > remaining:
                    take = remaining
                if take > 0.0:
                    used[spill] = filled + take
                    remaining -= take
                spill += 1
        start = bucket * BUCKET_CYCLES
        if now > start:
            start = now
        return start


#: Every occupancy class the simulator issues: crossbar slots, tree
#: links, half-cost release ports, unit bank ports, multi-cycle DRAM
#: line transfers, and a wider-than-bucket spill case.
_OCC_CLASSES = [1.0 / 16.0, 0.125, 0.5, 1.0, 4.0, 8.0, 40.0]


def _bits(value: float) -> bytes:
    return struct.pack("d", value)


class TestSlotSearchEquality:
    """The skip-accelerated search must equal the linear scan exactly."""

    @staticmethod
    def _check(requests):
        """Start times, ledger and counters equal bit for bit.

        Floats are compared as their IEEE-754 bytes, so ``-0.0`` and
        ``0.0`` (equal under ``==``) would differ.
        """
        fast, ref = Resource(), _ReferenceResource()
        for now, occ in requests:
            assert _bits(fast.acquire(now, occ)) == \
                _bits(ref.acquire(now, occ)), (now, occ)
        assert {b: _bits(v) for b, v in fast._used.items()} == \
            {b: _bits(v) for b, v in ref._used.items()}
        assert _bits(fast.total_busy) == _bits(ref.total_busy)
        assert fast.acquisitions == ref.acquisitions == len(requests)

    def test_exhaustive_single_class_saturation(self):
        """Each occupancy class alone, driven to deep saturation."""
        for occ in _OCC_CLASSES:
            n = int(6 * BUCKET_CYCLES / min(occ, BUCKET_CYCLES)) + 8
            self._check([(3.0, occ)] * n)

    def test_exhaustive_class_pairs_interleaved(self):
        """Every ordered pair of occupancy classes, interleaved.

        This is the hazard the skip table must survive: buckets full
        for a large class may still take a smaller one, and a smaller
        class arriving later invalidates recorded skips.
        """
        for a in _OCC_CLASSES:
            for b in _OCC_CLASSES:
                reqs = []
                for i in range(160):
                    occ = a if i % 3 else b
                    reqs.append((float((i * 7) % 96), occ))
                self._check(reqs)

    def test_out_of_order_times_across_window(self):
        """Requests hopping across a multi-bucket window, all classes."""
        times = [0.0, 95.0, 33.0, 64.0, 1.0, 500.0, 31.9, 32.0, 96.1]
        reqs = [(t, _OCC_CLASSES[i % len(_OCC_CLASSES)])
                for i, t in enumerate(times * 20)]
        self._check(reqs)

    def test_wide_request_lands_amid_backlog(self):
        """Spill-path requests interleaved with saturating narrow ones."""
        reqs = [(0.0, 8.0)] * 10 + [(0.0, 40.0)] + [(0.0, 0.5)] * 80 \
            + [(0.0, 40.0)] + [(10.0, 1.0)] * 40
        self._check(reqs)

    def test_zero_occupancy_interleaved(self):
        """Zero-occupancy requests are counted and reserve nothing."""
        reqs = []
        for i in range(120):
            occ = 0.0 if i % 4 == 0 else _OCC_CLASSES[i % len(_OCC_CLASSES)]
            reqs.append((float((i * 5) % 70), occ))
        self._check(reqs)

    def test_now_on_bucket_boundaries(self):
        """``now == k * BUCKET_CYCLES``: the bucket starts exactly at now.

        Covers ``k = 0`` (an idle machine's first requests at 0.0) and
        boundaries of full and empty buckets alike.
        """
        for occ in _OCC_CLASSES + [0.0, BUCKET_CYCLES]:
            reqs = [(k * BUCKET_CYCLES, occ)
                    for _ in range(12) for k in (0, 1, 2, 5, 3, 0, 1)]
            self._check(reqs)

    def test_fills_summing_exactly_to_capacity(self):
        """A bucket filled to exactly ``BUCKET_CYCLES`` still takes the
        last request in place; the next one moves on."""
        for occ in (0.125, 0.5, 1.0, 4.0, 8.0, 16.0, BUCKET_CYCLES):
            n = int(BUCKET_CYCLES / occ)
            for now in (0.0, 7.5, 31.0, 32.0, 100.0):
                self._check([(now, occ)] * (3 * n + 1))
        # mixed classes whose sum is exactly one bucket
        for now in (0.0, 5.0, 32.0):
            self._check([(now, 16.0), (now, 8.0), (now, 4.0), (now, 4.0),
                         (now, 1.0), (now, 16.0), (now, 16.0), (now, 0.5)])

    def test_reset_clears_skip_state(self):
        fast, ref = Resource(), _ReferenceResource()
        for _ in range(200):
            fast.acquire(0.0, 1.0)
        fast.reset()
        assert fast._full_next == {} and fast._used == {}
        for _ in range(40):
            assert fast.acquire(0.0, 1.0) == ref.acquire(0.0, 1.0)
        assert fast._used == ref._used

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 2000),
                              st.sampled_from(_OCC_CLASSES)),
                    min_size=1, max_size=300))
    def test_generative_equality(self, reqs):
        self._check(reqs)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 500),
                              st.floats(0.01, 48.0)),
                    min_size=1, max_size=200))
    def test_generative_equality_arbitrary_occupancies(self, reqs):
        self._check(reqs)


class TestResourceGroup:
    def test_independent_members(self):
        g = ResourceGroup(3)
        assert len(g) == 3
        g.acquire(0, 0.0, 32.0)
        assert g.acquire(1, 0.0, 1.0) == 0.0  # other member unaffected

    def test_indexing(self):
        g = ResourceGroup(2)
        assert g[0] is not g[1]
        assert g[0] is g.members[0]
