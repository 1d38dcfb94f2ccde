"""Contention primitives shared by the timing model.

The simulator is access-driven rather than cycle-driven: each shared
hardware structure (an L2 port, a tree link, an L3 bank, a DRAM channel)
is a :class:`Resource` that requests reserve service capacity on.

Capacity is tracked in fixed-width time buckets rather than a single
FIFO busy-until clock. Cores advance on their own clocks and their
requests reach a resource slightly out of chronological order; with a
busy-until model an early-time request would queue behind reservations
made for *later* wall-clock times, which (combined with posted writes)
feeds back into unbounded phantom queueing. Bucketed capacity keeps
contention local in time: a request at time ``t`` spills into following
buckets only when the buckets around ``t`` are genuinely full, which is
what real queueing looks like at the fidelity this simulator targets.
"""

from __future__ import annotations

from typing import Dict

#: Width of one capacity bucket, in cycles. Small enough that bursts see
#: queueing within a phase, large enough that the bucket dict stays small.
BUCKET_CYCLES = 32.0

#: Exact reciprocal (power of two), so ``t * _INV_BUCKET`` is
#: bit-identical to ``t / BUCKET_CYCLES`` but avoids the division in the
#: per-access hot path.
_INV_BUCKET = 1.0 / BUCKET_CYCLES


class Resource:
    """A single server with bucketed service capacity.

    ``acquire(now, occupancy)`` reserves ``occupancy`` cycles of service
    in the first non-full bucket at or after ``now`` and returns the time
    service starts (>= now). A saturated resource pushes requests into
    later buckets, producing queueing delay proportional to the backlog
    near the requested time. ``now`` is a simulated time: never
    negative, and ``0.0`` rather than ``-0.0`` at the origin.

    A request that fits in ``now``'s own bucket -- the common case --
    costs one probe and starts at ``now``; only a full bucket (or a
    request wider than a bucket) reaches the search below. Saturated
    scans are amortised O(1): buckets proven full are linked into
    path-compressed skip runs (``_full_next``), so a backlogged resource
    never re-walks its full region request after request -- the
    behaviour that made heavily contended phases quadratic. Fill values
    in ``_used`` are untouched by the skip structure, so reservations
    and start times are bit-identical to the plain linear scan (proven
    exhaustively by ``tests/test_timing.py``).
    """

    __slots__ = ("_used", "total_busy", "acquisitions", "_full_next",
                 "_min_occ")

    def __init__(self) -> None:
        self._used: Dict[int, float] = {}
        self.total_busy = 0.0
        self.acquisitions = 0
        # bucket -> next candidate bucket, recorded only for buckets
        # full even for the smallest occupancy this resource has seen
        # (``_min_occ``); a new, smaller occupancy class invalidates the
        # table wholesale. Buckets only ever fill (reset() clears), so
        # a recorded skip can never go stale.
        self._full_next: Dict[int, int] = {}
        self._min_occ = float("inf")

    def _slot_after(self, bucket: int, occupancy: float) -> "tuple[int, float]":
        """First bucket >= ``bucket`` with room for ``occupancy`` whole.

        Returns ``(bucket, filled)`` exactly as the reference linear
        scan would: the first bucket whose fill plus ``occupancy`` does
        not exceed the bucket capacity. Buckets full for every
        occupancy class in use are skipped through ``_full_next`` with
        path compression; buckets full only for this (larger) request
        are stepped over without being recorded, so a later scan with a
        smaller occupancy still inspects them.
        """
        used = self._used
        if occupancy < self._min_occ:
            self._min_occ = occupancy
            self._full_next.clear()
        min_occ = self._min_occ
        full_next = self._full_next
        run: list = []
        while True:
            skip = full_next.get(bucket)
            if skip is not None:
                run.append(bucket)
                bucket = skip
                continue
            filled = used.get(bucket, 0.0)
            if filled + occupancy <= BUCKET_CYCLES:
                break
            if filled + min_occ > BUCKET_CYCLES:
                run.append(bucket)
            elif run:
                # Full for this request only: a smaller class could
                # still land here, so the compressed run must end at
                # this bucket rather than jump across it.
                for member in run:
                    full_next[member] = bucket
                run.clear()
            bucket += 1
        for member in run:
            full_next[member] = bucket
        return bucket, filled

    def acquire(self, now: float, occupancy: float) -> float:
        self.acquisitions += 1
        if occupancy <= 0.0:
            return now
        self.total_busy += occupancy
        used = self._used
        bucket = int(now * _INV_BUCKET)
        filled = used.get(bucket, 0.0)
        if filled + occupancy <= BUCKET_CYCLES:
            # Fits in ``now``'s own bucket, which starts at or before
            # ``now``: no search, no spill, service starts at once.
            used[bucket] = filled + occupancy
            return now
        # Otherwise service starts in the first bucket that can take the
        # request whole, or -- for occupancies wider than one bucket --
        # in the first bucket with any free capacity, spilling the
        # remainder into the following buckets.
        if occupancy <= BUCKET_CYCLES:
            bucket, filled = self._slot_after(bucket, occupancy)
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

    def backlog(self, now: float) -> float:
        """Cycles of service already reserved in ``now``'s bucket."""
        return self._used.get(int(now / BUCKET_CYCLES), 0.0)

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` cycles this resource spent busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.total_busy / elapsed)

    def reset(self) -> None:
        """Forget all reserved capacity (keeps cumulative statistics).

        Tools that repeatedly rewind the simulator to time zero (the
        model checker) must drop the bucket backlog, or every replayed
        access would queue behind reservations from abandoned branches.
        A resource with no reservation returns at once: every positive
        :meth:`acquire` fills ``_used``, and the skip table and the
        smallest occupancy only change inside such a call, so an empty
        ``_used`` means all three already hold their reset values.
        """
        if not self._used:
            return
        self._used.clear()
        self._full_next.clear()
        self._min_occ = float("inf")


class ResourceGroup:
    """An indexed family of :class:`Resource` (e.g. one per L3 bank)."""

    __slots__ = ("members",)

    def __init__(self, count: int) -> None:
        self.members = [Resource() for _ in range(count)]

    def __getitem__(self, index: int) -> Resource:
        return self.members[index]

    def __len__(self) -> int:
        return len(self.members)

    def acquire(self, index: int, now: float, occupancy: float) -> float:
        return self.members[index].acquire(now, occupancy)
