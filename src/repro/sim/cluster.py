"""Cluster cache controller: eight cores sharing a unified L2.

This is where the L2-side halves of both protocols live (Figure 6):

**SWcc lines** (incoherent bit set): stores write-allocate locally with
per-word valid/dirty bits and never wait on -- or notify -- the
directory; clean lines are dropped silently on eviction or software
invalidation; dirty data reaches the globally visible L3 only through
explicit flush (WB) instructions or dirty evictions.

**HWcc lines**: loads/stores miss to the directory; a store to a shared
line issues an upgrade; clean evictions send read releases (no silent
evictions, Section 2.1); dirty evictions write back and release
ownership; directory probes can invalidate or downgrade lines at any
time.

Under the pure-SWcc policy every line is treated as incoherent, so a
store miss allocates in the L2 with no message at all; under HWcc and
Cohesion a store miss must ask the L3, whose reply's incoherent bit
tells the L2 which regime the line is under from then on.

The tiny per-core L1s are write-through/no-write-allocate, so they never
hold dirty data and are bulk-invalidated whenever their L2 line goes
away for any reason.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Tuple

from repro.config import MachineConfig, Policy
from repro.core.cohesion import MemorySystem
from repro.errors import ProtocolError
from repro.mem.address import (FULL_WORD_MASK, LINE_SHIFT, WORD_SHIFT,
                               WORDS_PER_LINE)
from repro.mem.cache import Cache, CacheLine, occupied
from repro.obs.bus import (EV_ATOMIC, EV_FLUSH, EV_IFETCH, EV_INV, EV_LOAD,
                           EV_PROBE_CLEAN, EV_PROBE_DOWN, EV_PROBE_INV,
                           EV_STORE, ObsEvent)
from repro.timing import Resource
from repro.types import MessageType, PolicyKind


class Cluster:
    """One eight-core cluster and its shared L2."""

    # "__dict__" is included deliberately: the model checker's mutation
    # harness monkey-patches protocol methods on live cluster instances.
    # Observation tools no longer wrap methods -- they subscribe to the
    # machine's event bus (``self.obs``, see repro.obs.bus).
    # "__weakref__" lets the memory system hold its probe targets weakly.
    __slots__ = ("id", "memsys", "counters", "l2", "l1d", "l1i", "port",
                 "bus_latency", "l2_latency", "port_occ", "swcc_all",
                 "uses_dir", "n_cores", "track_data", "_posted",
                 "write_buffer_depth", "obs", "_l1_present", "_l1s",
                 "_l1d_bits", "_l1_compact_at", "__dict__", "__weakref__")


    def __init__(self, cluster_id: int, config: MachineConfig, policy: Policy,
                 memsys: MemorySystem) -> None:
        self.id = cluster_id
        self.memsys = memsys
        self.obs = memsys.obs
        self.counters = memsys.counters
        self.track_data = config.track_data
        self.l2 = Cache(config.l2_lines, config.l2_assoc,
                        name=f"l2[{cluster_id}]", track_data=config.track_data)
        n = config.cores_per_cluster
        self.n_cores = n
        l1d_lines = config.l1d_bytes // config.line_bytes
        l1i_lines = config.l1i_bytes // config.line_bytes
        self.l1d = [Cache(l1d_lines, config.l1d_assoc, name=f"l1d[{cluster_id}.{i}]",
                          track_data=config.track_data) for i in range(n)]
        self.l1i = [Cache(l1i_lines, config.l1i_assoc, name=f"l1i[{cluster_id}.{i}]")
                    for i in range(n)]
        self.port = Resource()
        self.bus_latency = config.cluster_bus_latency
        self.l2_latency = config.l2_latency
        self.port_occ = 1.0 / config.l2_ports
        self.swcc_all = policy.kind is PolicyKind.SWCC
        self.uses_dir = policy.uses_directory
        # Write-buffer: posted operations (store misses, upgrades,
        # flush/eviction writebacks, read releases) in flight. When
        # full, the issuing core stalls until the oldest completes --
        # the back-pressure that keeps burst traffic from racing
        # unboundedly ahead of the network.
        self.write_buffer_depth = config.write_buffer_depth
        self._posted: deque = deque()
        # Conservative record of which L1s may hold each line: line ->
        # bitmask over ``_l1s`` (bit i for core i's L1D, bit
        # ``n_cores + i`` for its L1I). Fills set a bit; drops discard
        # the line in the named L1s only and remove it. L1 victims evict
        # silently, so stale bits linger -- that only costs a redundant
        # (no-op) discard, never a skipped one, so counters and timing
        # are unaffected. Staleness is *bounded*: once the record
        # outgrows twice the cluster's total L1 line capacity,
        # :meth:`_l1_compact` rebuilds it from the tag arrays
        # (O(capacity), and at least ``capacity`` fills apart -- so
        # amortized O(1) per fill and the record can never grow without
        # bound on long-running full-machine cells).
        self._l1_present: dict = {}
        #: Every per-core cache, for whole-L1 walks and holder bits.
        self._l1s = (*self.l1d, *self.l1i)
        self._l1d_bits = (1 << n) - 1
        capacity = sum(c.n_sets * c.assoc for c in self.l1d)
        capacity += sum(c.n_sets * c.assoc for c in self.l1i)
        self._l1_compact_at = 2 * capacity

    # -- internal helpers ---------------------------------------------------
    def _l2_start(self, now: float) -> float:
        """Bus transfer plus one serialised L2 tag/data access."""
        start = self.port.acquire(now, self.port_occ)
        return start + self.bus_latency + self.l2_latency

    def _posted_slot(self, now: float) -> float:
        """Reserve a write-buffer entry, stalling if the buffer is full."""
        queue = self._posted
        while queue and queue[0] <= now:
            queue.popleft()
        if len(queue) >= self.write_buffer_depth:
            now = queue.popleft()
        return now

    def _posted_done(self, completion: float) -> None:
        self._posted.append(completion)

    def _drop_l1(self, line: int) -> None:
        """Remove ``line`` from every L1 that may hold it."""
        holders = self._l1_present.pop(line, 0)
        l1s = self._l1s
        while holders:
            low = holders & -holders
            l1s[low.bit_length() - 1].discard(line)
            holders ^= low

    def _l1_compact(self) -> None:
        """Shrink ``_l1_present`` back to ground truth.

        Rebuilds the record from the L1 tag arrays, dropping every bit
        (and line) that silent L1 evictions have already displaced.
        Pure metadata: a dropped bit only suppresses discards that
        would have no-opped anyway, so counters, timing and protocol
        state are untouched.
        """
        present = self._l1_present
        present.clear()
        get = present.get
        for index, cache in enumerate(self._l1s):
            bit = 1 << index
            for entry in cache.lines():
                present[entry.line] = get(entry.line, 0) | bit

    def _fill_l1(self, core: int, entry: CacheLine) -> None:
        """Install an L2 line's current contents into a core's L1D.

        Only the L2 entry's *valid* words are validated in the L1: a
        partially valid SWcc line (write-allocated words only) must not
        produce L1 hits on words that were never fetched. L1 victims
        are silent, so the recycling :meth:`Cache.fill` is used.
        """
        line = entry.line
        present = self._l1_present
        if len(present) >= self._l1_compact_at:
            self._l1_compact()
        present[line] = present.get(line, 0) | 1 << core
        copy = self.l1d[core].fill(line, entry.valid_mask)
        if copy.data is not None and entry.data is not None:
            copy.data[:] = entry.data

    def _handle_victim(self, victim: CacheLine, now: float) -> float:
        """Protocol actions owed by an evicted L2 line.

        Returns the (possibly stalled) time the eviction message entered
        the write buffer; silent drops return ``now`` unchanged.
        """
        self._drop_l1(victim.line)
        if victim.incoherent:
            if victim.dirty_mask:  # push modified words; clean drops are silent
                now = self._posted_slot(now)
                self._posted_done(self.memsys.writeback(
                    self.id, victim.line, victim.dirty_mask, victim.data, now,
                    MessageType.CACHE_EVICTION, incoherent=True))
            return now
        now = self._posted_slot(now)
        if victim.dirty_mask:
            self._posted_done(self.memsys.writeback(
                self.id, victim.line, victim.dirty_mask, victim.data, now,
                MessageType.CACHE_EVICTION, incoherent=False))
        else:
            self._posted_done(self.memsys.read_release(self.id, victim.line, now))
        return now

    def _install(self, line: int, reply, dirty_mask: int = 0,
                 keep: Optional[CacheLine] = None) -> CacheLine:
        """Install a fetched line, merging any locally dirty words."""
        local_dirty = 0
        local_values: Optional[List[int]] = None
        if keep is not None:
            local_dirty = keep.dirty_mask
            if keep.data is not None:
                local_values = list(keep.data)
        entry, victim = self.l2.allocate(line, FULL_WORD_MASK,
                                         dirty_mask=dirty_mask | local_dirty,
                                         incoherent=reply.incoherent)
        if victim is not None:
            self._handle_victim(victim, reply.time)
        if entry.data is not None:
            if reply.data is not None:
                entry.data[:] = reply.data
            if local_values is not None:
                for word in range(len(entry.data)):
                    if local_dirty & (1 << word):
                        entry.data[word] = local_values[word]
        return entry

    # == core-visible operations =============================================

    def load(self, core: int, addr: int, now: float) -> Tuple[float, int]:
        """Load one word; returns (finish time, value or 0)."""
        line = addr >> LINE_SHIFT
        word = (addr >> WORD_SHIFT) & (WORDS_PER_LINE - 1)
        bit = 1 << word
        l1 = self.l1d[core]
        e1 = l1.lookup(line)
        if e1 is not None and e1.valid_mask & bit:
            value = e1.data[word] if e1.data is not None else 0
            obs = self.obs
            if obs.active:
                obs.emit(ObsEvent(now, EV_LOAD, self.id, core, line,
                                  addr, value, 1.0))
            return now + 1, value
        t = self._l2_start(now)
        entry = self.l2.lookup(line)
        if entry is not None and entry.valid_mask & bit:
            self._fill_l1(core, entry)
            value = entry.data[word] if entry.data is not None else 0
            obs = self.obs
            if obs.active:
                obs.emit(ObsEvent(now, EV_LOAD, self.id, core, line,
                                  addr, value, t - now))
            return t, value
        if entry is not None and not entry.incoherent:
            raise ProtocolError(f"partially valid coherent line {line:#x}")
        reply = self.memsys.read_line(self.id, line, t)
        entry = self._install(line, reply, keep=entry)
        self._fill_l1(core, entry)
        value = entry.data[word] if entry.data is not None else 0
        obs = self.obs
        if obs.active:
            obs.emit(ObsEvent(now, EV_LOAD, self.id, core, line,
                              addr, value, reply.time - now))
        return reply.time, value

    def store(self, core: int, addr: int, value: int, now: float) -> float:
        """Store one word; returns the finish time at the core."""
        line = addr >> LINE_SHIFT
        word = (addr >> WORD_SHIFT) & (WORDS_PER_LINE - 1)
        # Stores announce at issue time, before any probes they trigger.
        obs = self.obs
        if obs.active:
            obs.emit(ObsEvent(now, EV_STORE, self.id, core, line, addr, value))
        l1d = self.l1d
        e1 = l1d[core].peek(line)
        if e1 is not None and e1.data is not None:
            e1.data[word] = value  # write-through keeps the L1 copy fresh
        # Sibling cores' L1 copies go stale: the cluster bus invalidates
        # them (write-through L1s snoop the shared L2's write lane). Only
        # the siblings whose L1D may hold the line are touched; their
        # bits stay behind as harmless stale ones.
        siblings = self._l1_present.get(line, 0) & self._l1d_bits
        siblings &= ~(1 << core)
        while siblings:
            low = siblings & -siblings
            l1d[low.bit_length() - 1].discard(line)
            siblings ^= low
        t = self._l2_start(now)
        entry = self.l2.lookup(line)
        if entry is not None:
            if entry.incoherent or entry.dirty_mask:
                # SWcc line, or an already-modified (M) coherent line.
                entry.write_word(word, value)
                return t
            # S -> M upgrade. The store is posted (retired from a store
            # buffer): the core pays only the issue cost while the
            # directory's invalidations run in the background, holding
            # their network/L2/directory resources.
            t = self._posted_slot(t)
            self._posted_done(self.memsys.upgrade_request(self.id, line, t))
            entry.write_word(word, value)
            return t
        if self.swcc_all:
            # Write-allocate without any directory interaction: only the
            # written word becomes valid (per-word valid/dirty bits).
            bit = 1 << word
            entry, victim = self.l2.allocate(line, valid_mask=bit,
                                             dirty_mask=bit, incoherent=True)
            if victim is not None:
                self._handle_victim(victim, t)
            entry.write_word(word, value)
            return t
        # Posted write miss: the WrReq round trip reserves resources but
        # only stalls the core when the write buffer is full.
        t = self._posted_slot(t)
        reply = self.memsys.write_line_request(self.id, line, t)
        self._posted_done(reply.time)
        entry = self._install(line, reply)
        entry.write_word(word, value)
        return t

    def ifetch(self, core: int, addr: int, now: float) -> float:
        """Instruction fetch through the core's L1I."""
        line = addr >> LINE_SHIFT
        l1 = self.l1i[core]
        if l1.lookup(line) is not None:
            obs = self.obs
            if obs.active:
                obs.emit(ObsEvent(now, EV_IFETCH, self.id, core, line,
                                  addr, None, 1.0))
            return now + 1
        t = self._l2_start(now)
        entry = self.l2.lookup(line)
        if entry is None:
            reply = self.memsys.read_line(self.id, line, t, instruction=True)
            entry = self._install(line, reply)
            t = reply.time
        present = self._l1_present
        if len(present) >= self._l1_compact_at:
            self._l1_compact()
        present[line] = present.get(line, 0) | 1 << (self.n_cores + core)
        l1.fill(line, FULL_WORD_MASK)
        obs = self.obs
        if obs.active:
            obs.emit(ObsEvent(now, EV_IFETCH, self.id, core, line,
                              addr, None, t - now))
        return t

    def atomic(self, core: int, addr: int, func, operand: int,
               now: float) -> Tuple[float, int]:
        """Uncached atomic RMW: bypasses the L1s and L2 to the L3."""
        t, old = self.memsys.atomic(self.id, addr, func, operand,
                                    now + self.bus_latency)
        obs = self.obs
        if obs.active:
            obs.emit(ObsEvent(now, EV_ATOMIC, self.id, core,
                              addr >> LINE_SHIFT, addr, old, t - now,
                              f"operand={operand}"))
        return t, old

    def flush_line(self, core: int, line: int, now: float) -> float:
        """Software writeback (WB) instruction for one line.

        Pushes any dirty words to the L3 and cleans the local copy; the
        writeback is posted, so the core only pays the issue cost. A
        flush whose line was already evicted is wasted (Figure 3).
        """
        self.counters.wb_issued += 1
        obs = self.obs
        if obs.active:
            # value carries the pre-op dirty mask (None = line absent) so
            # samplers can classify useful vs. wasted flushes.
            peeked = self.l2.peek(line)
            obs.emit(ObsEvent(now, EV_FLUSH, self.id, core, line,
                              value=None if peeked is None
                              else peeked.dirty_mask,
                              detail="absent" if peeked is None
                              else f"dirty={peeked.dirty_mask:#04x}"))
        t = self._l2_start(now)
        entry = self.l2.peek(line)
        if entry is None:
            return t
        self.counters.wb_on_valid += 1
        if entry.dirty_mask:
            t = self._posted_slot(t)
            self._posted_done(self.memsys.writeback(
                self.id, line, entry.dirty_mask, entry.data, t,
                MessageType.SOFTWARE_FLUSH, incoherent=entry.incoherent,
                releases_ownership=False))
            entry.clean()
        return t

    def invalidate_line(self, core: int, line: int, now: float) -> float:
        """Software invalidate (INV) instruction for one line.

        Invalidation targets *read* data: clean SWcc lines drop locally
        with no message. Locally modified words survive (only the clean
        words of a partially dirty line are invalidated) -- one core's
        lazy barrier invalidations must not discard a sibling core's
        not-yet-flushed output sharing the same L2 line. If software
        targets a hardware-coherent line the L2 behaves like an eviction
        so the directory's sharer state stays exact.
        """
        self.counters.inv_issued += 1
        obs = self.obs
        if obs.active:
            peeked = self.l2.peek(line)
            obs.emit(ObsEvent(now, EV_INV, self.id, core, line,
                              value=None if peeked is None
                              else peeked.dirty_mask,
                              detail="absent" if peeked is None
                              else f"dirty={peeked.dirty_mask:#04x}"))
        t = self._l2_start(now)
        entry = self.l2.peek(line)
        if entry is None:
            return t
        self.counters.inv_on_valid += 1
        if entry.incoherent and entry.dirty_mask:
            # Keep the modified words; drop the (possibly stale) rest.
            entry.valid_mask &= entry.dirty_mask
            self._drop_l1(line)
            return t
        self.l2.remove(line)
        self._drop_l1(line)
        if not entry.incoherent and self.uses_dir:
            t = self._posted_slot(t)
            if entry.dirty_mask:
                self._posted_done(self.memsys.writeback(
                    self.id, line, entry.dirty_mask, entry.data, t,
                    MessageType.CACHE_EVICTION, incoherent=False))
            else:
                self._posted_done(self.memsys.read_release(self.id, line, t))
        return t

    def evict_line(self, core: int, line: int, now: float) -> float:
        """Force a capacity-style L2 eviction of ``line`` (simulator hook).

        Performs exactly the protocol actions a genuine replacement
        victim triggers: L1 copies drop, a dirty SWcc line writes back
        its modified words, a coherent line writes back or sends a read
        release. Used by the model checker to exercise eviction
        interleavings without filling sets.
        """
        t = self._l2_start(now)
        entry = self.l2.remove(line)
        if entry is None:
            return t
        return max(t, self._handle_victim(entry, t))

    # -- snapshot / restore --------------------------------------------------
    def snapshot(self) -> dict:
        """Capture this cluster's L2/L1 contents (statistics excluded).

        Only the non-empty per-core caches are listed, as ``(core,
        entries)`` pairs: the model checker snapshots thousands of
        mostly idle clusters per second.
        """
        return {
            "l2": self.l2.snapshot(),
            "l1d": [(i, c.snapshot()) for i, c in enumerate(self.l1d) if c],
            "l1i": [(i, c.snapshot()) for i, c in enumerate(self.l1i) if c],
        }

    def restore(self, snap: dict) -> None:
        """Reset caches to a :meth:`snapshot`; drop in-flight posted ops.

        ``_l1_present`` records every resident L1 line, so when it is
        empty no per-core cache is looked at; otherwise the occupied
        ones are picked out at C speed (no method call per cache) and
        cleared before the listed ones are refilled. The
        port's reset returns at once unless it holds a reservation, so
        a restore costs what the snapshot and the filled L1s hold.
        """
        self.l2.restore(snap["l2"])
        present = self._l1_present
        if present:
            present.clear()
            for cache in occupied(self._l1s):
                cache.restore(())
        l1d = self.l1d
        for index, entries in snap["l1d"]:
            l1d[index].restore(entries)
            bit = 1 << index
            for entry in entries:
                present[entry[0]] = present.get(entry[0], 0) | bit
        l1i = self.l1i
        for index, entries in snap["l1i"]:
            l1i[index].restore(entries)
            bit = 1 << (self.n_cores + index)
            for entry in entries:
                present[entry[0]] = present.get(entry[0], 0) | bit
        self._posted.clear()
        self.port.reset()

    # == directory-probe interface (called by the memory system) =================

    def peek_line(self, line: int) -> Optional[CacheLine]:
        """Zero-cost ground-truth presence check (simulator fast path)."""
        return self.l2.peek(line)

    def probe_invalidate(self, line: int, now: float
                         ) -> Tuple[bool, int, Optional[List[int]], float]:
        """Invalidate ``line``; returns (present, dirty_mask, values, done)."""
        t = self.port.acquire(now, self.port_occ) + self.l2_latency
        entry = self.l2.remove(line)
        self._drop_l1(line)
        obs = self.obs
        if obs.active:
            obs.emit(ObsEvent(now, EV_PROBE_INV, self.id, None, line,
                              dur=t - now, detail=str(entry is not None)))
        if entry is None:
            return False, 0, None, t
        values = list(entry.data) if entry.data is not None else None
        return True, entry.dirty_mask, values, t

    def probe_downgrade(self, line: int, now: float
                        ) -> Tuple[int, Optional[List[int]], float]:
        """M -> S downgrade: surrender dirty words, keep a clean copy."""
        t = self.port.acquire(now, self.port_occ) + self.l2_latency
        entry = self.l2.peek(line)
        if entry is None or entry.incoherent:
            raise ProtocolError(
                f"downgrade probe for line {line:#x} not owned by cluster {self.id}")
        mask = entry.dirty_mask
        values = list(entry.data) if entry.data is not None else None
        entry.clean()
        obs = self.obs
        if obs.active:
            obs.emit(ObsEvent(now, EV_PROBE_DOWN, self.id, None, line,
                              dur=t - now, detail=str(mask)))
        return mask, values, t

    def probe_clean_query(self, line: int, now: float
                          ) -> Tuple[str, int, Optional[List[int]], float]:
        """SWcc => HWcc broadcast clean request (Section 3.6).

        A fully valid clean holder clears its incoherent bit (the line
        becomes probeable) and acks; a dirty holder reports its dirty
        words; an absent line nacks. A *partially* valid clean copy
        (words invalidated by INV after a write-allocate) cannot serve
        as a coherent sharer -- word validity is an SWcc-only concept --
        so it silently drops and nacks, exactly like the free clean
        drop SWcc already allows.
        """
        t = self.port.acquire(now, self.port_occ) + self.l2_latency
        entry = self.l2.peek(line)
        if entry is None:
            result = ("absent", 0, None, t)
        elif entry.dirty_mask:
            values = list(entry.data) if entry.data is not None else None
            result = ("dirty", entry.dirty_mask, values, t)
        elif entry.valid_mask != FULL_WORD_MASK:
            self.l2.remove(line)
            self._drop_l1(line)
            result = ("absent", 0, None, t)
        else:
            entry.incoherent = False
            result = ("clean", 0, None, t)
        obs = self.obs
        if obs.active:
            obs.emit(ObsEvent(now, EV_PROBE_CLEAN, self.id, None, line,
                              dur=t - now, detail=result[0]))
        return result

    def probe_make_coherent(self, line: int) -> None:
        """Upgrade a dirty SWcc line in place to hardware-owned (M)."""
        entry = self.l2.peek(line)
        if entry is None:
            raise ProtocolError(
                f"ownership upgrade for absent line {line:#x} in cluster {self.id}")
        entry.incoherent = False
