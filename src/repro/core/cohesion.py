"""The hybrid L3/directory front-end -- Cohesion's hardware half.

One :class:`MemorySystem` instance models everything on the far side of
the interconnect from the clusters: the banked shared L3, the per-bank
directory slices, the DRAM channels, and Cohesion's region tables. It
implements all three evaluated memory models behind one interface
(Section 4.1): the :class:`~repro.config.Policy` selects whether requests
resolve to the software domain (pure SWcc), the hardware domain (pure
HWcc), or dynamically via directory -> coarse table -> fine table
(Cohesion, Section 3.4).

Request handling follows the paper exactly:

* The directory is queried when a request arrives at the L3; a hit means
  the line is HWcc and the directory handles the response.
* A directory miss consults the coarse-grain region table (accessed in
  parallel, zero extra cost); a coarse hit returns the data with the
  *incoherent bit* set in the reply.
* Otherwise the fine-grain region table is consulted, which costs a real
  L3 access for the table word's line (and possibly a DRAM fill on an L3
  miss). A set bit replies incoherent; a clear bit allocates a directory
  entry and the line is hardware-coherent thereafter.
* All requests for a line serialise through its home bank; directory
  evictions invalidate every sharer of the victim.

The cluster-side L2 behaviour lives in :mod:`repro.sim.cluster`; domain
transitions in :mod:`repro.core.transitions`.
"""

from __future__ import annotations

import weakref
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.config import MachineConfig, Policy
from repro.coherence.directory import (DIR_M, DIR_S, BaseDirectory,
                                      _Occupancy, build_directory)
from repro.coherence.messages import MessageCounters
from repro.core.region_table import CoarseRegionTable, FineRegionTable
from repro.errors import ProtocolError
from repro.interconnect.network import Network
from repro.mem.address import FULL_WORD_MASK, line_of
from repro.mem.backing import BackingStore, NullBackingStore
from repro.mem.cache import Cache, CacheLine
from repro.mem.dram import DramModel
from repro.obs.bus import EV_MSG, EventBus, ObsEvent
from repro.runtime.layout import AddressLayout
from repro.timing import ResourceGroup
from repro.types import MessageType, PolicyKind

class Reply(NamedTuple):
    """Completion of a cluster request at the requesting cluster."""

    time: float
    incoherent: bool
    data: Optional[List[int]]


class MemorySystem:
    """Banked L3 + directory + DRAM + region tables for one machine."""

    def __init__(self, config: MachineConfig, policy: Policy,
                 layout: Optional[AddressLayout] = None) -> None:
        from repro.core.transitions import TransitionEngine  # avoid cycle

        self.config = config
        self.policy = policy
        #: Machine-wide observability bus; every component of this
        #: memory system (and the clusters built around it) shares it.
        self.obs = EventBus()
        self.layout = layout or AddressLayout(n_cores=config.n_cores)
        self.map = config.address_map
        self.n_clusters = config.n_clusters
        self.l3_latency = config.l3_latency

        bank_lines = config.l3_bank_bytes // config.line_bytes
        self.l3 = [Cache(bank_lines, config.l3_assoc, name=f"l3[{b}]",
                         track_data=config.track_data)
                   for b in range(config.l3_banks)]
        self.bank_ports = ResourceGroup(config.l3_banks)
        # Hot-path lookup tables: the home bank of a line is a pure
        # (and frequently recomputed) function of its address bits, and
        # the DRAM channel of a bank is fixed at construction.
        self._bank_memo: dict = {}
        self._chan_of_bank = [self.map.channel_of_bank(b)
                              for b in range(config.l3_banks)]
        # Pure-SWcc / pure-HWcc policies resolve every request the same
        # way; precompute that answer so _resolve_domain skips the enum
        # identity checks on the per-miss hot path. None = hybrid
        # (Cohesion), resolved dynamically.
        kind = policy.kind
        self._fixed_domain = (True if kind is PolicyKind.SWCC else
                              False if kind is PolicyKind.HWCC else None)
        self.dirs: List[BaseDirectory] = []
        self.dir_occupancy = None
        if policy.uses_directory:
            self.dirs = [build_directory(policy.directory,
                                         policy.dir_entries_per_bank,
                                         policy.dir_assoc)
                         for _b in range(config.l3_banks)]
            self.dir_occupancy = _Occupancy()
            for bank, bank_dir in enumerate(self.dirs):
                bank_dir.global_occupancy = self.dir_occupancy
                bank_dir.obs = self.obs
                bank_dir.bank = bank
        self.dram = DramModel(config)
        self.dram.obs = self.obs
        self.net = Network(config)
        self.net.obs = self.obs
        #: Every memory-side timing resource (bank ports, tree links,
        #: crossbar, DRAM channels), for :meth:`reset_contention`.
        self.resources = (*self.bank_ports.members,
                          *self.net.up_links.members,
                          *self.net.down_links.members, self.net.crossbar,
                          *self.dram.channels.members)
        self.backing = BackingStore() if config.track_data else NullBackingStore()
        self.coarse = CoarseRegionTable()
        self.fine = FineRegionTable(self.layout.fine_table_base)
        self.counters = MessageCounters()
        self.clusters: Sequence = ()
        self.transitions = TransitionEngine(self)

        # extra statistics
        self.fine_lookups = 0
        self.swcc_races = 0
        self.max_time = 0.0

    # -- wiring ----------------------------------------------------------------
    def attach_clusters(self, clusters: Sequence) -> None:
        """Connect the cluster controllers (called by the machine builder).

        The caller owns the clusters; the memory system keeps weak
        proxies to them for its probes. Each cluster holds this memory
        system plainly (every L2 miss goes through it), so a strong
        edge back would close a reference cycle.
        """
        if len(clusters) != self.n_clusters:
            raise ProtocolError("cluster count does not match configuration")
        self.clusters = tuple(map(weakref.proxy, clusters))

    # -- snapshot / restore (model-checker hooks) ---------------------------------
    def snapshot(self) -> dict:
        """Capture all protocol-visible memory-side state.

        Covers the L3 data arrays, the directory banks, the fine-table
        override bits and the backing store. Timing backlog, message
        counters and occupancy statistics are deliberately excluded: they
        never influence protocol behaviour, only reported numbers.
        """
        return {
            "l3": [bank.snapshot() for bank in self.l3],
            "dirs": [d.snapshot() for d in self.dirs],
            "fine": self.fine.snapshot(),
            "backing": self.backing.snapshot(),
        }

    def restore(self, snap: dict) -> None:
        """Reset protocol state to a :meth:`snapshot` and rewind timing.

        The machine-wide directory tracker is zeroed in place (every
        bank keeps its reference to it) and refilled from the banks
        that hold entries, so an empty bank costs nothing beyond its
        own restore. Only timing resources that hold a reservation do
        any work to forget it (see :meth:`Resource.reset`).
        """
        for bank, bank_snap in zip(self.l3, snap["l3"]):
            bank.restore(bank_snap)
        total = self.dir_occupancy
        if total is not None:
            total.reset()
            by_class = total.count_by_class
            for bank_dir, dir_snap in zip(self.dirs, snap["dirs"]):
                bank_dir.restore(dir_snap)
                if not dir_snap:
                    continue
                occupancy = bank_dir.occupancy
                if total.count:
                    for klass, count in occupancy.count_by_class.items():
                        if count:
                            by_class[klass] += count
                else:  # all zeros so far: copy, without hashing a class
                    by_class.update(occupancy.count_by_class)
                total.count += occupancy.count
            total.max_count = total.count
        self.fine.restore(snap["fine"])
        self.backing.restore(snap["backing"])
        self.reset_contention()
        self.max_time = 0.0

    def reset_contention(self) -> None:
        """Drop reserved capacity on every timing resource (stats kept)."""
        for resource in self.resources:
            resource.reset()

    # -- directory helpers -------------------------------------------------------
    def _bank(self, line: int) -> int:
        """Memoized :meth:`AddressMap.bank_of_line` (pure address math)."""
        memo = self._bank_memo
        bank = memo.get(line)
        if bank is None:
            bank = memo[line] = self.map.bank_of_line(line)
        return bank

    def _emit_msg(self, now: float, cluster_id: int, line: int, mtype: str,
                  weight: Optional[int] = None) -> None:
        """Announce one protocol message on the bus (caller checks active).

        ``weight`` lets an aggregated emit stand for several physical
        messages (e.g. a clean-request broadcast); samplers treat a None
        weight as 1.
        """
        self.obs.emit(ObsEvent(now, EV_MSG, cluster_id, None, line,
                               value=weight, detail=mtype))

    def directory_of(self, line: int) -> BaseDirectory:
        return self.dirs[self._bank(line)]

    def total_directory_entries(self) -> int:
        return sum(len(d) for d in self.dirs)

    def _note_time(self, t: float) -> float:
        if t > self.max_time:
            self.max_time = t
        return t

    # -- L3 data array ------------------------------------------------------------
    def _l3_victim(self, bank: int, victim: CacheLine, now: float) -> None:
        """Handle an L3 eviction: write dirty words toward DRAM (posted)."""
        if victim.dirty_mask:
            mask = victim.dirty_mask & victim.valid_mask
            if victim.data is not None:
                self.backing.write_line(victim.line, victim.data, mask)
            self.dram.access(self._chan_of_bank[bank], now)

    def _l3_access(self, bank: int, line: int, now: float,
                   write_mask: int = 0,
                   write_values: Optional[Sequence[int]] = None,
                   need_data: bool = True) -> Tuple[float, CacheLine]:
        """One serialised access to an L3 bank's data array.

        Fills from DRAM when ``need_data`` and the line (or part of it)
        is absent; merges ``write_mask``/``write_values`` into the line.
        Returns the completion time and the resident L3 entry.
        """
        # Every miss in the machine funnels through here: one cycle of
        # bank-port service, then the tag probe.
        t = self.bank_ports.members[bank].acquire(now, 1.0) + self.l3_latency
        cache = self.l3[bank]
        entry = cache.lookup(line)
        if entry is None:
            if need_data:
                t = self.dram.access(self._chan_of_bank[bank], t)
            entry, victim = cache.allocate(
                line, FULL_WORD_MASK if need_data else write_mask)
            if victim is not None:
                self._l3_victim(bank, victim, t)
            if need_data and entry.data is not None:
                entry.data[:] = self.backing.read_line(line)
        elif need_data and not entry.fully_valid:
            # Partially valid line (accumulated SWcc writebacks): merge the
            # missing words from memory before serving a full-line read.
            t = self.dram.access(self._chan_of_bank[bank], t)
            if entry.data is not None:
                mem = self.backing.read_line(line)
                for word in range(len(mem)):
                    if not entry.valid_mask & (1 << word):
                        entry.data[word] = mem[word]
            entry.valid_mask = FULL_WORD_MASK
        if write_mask:
            entry.valid_mask |= write_mask
            entry.dirty_mask |= write_mask
            if entry.data is not None and write_values is not None:
                for word in range(len(write_values)):
                    if write_mask & (1 << word):
                        entry.data[word] = write_values[word]
        return self._note_time(t), entry

    def _line_data(self, entry: CacheLine) -> Optional[List[int]]:
        return list(entry.data) if entry.data is not None else None

    # -- domain resolution (Section 3.4 front-end order) ---------------------------
    def _resolve_domain(self, line: int, bank: int, t: float) -> Tuple[bool, float]:
        """Return (is_swcc, time) for a request arriving at ``t``."""
        fixed = self._fixed_domain
        if fixed is not None:
            return fixed, t
        if self.dirs[bank].get(line) is not None:
            return False, t
        if self.coarse.lookup_line(line):
            return True, t
        self.fine_lookups += 1
        table_line = line_of(self.fine.table_word_addr(line))
        t, _entry = self._l3_access(bank, table_line, t, need_data=True)
        return self.fine.is_swcc(line), t

    # -- probe machinery ------------------------------------------------------------
    def _probe_invalidate_targets(self, line: int, targets: Sequence[int],
                                  bank: int, now: float) -> float:
        """Invalidate ``line`` in every target L2; collect dirty data.

        Probes travel in parallel; each responding cluster sends one
        probe-response message. Dirty data is merged into the L3.
        Returns the time the last acknowledgement reaches the directory.
        """
        done = now
        counters = self.counters
        port = self.bank_ports.members[bank]
        for cluster_id in targets:
            # The directory serialises probe issue and ack processing at
            # its (single-ported) bank; under eviction storms this is a
            # real queueing point.
            issue = port.acquire(now, 1.0)
            arrive = self.net.to_cluster(cluster_id, issue)
            present, dirty_mask, values, svc_done = \
                self.clusters[cluster_id].probe_invalidate(line, arrive)
            counters.probe_response += 1
            if self.obs.active:
                self._emit_msg(svc_done, cluster_id, line,
                               MessageType.PROBE_RESPONSE.value)
            resp = self.net.to_l3(cluster_id, svc_done)
            resp = port.acquire(resp, 1.0)
            if present and dirty_mask:
                resp, _ = self._l3_access(bank, line, resp,
                                          write_mask=dirty_mask,
                                          write_values=values,
                                          need_data=False)
            if resp > done:
                done = resp
        return self._note_time(done)

    def _evict_directory_victim(self, bank: int, victim, now: float) -> float:
        """Directory eviction: invalidate all sharers of the victim entry."""
        targets, _bcast = self.dirs[bank].invalidation_targets(
            victim, self.n_clusters)
        if not targets:
            return now
        return self._probe_invalidate_targets(victim.line, targets, bank, now)

    def _dir_allocate(self, line: int, bank: int, now: float):
        """Allocate a directory entry, handling any forced eviction."""
        klass = self.layout.classify_line(line)
        entry, victim = self.dirs[bank].allocate(line, klass, now)
        if victim is not None:
            now = self._evict_directory_victim(bank, victim, now)
        return entry, now

    # == cluster-visible operations ===================================================

    def read_line(self, cluster_id: int, line: int, now: float,
                  instruction: bool = False) -> Reply:
        """Read request (RdReq) from an L2 miss; returns the filled line."""
        if instruction:
            self.counters.instruction_request += 1
        else:
            self.counters.read_request += 1
        if self.obs.active:
            self._emit_msg(now, cluster_id, line,
                           MessageType.INSTRUCTION_REQUEST.value if instruction
                           else MessageType.READ_REQUEST.value)
        bank = self._bank(line)
        t = self.net.to_l3(cluster_id, now)
        swcc, t = self._resolve_domain(line, bank, t)
        if swcc:
            t, entry = self._l3_access(bank, line, t)
            return Reply(self._note_time(self.net.to_cluster(cluster_id, t)),
                         True, self._line_data(entry))
        directory = self.dirs[bank]
        entry = directory.get(line)
        if entry is None:
            entry, t = self._dir_allocate(line, bank, t)
        elif entry.state == DIR_M:
            owner = entry.owner()
            if owner == cluster_id:
                raise ProtocolError(
                    f"read miss from owner of modified line {line:#x}")
            # Downgrade M -> S: fetch dirty data from the owner; the owner
            # keeps a clean (shared) copy.
            arrive = self.net.to_cluster(owner, t)
            dirty_mask, values, svc_done = \
                self.clusters[owner].probe_downgrade(line, arrive)
            self.counters.probe_response += 1
            if self.obs.active:
                self._emit_msg(svc_done, owner, line,
                               MessageType.PROBE_RESPONSE.value)
            t = self.net.to_l3(owner, svc_done)
            if dirty_mask:
                t, _ = self._l3_access(bank, line, t, write_mask=dirty_mask,
                                       write_values=values, need_data=False)
            entry.state = DIR_S
        directory.add_sharer(entry, cluster_id)
        t, l3_entry = self._l3_access(bank, line, t)
        return Reply(self._note_time(self.net.to_cluster(cluster_id, t)),
                     False, self._line_data(l3_entry))

    def write_line_request(self, cluster_id: int, line: int, now: float) -> Reply:
        """Write request (WrReq) from a store miss; returns the line.

        Under SWcc resolution the line is returned with the incoherent
        bit; under HWcc the directory first removes every other copy and
        installs the requester as the modified owner.
        """
        self.counters.write_request += 1
        if self.obs.active:
            self._emit_msg(now, cluster_id, line,
                           MessageType.WRITE_REQUEST.value)
        bank = self._bank(line)
        t = self.net.to_l3(cluster_id, now)
        swcc, t = self._resolve_domain(line, bank, t)
        if swcc:
            t, entry = self._l3_access(bank, line, t)
            return Reply(self._note_time(self.net.to_cluster(cluster_id, t)),
                         True, self._line_data(entry))
        directory = self.dirs[bank]
        entry = directory.get(line)
        if entry is None:
            entry, t = self._dir_allocate(line, bank, t)
        else:
            targets, _bcast = directory.invalidation_targets(
                entry, self.n_clusters, exclude=cluster_id)
            if targets:
                t = self._probe_invalidate_targets(line, targets, bank, t)
            entry.sharers = 0
        entry.state = DIR_M
        directory.add_sharer(entry, cluster_id)
        t, l3_entry = self._l3_access(bank, line, t)
        return Reply(self._note_time(self.net.to_cluster(cluster_id, t)),
                     False, self._line_data(l3_entry))

    def upgrade_request(self, cluster_id: int, line: int, now: float) -> float:
        """S -> M upgrade for a line the requester already holds clean."""
        self.counters.write_request += 1
        if self.obs.active:
            self._emit_msg(now, cluster_id, line,
                           MessageType.WRITE_REQUEST.value)
        bank = self._bank(line)
        t = self.net.to_l3(cluster_id, now)
        directory = self.dirs[bank]
        entry = directory.get(line)
        if entry is None or not entry.sharers & (1 << cluster_id):
            raise ProtocolError(
                f"upgrade for line {line:#x} the directory does not track "
                f"cluster {cluster_id} sharing")
        targets, _bcast = directory.invalidation_targets(
            entry, self.n_clusters, exclude=cluster_id)
        if targets:
            t = self._probe_invalidate_targets(line, targets, bank, t)
        entry.sharers = 1 << cluster_id
        entry.state = DIR_M
        directory.touch(entry)
        return self._note_time(self.net.to_cluster(cluster_id, t))

    def writeback(self, cluster_id: int, line: int, dirty_mask: int,
                  values: Optional[Sequence[int]], now: float,
                  message: MessageType, incoherent: bool,
                  releases_ownership: bool = True) -> float:
        """Dirty data pushed from an L2 (eviction, flush, or WrRel).

        ``incoherent`` says whether the L2 held the line in the SWcc
        domain (no directory interaction). For a coherent modified line
        being evicted, the owner's directory entry is released.
        """
        if message is MessageType.SOFTWARE_FLUSH:
            self.counters.software_flush += 1
        elif message is MessageType.CACHE_EVICTION:
            self.counters.cache_eviction += 1
        else:
            raise ProtocolError(f"writeback cannot carry {message}")
        if self.obs.active:
            self._emit_msg(now, cluster_id, line, message.value)
        bank = self._bank(line)
        t = self.net.to_l3(cluster_id, now)
        t, _ = self._l3_access(bank, line, t, write_mask=dirty_mask,
                               write_values=values, need_data=False)
        if not incoherent and self.policy.uses_directory and releases_ownership:
            directory = self.dirs[bank]
            entry = directory.get(line)
            if entry is None:
                raise ProtocolError(
                    f"coherent writeback of untracked line {line:#x}")
            directory.remove_sharer(entry, cluster_id)
            if entry.sharers == 0:
                directory.deallocate(entry, t)
            else:
                entry.state = DIR_S
        return self._note_time(t)

    def read_release(self, cluster_id: int, line: int, now: float) -> float:
        """Clean-eviction notification (RdRel) for a coherent line.

        HWcc does not support silent evictions (Section 2.1): the L2
        notifies the directory, which deallocates the entry when the
        sharer count drops to zero.
        """
        self.counters.read_release += 1
        if self.obs.active:
            self._emit_msg(now, cluster_id, line,
                           MessageType.READ_RELEASE.value)
        bank = self._bank(line)
        t = self.net.to_l3(cluster_id, now)
        t = self.bank_ports.acquire(bank, t, 0.5)
        directory = self.dirs[bank]
        entry = directory.get(line)
        if entry is not None:
            directory.remove_sharer(entry, cluster_id)
            if entry.sharers == 0:
                directory.deallocate(entry, t)
        return self._note_time(t)

    def atomic(self, cluster_id: int, addr: int, func, operand: int,
               now: float) -> Tuple[float, int]:
        """Uncached atomic read-modify-write performed at the L3.

        If the target line is hardware-tracked, every cached copy is
        first removed so the L3 holds the authoritative value.
        """
        self.counters.uncached_atomic += 1
        line = line_of(addr)
        if self.obs.active:
            self._emit_msg(now, cluster_id, line,
                           MessageType.UNCACHED_ATOMIC.value)
        bank = self._bank(line)
        t = self.net.to_l3(cluster_id, now)
        if self.policy.uses_directory:
            directory = self.dirs[bank]
            entry = directory.get(line)
            if entry is not None:
                targets, _bcast = directory.invalidation_targets(
                    entry, self.n_clusters)
                if targets:
                    t = self._probe_invalidate_targets(line, targets, bank, t)
                directory.deallocate(entry, t)
        t, l3_entry = self._l3_access(bank, line, t)
        word = (addr >> 2) & 7
        old = 0
        if l3_entry.data is not None:
            old = l3_entry.data[word]
            l3_entry.data[word] = func(old, operand) & 0xFFFFFFFF
        l3_entry.dirty_mask |= 1 << word
        return self._note_time(self.net.to_cluster(cluster_id, t)), old

    # -- fine-table update path (used by the transition engine) ------------------------
    def table_update(self, cluster_id: int, line: int, now: float) -> float:
        """Timing of the runtime's ``atom.or``/``atom.and`` on the table.

        The update is a word-aligned uncached RMW at the L3 bank that
        homes both the data line and its table word (``hybrid.tbloff``
        keeps them collocated). Returns the time the table word is
        updated at the L3 -- the directory snoop then runs the domain
        transition before acknowledging the issuing core.
        """
        self.counters.uncached_atomic += 1
        if self.obs.active:
            self._emit_msg(now, cluster_id, line,
                           MessageType.UNCACHED_ATOMIC.value)
        bank = self._bank(line)
        table_line = line_of(self.fine.table_word_addr(line))
        t = self.net.to_l3(cluster_id, now)
        t, entry = self._l3_access(bank, table_line, t)
        entry.dirty_mask |= 1 << ((self.fine.table_word_addr(line) >> 2) & 7)
        return self._note_time(t)
