"""Coherence-domain transitions (Section 3.6, Figure 7).

Transitions are initiated by word-aligned, uncached read-modify-write
operations on the fine-grain region table (``atom.or`` to enter SWcc,
``atom.and`` to enter HWcc, addressed through ``hybrid.tbloff``). The
directory snoops the table's address range and orchestrates the protocol
before acknowledging the issuing core, serialising multi-line requests
line by line, so transitions take a total order with respect to every
other access to the line at its home bank.

**HWcc => SWcc** (Figure 7a)
  * Case 1a -- no directory entry: set the table bit, done.
  * Case 2a -- shared: invalidate every sharer, deallocate the entry.
  * Case 3a -- modified: writeback request to the owner, update the L3,
    deallocate. After any case the line is in no L2 and the L3/memory
    holds the current value.

**SWcc => HWcc** (Figure 7b)
  The directory has no knowledge of SWcc lines, so it broadcasts a clean
  request to every cluster; absent clusters nack, fully valid clean
  holders clear their incoherent bit (becoming probeable) and ack, dirty
  holders report their per-word dirty masks. A *partially* valid clean
  copy (INV dropped some words) silently invalidates and nacks: word
  validity is an SWcc-only concept, so such a copy cannot become a
  coherent sharer.

  * Case 1b -- held nowhere: clear the bit, directory stays I.
  * Case 2b -- clean copies only: holders become sharers of a new S entry.
  * Single fully valid dirty copy, no readers: the holder is upgraded to
    owner (M) in place -- no writeback, saving bandwidth. A partially
    valid dirty copy takes the merge path instead (write back, invalidate).
  * Dirty with readers / multiple dirty writers: readers invalidate,
    every dirty copy is written back and invalidated; the L3 merges
    disjoint write sets using per-word dirty bits. After this the line
    is in no L2 and the L3 holds the merged value (directory stays I).
  * Case 5b -- overlapping dirty words in two caches: a hardware race
    caused by buggy software. All dirty copies are discarded (mimicking
    the paper's "turn on coherence, then zero" recipe); the directory
    then either signals an exception
    (:class:`~repro.errors.CoherenceRaceError`, default) or recovers
    silently. Either way the transition completes first, so the
    post-state is consistent: the line is in no L2, the directory stays
    I, and memory holds the pre-race value.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.coherence.directory import DIR_M, DIR_S
from repro.errors import CoherenceRaceError, ProtocolError
from repro.mem.address import FULL_WORD_MASK, lines_in_range
from repro.obs.bus import EV_TO_HWCC, EV_TO_SWCC, ObsEvent
from repro.types import Domain

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cohesion import MemorySystem

#: Directory serialisation cost per broadcast nack we aggregate (cycles).
_NACK_SERIALISATION = 1.0 / 16.0


class TransitionEngine:
    """Directory-side orchestration of SWcc <=> HWcc transitions."""

    def __init__(self, memsys: "MemorySystem") -> None:
        # The memory system owns this engine and calls into it, and the
        # engine drives the memory system; the back-edge is weak so the
        # pair forms no reference cycle. Transitions are rare next to
        # ops, so the proxy's extra indirection stays off the hot path.
        self.ms = weakref.proxy(memsys)
        self.to_swcc_count = 0
        self.to_hwcc_count = 0

    # -- single-line transitions --------------------------------------------
    def to_swcc(self, line: int, cluster_id: int, now: float) -> float:
        """Move ``line`` out of the hardware-coherent domain (Figure 7a)."""
        ms = self.ms
        self._require_hybrid()
        t = ms.table_update(cluster_id, line, now)
        t = self._to_swcc_line_work(line, t)
        self.to_swcc_count += 1
        return ms.net.to_cluster(cluster_id, t)

    def _to_swcc_line_work(self, line: int, t: float) -> float:
        """Directory-side Figure 7a work, after the table bit flips."""
        ms = self.ms
        # This method is the single funnel for HWcc -> SWcc conversions
        # (per-line API and bulk region moves alike), so it is the one
        # emit point observers need.
        obs = ms.obs
        if obs.active:
            obs.emit(ObsEvent(t, EV_TO_SWCC, -1, None, line,
                              detail="directory transition"))
        bank = ms.map.bank_of_line(line)
        directory = ms.dirs[bank]
        entry = directory.get(line)
        if entry is not None:
            # Cases 2a/3a: remove all cached copies; a modified owner's
            # data is written back into the L3 by the probe machinery.
            targets, _bcast = directory.invalidation_targets(entry, ms.n_clusters)
            if targets:
                t = ms._probe_invalidate_targets(line, targets, bank, t)
            directory.deallocate(entry, t)
        ms.fine.set_swcc(line)
        return t

    def to_hwcc(self, line: int, cluster_id: int, now: float) -> float:
        """Move ``line`` into the hardware-coherent domain (Figure 7b)."""
        ms = self.ms
        self._require_hybrid()
        t = ms.table_update(cluster_id, line, now)
        t = self._to_hwcc_line_work(line, t)
        self.to_hwcc_count += 1
        return ms.net.to_cluster(cluster_id, t)

    def _to_hwcc_line_work(self, line: int, t: float) -> float:
        """Directory-side Figure 7b work, after the table bit flips."""
        ms = self.ms
        obs = ms.obs
        if obs.active:
            obs.emit(ObsEvent(t, EV_TO_HWCC, -1, None, line,
                              detail="directory transition"))
        bank = ms.map.bank_of_line(line)
        clean, dirty, t = self._broadcast_clean_request(line, t)
        if not clean and not dirty:
            pass  # Case 1b: directory state stays I.
        elif not dirty:
            # Case 2b: all copies clean; they are now coherent sharers.
            entry, t = ms._dir_allocate(line, bank, t)
            entry.state = DIR_S
            for holder in clean:
                ms.dirs[bank].add_sharer(entry, holder)
        elif (len(dirty) == 1 and not clean
              and self._fully_valid(dirty[0][0], line)):
            # Single fully valid modified copy: upgrade in place, no
            # writeback. A *partially* valid dirty copy (INV dropped its
            # clean words) cannot become a coherent line -- word validity
            # is an SWcc-only concept -- so it takes the merge path
            # below: dirty words write back and the copy invalidates.
            holder = dirty[0][0]
            ms.clusters[holder].probe_make_coherent(line)
            entry, t = ms._dir_allocate(line, bank, t)
            entry.state = DIR_M
            ms.dirs[bank].add_sharer(entry, holder)
        else:
            try:
                t = self._merge_dirty_copies(line, bank, clean, dirty, t)
            except CoherenceRaceError:
                # Case 5b signalled: the merge has already discarded every
                # dirty copy, so finish the transition (the table bit
                # flipped before the broadcast) and let the race propagate
                # from a consistent post-state.
                ms.fine.clear_swcc(line)
                raise
        ms.fine.clear_swcc(line)
        return t

    def transition_line(self, line: int, domain: Domain, cluster_id: int,
                        now: float) -> float:
        if domain is Domain.SWCC:
            if self.ms.fine.is_swcc(line):
                return now
            return self.to_swcc(line, cluster_id, now)
        if not self.ms.fine.is_swcc(line):
            return now
        return self.to_hwcc(line, cluster_id, now)

    # -- region-granularity conversion ----------------------------------------
    def convert_region(self, base: int, size: int, domain: Domain,
                       cluster_id: int, now: float) -> float:
        """Convert every line of ``[base, base+size)`` to ``domain``.

        The runtime batches the table updates at word granularity (one
        ``atom.or``/``atom.and`` flips up to 32 line bits); the directory
        still serialises the per-line protocol work. Lines already in
        the target domain are skipped (their bits do not change).
        """
        ms = self.ms
        self._require_hybrid()
        words: Dict[int, List[int]] = {}
        for line in lines_in_range(base, size):
            if (domain is Domain.SWCC) == ms.fine.is_swcc(line):
                continue
            words.setdefault(ms.fine.table_word_addr(line), []).append(line)
        t = now
        for _word_addr, lines in sorted(words.items()):
            # One atomic RMW flips this word's (up to 32) line bits; the
            # directory then serialises the per-line protocol work and
            # acknowledges the issuing core once the whole word is done.
            t = ms.table_update(cluster_id, lines[0], t)
            for line in lines:
                if domain is Domain.SWCC:
                    t = self._to_swcc_line_work(line, t)
                    self.to_swcc_count += 1
                else:
                    t = self._to_hwcc_line_work(line, t)
                    self.to_hwcc_count += 1
            t = ms.net.to_cluster(cluster_id, t)
        return t

    # -- helpers -----------------------------------------------------------------
    def _fully_valid(self, cluster_id: int, line: int) -> bool:
        entry = self.ms.clusters[cluster_id].peek_line(line)
        return entry is not None and entry.valid_mask == FULL_WORD_MASK

    def _require_hybrid(self) -> None:
        if not self.ms.policy.hybrid:
            raise ProtocolError(
                "coherence-domain transitions require the Cohesion policy")

    def _broadcast_clean_request(self, line: int, now: float
                                 ) -> Tuple[List[int], List[Tuple[int, int, list]], float]:
        """Probe every cluster; returns (clean_holders, dirty_holders, t).

        Every cluster responds (ack/nack counts as a probe response);
        clusters that do not hold the line are costed in aggregate to
        keep the simulator fast, which preserves both the message count
        and the serialisation delay at the directory.
        """
        ms = self.ms
        done = now
        clean: List[int] = []
        dirty: List[Tuple[int, int, list]] = []
        absent = 0
        for cid, cluster in enumerate(ms.clusters):
            if cluster.peek_line(line) is None:
                absent += 1
                continue
            arrive = ms.net.to_cluster(cid, now)
            status, dmask, values, svc_done = cluster.probe_clean_query(line, arrive)
            resp = ms.net.to_l3(cid, svc_done)
            if status == "clean":
                clean.append(cid)
            elif status == "dirty":
                dirty.append((cid, dmask, values))
            if resp > done:
                done = resp
        ms.counters.probe_response += len(ms.clusters)
        done += absent * _NACK_SERIALISATION
        if not clean and not dirty:
            # Even with no holder, the broadcast itself takes a round trip.
            done = max(done, now + 2 * ms.net.one_way_latency)
        return clean, dirty, done

    def _merge_dirty_copies(self, line: int, bank: int, clean: List[int],
                            dirty: List[Tuple[int, int, list]], now: float) -> float:
        """Invalidate readers, write back and merge all dirty copies."""
        ms = self.ms
        union = 0
        overlap = 0
        for _cid, mask, _values in dirty:
            overlap |= union & mask
            union |= mask
        if overlap:
            ms.swcc_races += 1
        t = now
        if clean:
            t = ms._probe_invalidate_targets(line, clean, bank, t)
        merge = not overlap  # a detected race discards all dirty values
        for cid, _mask, _values in dirty:
            arrive = ms.net.to_cluster(cid, t)
            present, dmask, values, svc_done = \
                ms.clusters[cid].probe_invalidate(line, arrive)
            ms.counters.probe_response += 1
            resp = ms.net.to_l3(cid, svc_done)
            if merge and present and dmask:
                resp, _ = ms._l3_access(bank, line, resp, write_mask=dmask,
                                        write_values=values, need_data=False)
            if resp > t:
                t = resp
        if overlap and ms.policy.raise_on_swcc_race:
            # Case 5b: signal the race only after every copy has been
            # removed and all dirty values discarded. The exception
            # reports the software bug; the hardware lands in the same
            # consistent post-state as recovery mode (line in no L2,
            # directory I, memory holding the pre-race value).
            raise CoherenceRaceError(
                line, tuple(cid for cid, _m, _v in dirty), overlap)
        return t
