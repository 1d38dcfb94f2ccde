"""Canonical state keys and the write-counter specification state.

Two jobs live here:

**SpecState** -- the checker's value oracle. Every store and atomic
writes a *fresh opaque integer* (a write counter), so value equality is
exactly "came from the same write". ``mem`` tracks, per modeled word,
the value the memory model promises is globally visible; ``stale``
whitelists (cluster, word address) pairs that legally hold an older
value in a *coherent* copy -- the SWcc=>HWcc Case 2b path turns clean
holders into sharers without refreshing their data, which the paper's
hardware tolerates (software that wanted the new value must invalidate
before the transition).

**canonical_key** -- a hashable fingerprint of everything that can
influence future protocol behaviour, reduced under three symmetries:

* *cluster permutation*: cluster ids are interchangeable (same caches,
  same network position at this scale), so the key is the minimum over
  all relabelings of the clusters;
* *line permutation* (optional; see :mod:`repro.mc.reduce`): modeled
  lines proven interchangeable -- same word set, same action alphabet,
  same boot domain, equivalent bank/set infrastructure -- may be
  relabeled too, so the key is additionally minimised over the line
  permutations the caller passes in;
* *value renaming*: write-counter values are opaque, so
  :func:`extract_state` already renames them in first-appearance order
  as it walks the machine, and :func:`render_signature` renames again
  along each relabeled walk.

Because extraction renames, the extracted parts identify a concrete
state up to value renaming on their own: :func:`semi_key` is simply
their 16-byte :func:`digest`, the explorer's memo key in front of the
minimisation over permutations.

To make line relabeling well defined, the extracted state is indexed
throughout by *line slot* (position in ``model.lines``), never by raw
address: the spec memory is grouped per slot and the stale whitelist is
held as ``(cluster, slot, word-position)`` triples.

Deliberately excluded: timing backlog, message counters, statistics,
and the L3 residency of fine-table lines (all timing-only), plus LRU
ages except as *ranks* among modeled lines (the only part replacement
decisions observe). Directory-entry LRU rank is included because a
bounded directory picks eviction victims by it.
"""

from __future__ import annotations

import marshal
from hashlib import blake2b
from itertools import permutations
from typing import Dict, List, Optional, Set, Tuple

from repro.mem.address import LINE_SHIFT, WORD_BYTES, line_base


class SpecState:
    """Write-counter oracle: promised memory values + legal-stale set."""

    __slots__ = ("mem", "stale", "next_value")

    def __init__(self) -> None:
        self.mem: Dict[int, int] = {}        # word byte address -> value
        self.stale: Set[Tuple[int, int]] = set()  # (cluster, word addr)
        self.next_value = 1

    def fresh(self) -> int:
        """A never-before-seen write value."""
        value = self.next_value
        self.next_value += 1
        return value

    def expected(self, word_addr: int) -> int:
        return self.mem.get(word_addr, 0)

    def snapshot(self) -> tuple:
        return (dict(self.mem), set(self.stale), self.next_value)

    def restore(self, snap: tuple) -> None:
        mem, stale, next_value = snap
        self.mem = dict(mem)
        self.stale = set(stale)
        self.next_value = next_value

    def gc(self, machine) -> None:
        """Drop whitelist entries that no longer describe a stale copy.

        An entry stays only while its cluster holds the line coherently
        with the word valid and a value differing from the promise;
        anything else (copy invalidated, line re-fetched, word
        overwritten) ends the legal-staleness window.
        """
        dead = []
        for cid, word_addr in self.stale:
            line = word_addr >> LINE_SHIFT
            word = (word_addr - line_base(line)) // WORD_BYTES
            entry = machine.clusters[cid].l2.peek(line)
            if (entry is None or entry.incoherent
                    or not entry.valid_mask & (1 << word)
                    or entry.data is None
                    or entry.data[word] == self.expected(word_addr)):
                dead.append((cid, word_addr))
        for item in dead:
            self.stale.discard(item)


def canonical_key(machine, model, spec: SpecState,
                  line_perms: Optional[Tuple[Tuple[int, ...], ...]] = None,
                  ) -> tuple:
    """Symmetry-reduced fingerprint of (machine, spec) protocol state.

    ``line_perms``, when given, is a set of line-slot permutations the
    caller has proven sound (see :func:`repro.mc.reduce.line_symmetry`);
    the key is then the minimum over cluster orders x line perms.
    """
    raw = extract_state(machine, model, spec)
    n = machine.config.n_clusters
    if line_perms is None:
        return min(render_signature(raw, order)
                   for order in permutations(range(n)))
    return min(render_signature(raw, order, lineperm)
               for lineperm in line_perms
               for order in permutations(range(n)))


def digest(key: tuple) -> bytes:
    """16-byte stable digest of an extracted state or canonical key.

    Keys are pure nested tuples of ints and ``None``, and ``marshal``
    format 2 writes no back-references (those arrive in format 3), so
    equal keys serialise to equal bytes whatever the identity of the
    objects inside them. (``pickle`` is *not* canonical: its memo
    encodes object identity.)
    """
    return blake2b(marshal.dumps(key, 2), digest_size=16).digest()


def semi_key(raw) -> bytes:
    """Memo key of an extracted state: the digest of its parts.

    Not symmetry-reduced, but values are already renamed by
    :func:`extract_state`, so it identifies a concrete state up to value
    renaming. The explorer uses it as a cheap cache key in front of the
    full minimum-over-permutations computation: most successors are
    revisits, and a revisit costs one digest instead of ``n!`` renders.
    """
    return digest(raw)


def extract_state(machine, model, spec: SpecState) -> tuple:
    """One walk over the machine collecting permutation-independent raw
    parts; :func:`render_signature` then permutes and renames cheaply.

    Write-counter values are renamed in first-appearance order along
    the walk, and the stale whitelist comes back as a sorted tuple, so
    two concrete states that differ only in which counters they hold
    (or in the history that filled ``spec.stale``) extract equal parts.
    """
    ms = machine.memsys
    rename: Dict[int, int] = {}
    lines_part: List[tuple] = []
    for ls in model.lines:
        line = ls.line
        bank = ms.map.bank_of_line(line)
        dentry = ms.dirs[bank].get(line) if ms.dirs else None
        if dentry is None:
            dir_raw = None
        else:
            dir_raw = (dentry.state, tuple(dentry.sharer_ids()),
                       1 if dentry.broadcast else 0,
                       _dir_rank(ms.dirs[bank], dentry))
        lines_part.append((1 if ms.fine.is_swcc(line) else 0, dir_raw,
                           _entry_raw(ms.l3[bank].peek(line), ls.words,
                                      rename)))
    cluster_part: List[tuple] = []
    for cluster in machine.clusters:
        entries = []
        l2_rank = []
        l1_rank = []
        for index, ls in enumerate(model.lines):
            e2 = cluster.l2.peek(ls.line)
            e1 = cluster.l1d[0].peek(ls.line)
            entries.append((_entry_raw(e2, ls.words, rename),
                            _entry_raw(e1, ls.words, rename)))
            if e2 is not None:
                l2_rank.append((e2.lru, index))
            if e1 is not None:
                l1_rank.append((e1.lru, index))
        cluster_part.append((tuple(entries),
                             tuple([i for _lru, i in sorted(l2_rank)]),
                             tuple([i for _lru, i in sorted(l1_rank)])))
    expected = spec.expected
    mem_part = tuple([
        tuple([rename.setdefault(
                   expected(line_base(ls.line) + w * WORD_BYTES), len(rename))
               for w in ls.words])
        for ls in model.lines])
    slot_of_line = {ls.line: slot for slot, ls in enumerate(model.lines)}
    stale_part = []
    for cid, word_addr in spec.stale:
        line = word_addr >> LINE_SHIFT
        slot = slot_of_line[line]
        word = (word_addr - line_base(line)) // WORD_BYTES
        stale_part.append((cid, slot, model.lines[slot].words.index(word)))
    stale_part.sort()
    return (tuple(lines_part), tuple(cluster_part), mem_part,
            tuple(stale_part))


def render_signature(raw, order: Tuple[int, ...],
                     lineperm: Optional[Tuple[int, ...]] = None) -> tuple:
    """Signature of ``raw`` under one cluster (and line) relabeling.

    Values are renamed again in first-appearance order along the
    relabeled walk, so two states differing only in which opaque write
    counters they hold (or in interchangeable cluster/line ids) render
    identically. Renaming goes by equality pattern alone, so the
    renaming :func:`extract_state` already applied leaves the rendered
    key unchanged.

    ``lineperm`` maps rendered position -> source line slot; position
    ``p`` of the signature describes line slot ``lineperm[p]``. ``None``
    means identity (no line relabeling).
    """
    lines_part, cluster_part, mem_part, stale = raw
    n_lines = len(lines_part)
    if lineperm is None:
        lineperm = tuple(range(n_lines))
        posof = lineperm
    else:
        posof = [0] * n_lines
        for pos, src in enumerate(lineperm):
            posof[src] = pos
    rename: Dict[int, int] = {}
    slot = {cid: i for i, cid in enumerate(order)}
    parts: List[object] = []
    for pos in range(n_lines):
        fine_bit, dir_raw, l3_raw = lines_part[lineperm[pos]]
        parts.append(fine_bit)
        if dir_raw is None:
            parts.append((0,))
        else:
            state, sharers, broadcast, rank = dir_raw
            parts.append((1, state, tuple(sorted(slot[c] for c in sharers)),
                          broadcast, rank))
        parts.append(_render_entry(l3_raw, rename))
    for cid in order:
        entries, l2_rank, l1_rank = cluster_part[cid]
        for pos in range(n_lines):
            e2_raw, e1_raw = entries[lineperm[pos]]
            parts.append(_render_entry(e2_raw, rename))
            parts.append(_render_entry(e1_raw, rename))
        parts.append(tuple(posof[s] for s in l2_rank))
        parts.append(tuple(posof[s] for s in l1_rank))
    for pos in range(n_lines):
        parts.append(tuple([rename.setdefault(v, len(rename))
                            for v in mem_part[lineperm[pos]]]))
    parts.append(tuple(sorted((slot[c], posof[s], w) for c, s, w in stale)))
    return tuple(parts)


def _entry_raw(entry, words: Tuple[int, ...],
               rename: Dict[int, int]) -> Optional[tuple]:
    if entry is None:
        return None
    data = entry.data
    valid_mask = entry.valid_mask
    if data is None:
        values = (None,) * len(words)
    else:
        values = tuple([
            rename.setdefault(data[w], len(rename))
            if valid_mask & (1 << w) else None
            for w in words])
    return (valid_mask, entry.dirty_mask,
            1 if entry.incoherent else 0, values)


def _render_entry(raw: Optional[tuple], rename: Dict[int, int]) -> tuple:
    if raw is None:
        return (0,)
    valid_mask, dirty_mask, incoherent, values = raw
    return (1, valid_mask, dirty_mask, incoherent,
            tuple([-1 if v is None else rename.setdefault(v, len(rename))
                   for v in values]))


def _dir_rank(bank_dir, dentry) -> int:
    """Eviction-order rank of ``dentry`` within its bank (oldest = 0)."""
    return sum(1 for e in bank_dir.entries() if e.lru < dentry.lru)
