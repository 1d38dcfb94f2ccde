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
from functools import lru_cache
from hashlib import blake2b
from itertools import compress, permutations
from operator import attrgetter, itemgetter
from typing import Dict, List, Optional, Set, Tuple

from repro.mem.address import LINE_SHIFT, WORD_BYTES, line_base

#: The slot of an ``(lru, slot)`` rank pair, and an entry's LRU age.
_SLOT = itemgetter(1)
_LRU = attrgetter("lru")


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
        if not self.stale:
            return
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


class ExtractPlan:
    """Everything :func:`extract_state` reads, resolved once per machine.

    ``lines`` holds, per modeled line (by slot), the line number, its
    directory bank (``None`` without a directory) and that bank's set
    dict holding the line. The *walk* is every cache position whose
    entry the state records, in the order values are renamed: each
    line's L3 set, then per cluster and line the L2's and core 0's
    L1D's (the only L1 the checker's actions fill). ``sets`` and
    ``walk_lines`` give each position's set dict and line, and
    ``meta`` its line's ``(word, bit)`` pairs, its slot, and which rank
    list (per cluster and level; ``None`` for the L3) its LRU age
    joins. ``addrs`` holds each line's word addresses, and ``word_pos``
    maps a word address to its ``(slot, position)`` for the stale
    whitelist.

    All of these are fixed when the machine is built: set dicts are
    cleared in place, never replaced (see :meth:`Cache.set_of`), so a
    transition pays for no bank lookup, address arithmetic or ``peek``
    call. The plan lives on its machine (``Machine.extract_plan``) and
    dies with it.
    """

    def __init__(self, machine, model) -> None:
        ms = machine.memsys
        self.model = model
        self.fine = ms.fine
        self.n_clusters = len(machine.clusters)
        self.lines = []
        self.addrs = []
        self.word_pos: Dict[int, Tuple[int, int]] = {}
        bits = [tuple((w, 1 << w) for w in ls.words) for ls in model.lines]
        walk = []  # (set dict, line, (bits, slot, rank list))
        for slot, ls in enumerate(model.lines):
            line = ls.line
            bank = ms.map.bank_of_line(line)
            bank_dir = ms.dirs[bank] if ms.dirs else None
            self.lines.append((line, bank_dir, None if bank_dir is None
                               else bank_dir.set_of(line)))
            addrs = tuple(line_base(line) + w * WORD_BYTES for w in ls.words)
            self.addrs.append(addrs)
            for pos, addr in enumerate(addrs):
                self.word_pos.setdefault(addr, (slot, pos))
            walk.append((ms.l3[bank].set_of(line), line,
                         (bits[slot], slot, None)))
        for cid, cluster in enumerate(machine.clusters):
            for slot, ls in enumerate(model.lines):
                for rank, cache in ((2 * cid, cluster.l2),
                                    (2 * cid + 1, cluster.l1d[0])):
                    walk.append((cache.set_of(ls.line), ls.line,
                                 (bits[slot], slot, rank)))
        self.sets, self.walk_lines, self.meta = (tuple(part)
                                                 for part in zip(*walk))
        self.positions = range(len(walk))


def extract_state(machine, model, spec: SpecState) -> tuple:
    """One walk over the machine collecting permutation-independent raw
    parts; :func:`render_signature` then permutes and renames cheaply.

    The parts are ``(lines, entries, ranks, mem, stale)``:

    * ``lines`` -- two items per line slot: the fine-table SWcc bit and
      the directory entry, ``None`` or ``(state, sharer mask,
      broadcast, rank)``;
    * ``entries`` -- one item per position of the plan's walk (every
      line's L3 entry, then per cluster and line its L2 and L1D
      entries): ``None`` or ``(valid, dirty, incoherent, *values)``
      with ``None`` for an invalid word;
    * ``ranks`` -- per cluster, the slots resident in its L2 and then
      in its L1D, oldest first;
    * ``mem`` -- per line slot, the committed values of its words;
    * ``stale`` -- the sorted ``(cluster, slot, word position)``
      triples of the stale whitelist.

    Write-counter values are renamed in first-appearance order along
    the walk (entries, then ``mem``), so two concrete states that
    differ only in which counters they hold, or in the history that
    filled ``spec.stale``, extract equal parts. The walk reads through
    the machine's :class:`ExtractPlan`, built on the first call for
    ``model``, and calls no Python function per cache entry.
    """
    plan = machine.extract_plan
    if plan is None or plan.model is not model:
        plan = machine.extract_plan = ExtractPlan(machine, model)
    rename: Dict[int, int] = {}
    setdefault = rename.setdefault
    ranks: List[list] = [[] for _ in range(2 * plan.n_clusters)]
    # Every walk position's entry, looked up at C speed; only resident
    # ones (CacheLine objects are true) are replaced by their raw form.
    entries = list(map(dict.get, plan.sets, plan.walk_lines))
    meta = plan.meta
    for index in compress(plan.positions, entries):
        entry = entries[index]
        bits, slot, rank = meta[index]
        if rank is not None:
            ranks[rank].append((entry.lru, slot))
        data = entry.data
        valid_mask = entry.valid_mask
        raw = [valid_mask, entry.dirty_mask, entry.incoherent]
        for word, bit in bits:
            raw.append(setdefault(data[word], len(rename))
                       if data is not None and valid_mask & bit else None)
        entries[index] = tuple(raw)
    is_swcc = plan.fine.is_swcc
    lines = []
    for line, bank_dir, dir_set in plan.lines:
        lines.append(1 if is_swcc(line) else 0)
        dentry = None if dir_set is None else dir_set.get(line)
        lines.append(None if dentry is None else
                     (dentry.state, dentry.sharers, dentry.broadcast,
                      _dir_rank(bank_dir, dentry)))
    committed = spec.mem.get
    mem = []
    for addrs in plan.addrs:
        values = []
        for addr in addrs:
            values.append(setdefault(committed(addr, 0), len(rename)))
        mem.append(tuple(values))
    stale = spec.stale
    if stale:
        word_pos = plan.word_pos
        stale_part = tuple(sorted([(cid, *word_pos[word_addr])
                                   for cid, word_addr in stale]))
    else:
        stale_part = ()
    return (tuple(lines), tuple(entries),
            tuple([tuple(map(_SLOT, sorted(r))) for r in ranks]),
            tuple(mem), stale_part)


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
    lines, entries, ranks, mem, stale = raw
    n_lines = len(mem)
    if lineperm is None:
        lineperm = range(n_lines)
    posof, walk = _relabeling(n_lines, order, tuple(lineperm))
    picked = list(map(entries.__getitem__, walk))
    rename: Dict[int, int] = {}
    setdefault = rename.setdefault
    rendered: List[tuple] = [(0,)] * len(picked)  # (0,): absent
    for index in compress(range(len(picked)), picked):
        valid_mask, dirty_mask, incoherent, *values = picked[index]
        renamed = []
        for value in values:
            renamed.append(-1 if value is None
                           else setdefault(value, len(rename)))
        rendered[index] = (1, valid_mask, dirty_mask,
                           1 if incoherent else 0, tuple(renamed))
    slot = dict(zip(order, range(len(order))))
    parts: List[object] = []
    append = parts.append
    for pos, src in enumerate(lineperm):
        append(lines[2 * src])
        dir_raw = lines[2 * src + 1]
        if dir_raw is None:
            append((0,))
        else:
            state, sharers, broadcast, rank = dir_raw
            ids = []  # the sharer mask's cluster ids, relabeled
            while sharers:
                low = sharers & -sharers
                ids.append(slot[low.bit_length() - 1])
                sharers ^= low
            ids.sort()
            append((1, state, tuple(ids), 1 if broadcast else 0, rank))
        append(rendered[pos])
    start = n_lines
    for cid in order:
        stop = start + 2 * n_lines
        parts.extend(rendered[start:stop])
        start = stop
        append(tuple(map(posof.__getitem__, ranks[2 * cid])))
        append(tuple(map(posof.__getitem__, ranks[2 * cid + 1])))
    for src in lineperm:
        renamed = []
        for value in mem[src]:
            renamed.append(setdefault(value, len(rename)))
        append(tuple(renamed))
    if stale:
        append(tuple(sorted([(slot[c], posof[s], w) for c, s, w in stale])))
    else:
        append(())
    return tuple(parts)


@lru_cache(maxsize=None)
def _relabeling(n_lines: int, order: Tuple[int, ...],
                lineperm: Tuple[int, ...]) -> Tuple[tuple, tuple]:
    """``(posof, walk)`` of one cluster order and line permutation.

    ``posof`` maps a source slot to its rendered position. ``walk``
    lists the raw entry positions in rendered order: every line's L3
    entry, then per cluster and line its L2 and L1D entries, so that
    rendering them in one loop renames values in exactly the order they
    are emitted.
    """
    posof = [0] * n_lines
    for pos, src in enumerate(lineperm):
        posof[src] = pos
    walk = list(lineperm)
    for cid in order:
        base = n_lines + 2 * n_lines * cid
        for src in lineperm:
            walk.append(base + 2 * src)
            walk.append(base + 2 * src + 1)
    return tuple(posof), tuple(walk)


def _dir_rank(bank_dir, dentry) -> int:
    """Eviction-order rank of ``dentry`` within its bank (oldest = 0)."""
    return sum(map(dentry.lru.__gt__, map(_LRU, bank_dir.entries())))
