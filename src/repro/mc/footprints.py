"""Static read/write footprints for model-checker actions.

The partial-order reduction in :mod:`repro.mc.reduce` needs to know
which pairs of actions *commute*: applying them in either order from
any state must land in the same state (up to the canonical-key value
renaming). Rather than trusting dynamic observation, the footprint of
an `Action` is derived here -- statically, from its kind and the model's
geometry -- as the set of **state components** it may read or write,
and independence is footprint disjointness. The derivation is checked
dynamically by :func:`repro.mc.reduce.verify_independence`, which
exhaustively diffs post-states of commuted pairs on small universes.

There is no per-kind table to keep in step with the action set. Every
action touches its line and, when the line can reach the directory, its
directory bank; only the kinds named in :data:`LINE_SCOPED_KINDS` leave
the cluster's recency order alone. A kind missing from that set gets the
widest footprint any kind has, so a new kind costs reduction until it is
listed, never soundness.

Component model
---------------
A footprint is a set of opaque component tokens:

``("line", class_id)``
    Everything anchored to one modeled line, *across all clusters*: the
    L3 copy, backing memory, the fine-table domain bit, every cluster's
    L2/L1 copies, and the SpecState promise/stale rows for its words.
    Folding all clusters' copies into one token is deliberate: loads,
    stores, atomics and domain transitions probe or invalidate *other*
    clusters' copies of the same line, so per-(cluster, line) tokens
    would be unsound. Lines that can alias in some cache (same L2 set,
    same L1D set, or same L3 bank+set) are fused into one *class*,
    because an insertion for one can evict the other.

``("dir", bank)``
    A whole directory bank. Bank-granular rather than entry-granular
    because the canonical key includes each entry's *eviction rank
    within its bank* (`_dir_rank`), which any allocation or release in
    the bank can shift. Only lines that can ever be hardware-coherent
    get this token: a line that boots SWcc and has no ``to_hwcc`` in
    its alphabet is resolved entirely at L3 and never touches a
    directory (verified by `verify_independence`).

``("lru", cluster)``
    The cluster's L2/L1 recency *order* among modeled lines. Only
    ``load``/``store`` carry it: they insert and touch entries, which
    reorders ranks relative to every other resident line. The removal
    and clean-in-place performed by ``wb``/``inv``/``evict`` and by
    remote probes commute with rank observations of *other* lines
    (relative order of survivors is preserved), so those kinds, like
    ``atomic`` and the domain transitions, are line-scoped.

SpecState's ``next_value`` counter is deliberately *not* a component:
interleaving two independent writes hands out different raw counters,
but the canonical key renames values in first-appearance order, so the
post-states still collapse to the same orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple

Component = Tuple[object, ...]


#: Action kinds that never reorder the initiating cluster's L2/L1
#: recency, so their footprint omits the ``("lru", cluster)`` token.
LINE_SCOPED_KINDS: FrozenSet[str] = frozenset(
    {"atomic", "wb", "inv", "evict", "to_swcc", "to_hwcc"})


@dataclass(frozen=True)
class FootprintContext:
    """Per-model geometry the footprint of a concrete action needs.

    Built once per `ModelConfig` from a freshly constructed machine
    (geometry is deterministic given the config), then shared by every
    worker. ``line_class[slot]`` is the fused aliasing class of line
    slot ``slot``; ``dir_capable[slot]`` says whether that line can
    ever be hardware-coherent; ``dir_bank[slot]`` is its directory
    bank.
    """

    line_class: Tuple[int, ...]
    dir_bank: Tuple[int, ...]
    dir_capable: Tuple[bool, ...]
    slot_of_line: Dict[int, int]

    def footprint(self, action) -> FrozenSet[Component]:
        slot = self.slot_of_line[action.line]
        comps = [("line", self.line_class[slot])]
        if self.dir_capable[slot]:
            comps.append(("dir", self.dir_bank[slot]))
        if action.kind not in LINE_SCOPED_KINDS:
            comps.append(("lru", action.cluster))
        return frozenset(comps)

    def independent(self, a, b) -> bool:
        return not (self.footprint(a) & self.footprint(b))


def build_context(model, machine) -> FootprintContext:
    """Compute the aliasing classes and directory reach of a model."""
    ms = machine.memsys
    cluster = machine.clusters[0]
    n = len(model.lines)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    # Fuse lines that can collide in any cache: the same L2 set, the
    # same L1D set, or the same L3 (bank, set). A fill of one can then
    # evict the other, so actions on them do not commute in general.
    def resource_keys(line: int):
        bank = ms.map.bank_of_line(line)
        yield ("l2", cluster.l2.set_index(line))
        yield ("l1d", cluster.l1d[0].set_index(line))
        yield ("l3", bank, ms.l3[bank].set_index(line))

    seen: Dict[tuple, int] = {}
    for slot, ls in enumerate(model.lines):
        for key in resource_keys(ls.line):
            if key in seen:
                union(seen[key], slot)
            else:
                seen[key] = slot
    roots = sorted({find(i) for i in range(n)})
    class_of_root = {r: c for c, r in enumerate(roots)}
    line_class = tuple(class_of_root[find(i)] for i in range(n))

    dir_bank = tuple(ms.map.bank_of_line(ls.line) for ls in model.lines)
    dir_capable = tuple(
        (not ms.fine.is_swcc(ls.line)) or ("to_hwcc" in ls.actions)
        for ls in model.lines)
    slot_of_line = {ls.line: slot for slot, ls in enumerate(model.lines)}
    return FootprintContext(line_class=line_class, dir_bank=dir_bank,
                            dir_capable=dir_capable,
                            slot_of_line=slot_of_line)
