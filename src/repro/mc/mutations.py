"""Seeded protocol bugs the model checker must catch.

Each mutation monkey-patches one protocol step on a *live* machine
instance (the classes themselves are untouched) to reproduce a
plausible implementation mistake -- a skipped invalidation, a dropped
writeback, a flag not cleared. ``repro mc --mutate NAME`` then proves
the checker's teeth: every mutation must be caught with a minimal
replayable counterexample, and the expected invariant is recorded here
so the test suite can assert *which* check fired, not merely that one
did.
"""

from __future__ import annotations

import types
from dataclasses import dataclass
from typing import Callable, Dict

from repro.coherence.directory import DIR_M
from repro.errors import ProtocolError


@dataclass(frozen=True)
class Mutation:
    """One registered bug injection."""

    name: str
    description: str
    expect: str  # substring of the invariant expected to catch it
    apply: Callable[[object], None]


def apply_mutation(name: str, machine) -> Mutation:
    try:
        mutation = MUTATIONS[name]
    except KeyError:
        known = ", ".join(sorted(MUTATIONS))
        raise KeyError(f"unknown mutation {name!r}; known: {known}") from None
    mutation.apply(machine)
    return mutation


# -- the injections ----------------------------------------------------------

def _skip_2a_invalidate(machine) -> None:
    """Case 2a/3a forgets to probe the sharers out before deallocating."""
    engine = machine.memsys.transitions

    def broken(self, line, t):
        ms = self.ms
        directory = ms.dirs[ms.map.bank_of_line(line)]
        entry = directory.get(line)
        if entry is not None:
            directory.deallocate(entry, t)  # bug: sharers keep their copies
        ms.fine.set_swcc(line)
        return t

    engine._to_swcc_line_work = types.MethodType(broken, engine)


def _skip_upgrade_invalidate(machine) -> None:
    """S->M upgrade claims ownership without invalidating other sharers."""
    ms = machine.memsys

    def broken(self, cluster_id, line, now):
        self.counters.write_request += 1
        bank = self.map.bank_of_line(line)
        t = self.net.to_l3(cluster_id, now)
        directory = self.dirs[bank]
        entry = directory.get(line)
        if entry is None or not entry.sharers & (1 << cluster_id):
            raise ProtocolError(
                f"upgrade for line {line:#x} the directory does not track "
                f"cluster {cluster_id} sharing")
        # bug: other sharers' copies survive but vanish from the entry
        entry.sharers = 1 << cluster_id
        entry.state = DIR_M
        directory.touch(entry)
        return self.net.to_cluster(cluster_id, t)

    ms.upgrade_request = types.MethodType(broken, ms)


def _skip_merge_writeback(machine) -> None:
    """The SWcc=>HWcc merge invalidates dirty copies without writing back."""
    engine = machine.memsys.transitions

    def broken(self, line, bank, clean, dirty, now):
        ms = self.ms
        t = now
        if clean:
            t = ms._probe_invalidate_targets(line, clean, bank, t)
        for cid, _mask, _values in dirty:
            arrive = ms.net.to_cluster(cid, t)
            _present, _dmask, _values2, svc_done = \
                ms.clusters[cid].probe_invalidate(line, arrive)
            ms.counters.probe_response += 1
            resp = ms.net.to_l3(cid, svc_done)  # bug: dirty words dropped
            if resp > t:
                t = resp
        return t

    engine._merge_dirty_copies = types.MethodType(broken, engine)


def _keep_incoherent_bit(machine) -> None:
    """Case 2b holders ack the clean request without becoming probeable."""
    from repro.mem.address import FULL_WORD_MASK

    for cluster in machine.clusters:
        def broken(self, line, now):
            t = self.port.acquire(now, self.port_occ) + self.l2_latency
            entry = self.l2.peek(line)
            if entry is None:
                return "absent", 0, None, t
            if entry.dirty_mask:
                values = list(entry.data) if entry.data is not None else None
                return "dirty", entry.dirty_mask, values, t
            if entry.valid_mask != FULL_WORD_MASK:
                self.l2.remove(line)
                self._drop_l1(line)
                return "absent", 0, None, t
            # bug: the incoherent bit stays set on the new sharer
            return "clean", 0, None, t

        cluster.probe_clean_query = types.MethodType(broken, cluster)


def _ignore_sparse_conflict(machine) -> None:
    """A directory set conflict silently drops the victim entry.

    Models a sparse directory that forgets to run the eviction protocol
    (Section 3.2) when a set fills: the displaced line's sharers keep
    their coherent copies with no directory entry tracking them.
    """
    for directory in machine.memsys.dirs:
        def broken(self, entry, _orig=directory._insert):
            _orig(entry)  # bug: hide the victim so its sharers go unprobed
            return None

        directory._insert = types.MethodType(broken, directory)


MUTATIONS: Dict[str, Mutation] = {
    m.name: m for m in (
        Mutation(
            name="skip-2a-invalidate",
            description="HWcc=>SWcc transition deallocates the directory "
                        "entry without invalidating the sharers (Case 2a)",
            expect="directory-inclusion",
            apply=_skip_2a_invalidate),
        Mutation(
            name="skip-upgrade-invalidate",
            description="S->M upgrade overwrites the sharer vector without "
                        "probing the other sharers out",
            expect="directory-inclusion",
            apply=_skip_upgrade_invalidate),
        Mutation(
            name="skip-merge-writeback",
            description="SWcc=>HWcc merge discards dirty words instead of "
                        "writing them back to the L3",
            expect="global-view",
            apply=_skip_merge_writeback),
        Mutation(
            name="keep-incoherent-bit",
            description="clean SWcc holders keep their incoherent bit while "
                        "becoming directory sharers (Case 2b)",
            expect="stale-sharer",
            apply=_keep_incoherent_bit),
        Mutation(
            name="ignore-sparse-conflict",
            description="sparse directory set conflict silently drops the "
                        "victim entry without invalidating its sharers",
            expect="directory-inclusion",
            apply=_ignore_sparse_conflict),
    )
}
