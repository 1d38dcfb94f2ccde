"""Model-checker configurations: which machine, lines, and actions.

A preset pins down one small, exhaustively explorable protocol universe:
a scaled-down Cohesion machine (the *real* simulator classes, nothing
mocked), a handful of modeled cache lines with their initial domains,
and the per-line action alphabet the explorer interleaves. Keeping the
universe tiny (2 clusters, 1-2 lines, 1-2 words per line) is what makes
explicit-state enumeration finish in seconds while still covering every
interleaving of loads, stores, atomics, flushes, invalidates, evictions
and domain transitions -- the combinations unit tests and kernel runs
never reach.

Line addresses sit in the runtime's two heaps so the boot-time region
tables give them their initial domains: the incoherent heap
(``0x4000_0000``) starts SWcc via the fine table's boot range, the
coherent heap (``0x2000_0000``) starts HWcc.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.config import MachineConfig, Policy
from repro.mem.address import WORD_BYTES, line_base, line_of
from repro.sim.machine import Machine
from repro.types import DirectoryKind, PolicyKind

#: Every action kind the checker knows how to drive.
ACTION_KINDS = ("load", "store", "atomic", "wb", "inv", "evict",
                "to_swcc", "to_hwcc")

#: Heap bases from :class:`repro.runtime.layout.AddressLayout`.
INCOHERENT_HEAP = 0x4000_0000  # lines start SWcc under Cohesion
COHERENT_HEAP = 0x2000_0000    # lines start HWcc under Cohesion

_FULL = ACTION_KINDS


@dataclass(frozen=True)
class LineSpec:
    """One modeled cache line: address, modeled words, action alphabet."""

    line: int                       # line number (byte address >> 5)
    words: Tuple[int, ...] = (0,)   # word indices the checker touches
    actions: Tuple[str, ...] = _FULL

    @staticmethod
    def at(addr: int, words: Tuple[int, ...] = (0,),
           actions: Tuple[str, ...] = _FULL) -> "LineSpec":
        bad = [a for a in actions if a not in ACTION_KINDS]
        if bad:
            raise ValueError(f"unknown action kinds: {bad}")
        return LineSpec(line=line_of(addr), words=tuple(words),
                        actions=tuple(actions))

    def word_addrs(self) -> Tuple[int, ...]:
        base = line_base(self.line)
        return tuple(base + WORD_BYTES * w for w in self.words)


@dataclass(frozen=True)
class ModelConfig:
    """One complete model-checking universe."""

    name: str
    description: str
    n_clusters: int
    lines: Tuple[LineSpec, ...]
    max_states: int = 500_000
    max_depth: int = 10_000
    dir_entries_per_bank: int = 16 * 1024
    dir_assoc: int = 128

    def word_addrs(self) -> Tuple[int, ...]:
        return tuple(a for ls in self.lines for a in ls.word_addrs())

    def words_of(self, line: int) -> Tuple[int, ...]:
        for ls in self.lines:
            if ls.line == line:
                return ls.words
        raise KeyError(f"line {line:#x} is not modeled")


def build_machine(model: ModelConfig) -> Machine:
    """Build the real scaled-down Cohesion machine a preset describes."""
    config = MachineConfig(track_data=True).scaled(model.n_clusters)
    policy = Policy(kind=PolicyKind.COHESION,
                    directory=DirectoryKind.SPARSE,
                    dir_entries_per_bank=model.dir_entries_per_bank,
                    dir_assoc=model.dir_assoc)
    return Machine(config, policy)


PRESETS: Dict[str, ModelConfig] = {
    "smoke": ModelConfig(
        name="smoke",
        description=("2 clusters, one SWcc-heap line, one word, full "
                     "action alphabet -- the CI gate"),
        n_clusters=2,
        lines=(LineSpec.at(INCOHERENT_HEAP, words=(0,)),),
    ),
    "default": ModelConfig(
        name="default",
        description=("2 clusters, one SWcc-heap line with the full "
                     "alphabet plus one HWcc-heap line with a reduced "
                     "alphabet -- exercises cross-line directory, merge "
                     "and domain-transition interleavings; closes its "
                     "frontier exhaustively at ~29k canonical states"),
        n_clusters=2,
        lines=(
            LineSpec.at(INCOHERENT_HEAP, words=(0,)),
            LineSpec.at(COHERENT_HEAP, words=(0,),
                        actions=("load", "store",
                                 "to_swcc", "to_hwcc")),
        ),
    ),
    "direvict": ModelConfig(
        name="direvict",
        description=("2 clusters, two HWcc-heap lines contending for a "
                     "single directory entry -- every access can force a "
                     "directory eviction mid-protocol"),
        n_clusters=2,
        lines=(
            LineSpec.at(COHERENT_HEAP, words=(0,),
                        actions=("load", "store", "evict",
                                 "to_swcc", "to_hwcc")),
            LineSpec.at(COHERENT_HEAP + 0x20, words=(0,),
                        actions=("load", "store", "evict",
                                 "to_swcc", "to_hwcc")),
        ),
        dir_entries_per_bank=1,
        dir_assoc=1,
    ),
    "deep": ModelConfig(
        name="deep",
        description=("4 clusters, one SWcc-heap line, full alphabet -- "
                     "wider symmetry classes, longer run"),
        n_clusters=4,
        lines=(LineSpec.at(INCOHERENT_HEAP, words=(0,)),),
    ),
    "deep-lines": ModelConfig(
        name="deep-lines",
        description=("2 clusters, three interchangeable SWcc-heap lines "
                     "(load/store) -- 158,203 plain states, beyond the "
                     "60k cap; closes exhaustively only under the "
                     "line-symmetry + sleep-set reduction"),
        n_clusters=2,
        lines=tuple(
            LineSpec.at(INCOHERENT_HEAP + 0x20 * i,
                        actions=("load", "store"))
            for i in range(3)),
        max_states=60_000,
    ),
}
