"""Dataflow IR the whole-program analyzer builds from frozen artifacts.

One tight pass over each :class:`~repro.runtime.program.FrozenPhase`'s
flat op slice produces two layers of facts:

* :class:`TaskSummary` -- per task, the lines it loads/stores/atomics
  with an 8-bit *word mask* per line (which of the line's eight words
  the task touches -- the per-word dirty-mask granularity of Section
  3.3), plus the coherence instructions it issues in order.
* :class:`AnalysisIR` -- program-wide *barrier-interval vectors*: for
  every line, one integer bitmask per access class whose bit ``p`` is
  set when some task of phase ``p`` performs that access. Phases are
  totally ordered by their global barriers, so happens-before queries
  ("is the line written after phase ``p`` and read after that?") are
  shift-and-mask operations on these integers rather than set scans.

The IR is built from the frozen form *only* -- the flat op arrays, the
per-task bounds, and the per-task ``input_lines`` -- so an artifact can
be analysed in a process that never imports the workload builders and
never constructs a machine. The fused eager-flush WBs at the tail of
each task slice are indexed exactly like inline WB ops, so a task's
flush facts are the same whether it wrote a WB inline or listed the
line in ``flush_lines``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Set

from repro.mem.address import LINE_SHIFT, WORD_SHIFT, line_of
from repro.types import (OP_ATOMIC, OP_IFETCH, OP_INV, OP_LOAD, OP_STORE,
                         OP_WB)

#: Words per cache line; a full-line word mask is ``(1 << WORDS_PER_LINE) - 1``.
WORDS_PER_LINE = 1 << (LINE_SHIFT - WORD_SHIFT)
_WORD_IN_LINE = WORDS_PER_LINE - 1


@dataclass
class TaskSummary:
    """Line-granular access summary of one task (word masks for races)."""

    phase: int
    task: int
    loads: Dict[int, int] = field(default_factory=dict)    # line -> word mask
    stores: Dict[int, int] = field(default_factory=dict)   # line -> word mask
    atomics: Dict[int, int] = field(default_factory=dict)  # line -> word mask
    flushes: List[int] = field(default_factory=list)   # issue order, with dups
    invalidates: List[int] = field(default_factory=list)

    flush_set: Set[int] = field(default_factory=set)
    input_set: Set[int] = field(default_factory=set)

    @property
    def cached_lines(self) -> Set[int]:
        """Lines this task leaves (or may leave) resident in its core's
        caches -- every line it loads or stores through the L1/L2 path."""
        return set(self.loads) | set(self.stores)

    def words_of(self, table: Dict[int, int], line: int) -> Iterator[int]:
        """Absolute word indices of ``line`` set in ``table``'s mask."""
        mask = table.get(line, 0)
        base = line << (LINE_SHIFT - WORD_SHIFT)
        while mask:
            low = mask & -mask
            yield base + low.bit_length() - 1
            mask ^= low


class AnalysisIR:
    """Whole-program dataflow facts for one frozen artifact."""

    def __init__(self, program) -> None:
        self.program = program
        self.tasks: List[TaskSummary] = []   # global (phase, task) order
        self.load_mask: Dict[int, int] = {}    # line -> phase bitmask
        self.store_mask: Dict[int, int] = {}
        self.atomic_mask: Dict[int, int] = {}
        self.n_phases = 0

    @classmethod
    def of_frozen(cls, frozen) -> "AnalysisIR":
        """Build the IR from the flat frozen slices."""
        ir = cls(frozen)
        ir.n_phases = len(frozen.phases)
        for p, phase in enumerate(frozen.phases):
            bit = 1 << p
            ops = phase.ops
            bounds = phase.bounds
            for t in range(phase.n_tasks):
                summary = TaskSummary(phase=p, task=t)
                loads = summary.loads
                stores = summary.stores
                atomics = summary.atomics
                for op in ops[bounds[t]:bounds[t + 1]]:
                    kind = op[0]
                    if kind == OP_LOAD:
                        addr = op[1]
                        line = addr >> LINE_SHIFT
                        loads[line] = loads.get(line, 0) | (
                            1 << ((addr >> WORD_SHIFT) & _WORD_IN_LINE))
                    elif kind == OP_STORE:
                        addr = op[1]
                        line = addr >> LINE_SHIFT
                        stores[line] = stores.get(line, 0) | (
                            1 << ((addr >> WORD_SHIFT) & _WORD_IN_LINE))
                    elif kind == OP_ATOMIC:
                        addr = op[1]
                        line = addr >> LINE_SHIFT
                        atomics[line] = atomics.get(line, 0) | (
                            1 << ((addr >> WORD_SHIFT) & _WORD_IN_LINE))
                    elif kind == OP_WB:
                        summary.flushes.append(line_of(op[1]))
                    elif kind == OP_INV:
                        summary.invalidates.append(line_of(op[1]))
                    elif kind == OP_IFETCH:
                        pass  # instruction fetches never need coherence ops
                summary.invalidates.extend(phase.input_lines[t])
                summary.flush_set = set(summary.flushes)
                summary.input_set = set(summary.invalidates)
                for table, masks in ((loads, ir.load_mask),
                                     (stores, ir.store_mask),
                                     (atomics, ir.atomic_mask)):
                    for line in table:
                        masks[line] = masks.get(line, 0) | bit
                ir.tasks.append(summary)
        return ir

    # -- happens-before queries (bitmask form) ----------------------------
    def read_after(self, line: int, phase: int) -> bool:
        """Does any task *cache-read* ``line`` in a phase after ``phase``?"""
        return self.load_mask.get(line, 0) >> (phase + 1) != 0

    def consumed_after(self, line: int, phase: int) -> bool:
        """Is ``line``'s memory value observed after ``phase`` -- by a
        cached load or by an uncached atomic (which reads at the L3)?"""
        return (self.load_mask.get(line, 0)
                | self.atomic_mask.get(line, 0)) >> (phase + 1) != 0

    def stale_window(self, line: int, cache_phase: int) -> bool:
        """Is a copy cached at ``cache_phase`` endangered -- i.e. does a
        later phase publish a new value that a still-later phase
        cache-reads? O(1): a read after *any* write after
        ``cache_phase`` is a read after the *first* such write."""
        writes = (self.store_mask.get(line, 0)
                  | self.atomic_mask.get(line, 0)) >> (cache_phase + 1)
        if not writes:
            return False
        first_write = cache_phase + 1 + ((writes & -writes).bit_length() - 1)
        return self.read_after(line, first_write)

    def phase_name(self, p: int) -> str:
        return self.program.phases[p].name
