"""Workload-construction framework.

The paper's benchmarks are optimized kernels from scientific and visual
computing, written in a task-based, barrier-synchronised work-queue
style. Each workload here reproduces its kernel's *data-structure
layout, task decomposition, and sharing pattern* (private, immutable,
read-shared, atomic-reduction), which is what every reported result is a
function of; several also carry real computed values end to end so the
functional layer can verify that each coherence mode delivers the values
the memory model promises.

Buffers come in three kinds, which determine both where they are
allocated (Table 2 API) and which software coherence actions each policy
emits for them:

* ``immutable`` -- constant inputs, placed in the globals segment (a
  standing coarse-grain SWcc region under Cohesion). Never flushed or
  invalidated under any mode.
* ``sw`` -- phase-structured data allocated with ``coh_malloc`` on the
  incoherent heap. Under pure SWcc *and* Cohesion, tasks eagerly flush
  written lines at task end and lazily invalidate phase-variant lines at
  the barrier; under pure HWcc the hardware handles everything.
* ``hw`` -- irregularly shared data allocated with ``malloc`` on the
  coherent heap. Hardware-coherent under HWcc and Cohesion; under pure
  SWcc (where there is no hardware option) it is software-managed like
  everything else.

Load operations can carry the value the build-time data flow says they
must observe; the executor checks these on ``track_data`` machines,
giving an end-to-end test of each protocol path.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.errors import ConfigError
from repro.mem.address import (WORD_BYTES, line_base, line_of,
                               lines_in_range)
from repro.runtime.program import Phase, Program, Task
from repro.types import OP_ATOMIC, OP_COMPUTE, OP_LOAD, OP_STORE, PolicyKind

_VALUE_MASK = 0xFFFFFFFF


@dataclass
class Buffer:
    """One named allocation with a declared sharing pattern."""

    name: str
    addr: int
    size: int
    kind: str                 # "immutable" | "sw" | "hw"
    inv_reads: bool = False   # reads must be invalidated at the barrier
    inv_writes: bool = False  # written lines go stale for the writer too

    @property
    def base_line(self) -> int:
        return line_of(self.addr)

    @property
    def n_lines(self) -> int:
        return len(lines_in_range(self.addr, self.size)) if self.size else 0

    def line(self, index: int) -> int:
        return self.base_line + index

    def lines(self, start: int = 0, count: Optional[int] = None) -> range:
        count = self.n_lines - start if count is None else count
        return range(self.base_line + start, self.base_line + start + count)

    def word_addr(self, word_index: int) -> int:
        return self.addr + WORD_BYTES * word_index


class TaskSketch:
    """Accumulates one task's ops plus its coherence metadata."""

    __slots__ = ("wl", "ops", "inputs", "flushes")

    def __init__(self, workload: "Workload") -> None:
        self.wl = workload
        self.ops: List[tuple] = []
        self.inputs: set = set()
        self.flushes: set = set()

    # -- reads ---------------------------------------------------------------
    def read(self, buf: Buffer, lines: Iterable[int], words_per_line: int = 2,
             check: bool = True) -> None:
        """Load ``words_per_line`` words from each line of ``buf``."""
        wl = self.wl
        track = wl.track and check
        shadow = wl.shadow
        intern = wl._op_intern
        ops = self.ops
        sw = wl.sw_managed(buf) and buf.inv_reads
        for line in lines:
            base = line_base(line)
            for w in range(words_per_line):
                addr = base + WORD_BYTES * w
                if track and addr in shadow:
                    op = (OP_LOAD, addr, shadow[addr])
                else:
                    op = (OP_LOAD, addr)
                ops.append(intern.setdefault(op, op))
            if sw:
                self.inputs.add(line)

    def gather(self, buf: Buffer, word_indices: Iterable[int],
               check: bool = True) -> None:
        """Single-word loads at arbitrary word offsets (e.g. spMV gathers)."""
        wl = self.wl
        track = wl.track and check
        shadow = wl.shadow
        intern = wl._op_intern
        sw = wl.sw_managed(buf) and buf.inv_reads
        for index in word_indices:
            addr = buf.word_addr(index)
            if track and addr in shadow:
                op = (OP_LOAD, addr, shadow[addr])
            else:
                op = (OP_LOAD, addr)
            self.ops.append(intern.setdefault(op, op))
            if sw:
                self.inputs.add(line_of(addr))

    # -- writes -----------------------------------------------------------------
    def write(self, buf: Buffer, lines: Iterable[int], words_per_line: int = 2,
              value_fn: Optional[Callable[[int], int]] = None) -> None:
        """Store ``words_per_line`` words into each line of ``buf``."""
        wl = self.wl
        sw = wl.sw_managed(buf)
        for line in lines:
            base = line_base(line)
            for w in range(words_per_line):
                addr = base + WORD_BYTES * w
                self._store(addr, value_fn)
            if sw:
                self.flushes.add(line)
                if buf.inv_writes:
                    self.inputs.add(line)

    def write_words(self, buf: Buffer, word_indices: Iterable[int],
                    value_fn: Optional[Callable[[int], int]] = None) -> None:
        wl = self.wl
        sw = wl.sw_managed(buf)
        for index in word_indices:
            addr = buf.word_addr(index)
            self._store(addr, value_fn)
            if sw:
                line = line_of(addr)
                self.flushes.add(line)
                if buf.inv_writes:
                    self.inputs.add(line)

    def _store(self, addr: int, value_fn: Optional[Callable[[int], int]]) -> None:
        wl = self.wl
        intern = wl._op_intern
        if wl.track:
            value = (value_fn(addr) if value_fn else wl.synth_value(addr)) & _VALUE_MASK
            wl.shadow[addr] = value
            wl.expected[addr] = value
            op = (OP_STORE, addr, value)
        else:
            op = (OP_STORE, addr)
        self.ops.append(intern.setdefault(op, op))

    # -- other ops ----------------------------------------------------------------
    def atomic(self, addr: int, operand: int = 1) -> None:
        wl = self.wl
        op = (OP_ATOMIC, addr, operand)
        self.ops.append(wl._op_intern.setdefault(op, op))
        if wl.track:
            new = (wl.shadow.get(addr, 0) + operand) & _VALUE_MASK
            wl.shadow[addr] = new
            wl.expected[addr] = new

    def compute(self, cycles: int) -> None:
        if cycles > 0:
            op = (OP_COMPUTE, cycles)
            self.ops.append(self.wl._op_intern.setdefault(op, op))

    def done(self, stack_words: int = 8) -> Task:
        return Task(ops=self.ops, flush_lines=sorted(self.flushes),
                    input_lines=sorted(self.inputs), stack_words=stack_words)


class Workload(abc.ABC):
    """Base class: allocation helpers, value tracking, program assembly."""

    name = "base"
    code_lines = 6
    #: When True, every buffer is allocated on the coherent heap
    #: regardless of its declared kind -- the "stack alone incoherent"
    #: ablation of Section 4.3 (only the coarse code/stack regions stay
    #: SWcc under Cohesion).
    force_hw_data = False

    def __init__(self, scale: float = 1.0, seed: int = 1234) -> None:
        if scale <= 0:
            raise ConfigError("workload scale must be positive")
        self.scale = scale
        self.seed = seed
        self.rng = random.Random(seed)
        self.machine = None
        self.track = False
        self.shadow: Dict[int, int] = {}
        self.expected: Dict[int, int] = {}
        self._phase_salt = 0
        # Op-tuple intern table: workloads re-read the same shared lines
        # from thousands of tasks, so identical (kind, addr[, value])
        # tuples recur constantly. Sharing one tuple per distinct op
        # keeps large op streams resident-cache-friendly and cuts the
        # build-time allocation churn.
        self._op_intern: Dict[tuple, tuple] = {}
        # (kind, size, addr) per alloc() call, in call order -- the
        # frozen-program allocation log (kind is the *effective* kind,
        # after any force_hw_data override).
        self._alloc_log: List[tuple] = []

    # -- entry point ------------------------------------------------------------
    def build(self, machine) -> Program:
        """Allocate data on ``machine`` and construct the BSP program."""
        self.machine = machine
        self.track = machine.config.track_data
        self.rng = random.Random(self.seed)
        self.shadow = {}
        self.expected = {}
        self._op_intern = {}
        self._alloc_log = []
        self.code_addr = machine.layout.code_base
        program = self._build()
        program.expected = self.expected
        return program

    @abc.abstractmethod
    def _build(self) -> Program:
        """Construct phases; called with ``self.machine`` bound."""

    # -- sizing helpers ------------------------------------------------------------
    @property
    def n_cores(self) -> int:
        return self.machine.config.n_cores

    def scaled(self, n: int, minimum: int = 1) -> int:
        return max(minimum, int(n * self.scale))

    # -- allocation ------------------------------------------------------------------
    def alloc(self, name: str, size: int, kind: str, inv_reads: bool = False,
              inv_writes: bool = False,
              init: Optional[Callable[[int], int]] = None) -> Buffer:
        machine = self.machine
        if self.force_hw_data:
            kind = "hw"
        if kind == "immutable":
            addr = machine.runtime.static_alloc(size)
        elif kind == "sw":
            addr = machine.api.coh_malloc(size)
        elif kind == "hw":
            addr = machine.api.malloc(size)
        else:
            raise ConfigError(f"unknown buffer kind {kind!r}")
        self._alloc_log.append((kind, size, addr))
        buf = Buffer(name, addr, size, kind, inv_reads, inv_writes)
        if init is not None and self.track:
            backing = machine.memsys.backing
            for word in range(size // 4):
                value = init(word) & _VALUE_MASK
                waddr = addr + 4 * word
                backing.write_word_addr(waddr, value)
                self.shadow[waddr] = value
        return buf

    def sw_managed(self, buf: Buffer) -> bool:
        """Does the current policy require software coherence ops for buf?"""
        kind = self.machine.policy.kind
        if kind is PolicyKind.SWCC:
            return buf.kind != "immutable"
        if kind is PolicyKind.COHESION:
            return buf.kind == "sw"
        return False

    # -- values ------------------------------------------------------------------------
    def set_phase_salt(self, salt: int) -> None:
        self._phase_salt = salt

    def synth_value(self, addr: int) -> int:
        """Deterministic synthetic store value (distinct across phases)."""
        return (addr * 2654435761 + self._phase_salt * 97) & _VALUE_MASK

    # -- assembly ---------------------------------------------------------------------
    def sketch(self) -> TaskSketch:
        return TaskSketch(self)

    def phase(self, name: str, tasks: Sequence[Task],
              code_lines: Optional[int] = None) -> Phase:
        return Phase(name=name, tasks=list(tasks), code_addr=self.code_addr,
                     code_lines=code_lines or self.code_lines)

    def program(self, phases: Sequence[Phase]) -> Program:
        return Program(name=self.name, phases=list(phases))
