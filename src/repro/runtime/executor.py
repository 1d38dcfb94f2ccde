"""Event-interleaved execution of a BSP program on the machine.

Cores are interleaved by a min-heap on their local clocks: the earliest
core executes a short slice of its operation stream atomically against
the shared memory hierarchy, then re-enters the heap at its new clock.
Shared-resource busy-until reservations (L2 ports, tree links, L3 banks,
DRAM channels) provide queuing; this scheme reproduces the contention and
serialisation effects the paper reports without per-cycle simulation.

Per phase, each core loops: atomically dequeue a task (one atomic RMW on
the queue head plus reads of the task descriptor -- this is the task
scheduling overhead that dominates fine-grained kernels such as gjk),
fetch the kernel's code through its L1I, touch its private stack frame,
run the task's operations, eagerly flush the task's output lines (when
software-managed), and finally -- when the queue is dry -- lazily
invalidate the phase's input lines and arrive at the barrier with one
atomic operation. The barrier releases every core at the latest arrival
time plus a broadcast delay.
"""

from __future__ import annotations

import heapq
from typing import List, Set

from repro.errors import SimulationError
from repro.mem.address import LINE_BYTES, LINE_SHIFT
from repro.obs.bus import EV_BARRIER, ObsEvent
from repro.runtime.program import FrozenPhase, freeze_phase
from repro.sim.stats import RunStats, collect_stats
from repro.types import (OP_ATOMIC, OP_BARRIER, OP_COMPUTE, OP_IFETCH,
                         OP_INV, OP_LOAD, OP_STORE, OP_WB)

#: Cycles from last barrier arrival to global release (broadcast wake-up).
BARRIER_RELEASE_COST = 32.0

_STAGE_TASKS = 0
_STAGE_DRAIN = 1
_STAGE_WAITING = 2


def _add(old: int, operand: int) -> int:
    return old + operand


class _CoreState:
    __slots__ = ("ops", "ip", "inputs", "stage")

    def __init__(self) -> None:
        self.ops: List[tuple] = []
        self.ip = 0
        self.inputs: Set[int] = set()
        self.stage = _STAGE_TASKS


class BspExecutor:
    """Runs one :class:`~repro.runtime.program.Program` to completion.

    Accepts either a plain :class:`Program` or the compact
    :class:`~repro.runtime.program.FrozenProgram` form. Plain phases are
    compiled with :func:`~repro.runtime.program.freeze_phase` at run
    time (so a phase mutated after construction executes as mutated);
    frozen phases are consumed directly -- each task's flush WBs were
    fused into the flat op array once at freeze time, so dequeuing a
    task is a prefix copy, the live stack block, and one slice.
    """

    def __init__(self, machine, program, ops_per_slice: int = 8) -> None:
        if ops_per_slice <= 0:
            raise SimulationError("ops_per_slice must be positive")
        self.machine = machine
        self.program = program
        self.ops_per_slice = ops_per_slice
        self.tasks_executed = 0
        self.ops_executed = 0
        self.barriers = 0
        self._check_loads = machine.config.track_data
        #: (address, expected, observed) for loads that returned a value the
        #: program's logical data flow forbids -- always empty on a correct
        #: protocol implementation with a correctly synchronised program.
        self.load_mismatches: List[tuple] = []
        runtime = machine.runtime
        self._queue_addr = runtime.queue_addr
        self._barrier_addr = runtime.barrier_addr
        self._desc_base = runtime.desc_base
        self._desc_capacity = runtime.desc_capacity
        # One ifetch-op prefix per distinct (code_addr, code_lines):
        # every task of a phase shares it, so build it once.
        self._code_prefix: dict = {}
        #: Per-core byte offset of the next stack-frame word.
        self._stack_cursors: List[int] = [0] * machine.config.n_cores
        self._obs = machine.obs

    # -- public -----------------------------------------------------------
    def run(self) -> RunStats:
        machine = self.machine
        for phase in self.program.phases:
            if not isinstance(phase, FrozenPhase):
                phase = freeze_phase(phase, keep_after=True)
            self._run_phase(phase)
        end = max(machine.core_clocks) if machine.core_clocks else 0.0
        stats = collect_stats(machine, end)
        stats.tasks_executed = self.tasks_executed
        stats.ops_executed = self.ops_executed
        stats.barriers = self.barriers
        stats.load_mismatches = list(self.load_mismatches)
        return stats

    # -- phase machinery ------------------------------------------------------
    def _run_phase(self, phase: FrozenPhase) -> None:
        machine = self.machine
        n_cores = machine.config.n_cores
        per_cluster = machine.config.cores_per_cluster
        flat_ops = phase.ops
        bounds = phase.bounds
        input_lines = phase.input_lines
        stack_words = phase.stack_words
        n_tasks = phase.n_tasks
        prefix = self._code_prefix_for(phase.code_addr, phase.code_lines)
        head = 0
        states = [_CoreState() for _ in range(n_cores)]
        heap = [(machine.core_clocks[core], core) for core in range(n_cores)]
        heapq.heapify(heap)
        arrivals: List[float] = []
        # Local bindings for the scheduler loop: these globals/attributes
        # are touched once per slice of every core.
        heappop = heapq.heappop
        heappush = heapq.heappush
        clusters = machine.clusters
        execute_slice = self._execute_slice

        while heap:
            now, core = heappop(heap)
            state = states[core]
            cluster = clusters[core // per_cluster]
            local = core % per_cluster

            if state.ip >= len(state.ops):
                if state.stage == _STAGE_DRAIN:
                    state.stage = _STAGE_WAITING
                    arrivals.append(now)
                    continue
                if head < n_tasks:
                    now = self._dequeue(cluster, local, core, head, now)
                    ops = list(prefix)
                    if stack_words[head]:
                        ops.extend(self._stack_block(core, stack_words[head]))
                    ops.extend(flat_ops[bounds[head]:bounds[head + 1]])
                    state.ops = ops
                    state.ip = 0
                    state.inputs.update(input_lines[head])
                    head += 1
                    self.tasks_executed += 1
                else:
                    state.ops = self._barrier_ops(state)
                    state.ip = 0
                    state.stage = _STAGE_DRAIN
                heappush(heap, (now, core))
                continue

            now = execute_slice(cluster, local, core, state, now)
            heappush(heap, (now, core))

        if len(arrivals) != n_cores:
            raise SimulationError(
                f"phase {phase.name!r}: {len(arrivals)}/{n_cores} cores "
                "reached the barrier")
        release = max(arrivals) + BARRIER_RELEASE_COST
        for core in range(n_cores):
            machine.core_clocks[core] = release
        self.barriers += 1
        obs = self._obs
        if obs.active:
            # Emitted before phase.after so subscribers (the barrier
            # invariant checker) observe the machine at the release
            # point, not after the phase's verification hook ran.
            obs.emit(ObsEvent(release, EV_BARRIER, detail=phase.name))
        if phase.after is not None:
            phase.after(machine)

    def _dequeue(self, cluster, local: int, core: int, index: int,
                 now: float) -> float:
        """Atomic pop of the queue head plus a task-descriptor read."""
        now, _old = cluster.atomic(local, self._queue_addr, _add, 1, now)
        desc = self._desc_base + 8 * (index % self._desc_capacity)
        now, _value = cluster.load(local, desc, now)
        now, _value = cluster.load(local, desc + 4, now)
        return now

    def _code_prefix_for(self, code_addr: int, code_lines: int) -> List[tuple]:
        """The shared ifetch prefix for one (code_addr, code_lines)."""
        key = (code_addr, code_lines)
        prefix = self._code_prefix.get(key)
        if prefix is None:
            prefix = [(OP_IFETCH, code_addr + LINE_BYTES * i)
                      for i in range(code_lines)]
            self._code_prefix[key] = prefix
        return prefix

    def _stack_block(self, core: int, stack_words: int) -> List[tuple]:
        """Stack-frame ops for one task: a store+load per touched word.

        Every generated address must be a word-aligned offset *within*
        the core's fixed stack region, so the wrap-around offset is
        masked down to a word boundary before the region base is added
        (masking the sum instead would also clear low bits of the base).
        """
        base, size = self.machine.layout.stack_region(core)
        cursors = self._stack_cursors
        cursor = cursors[core]
        ops: List[tuple] = []
        append = ops.append
        for i in range(stack_words):
            addr = base + (((cursor + 4 * i) % size) & ~3)
            append((OP_STORE, addr))
            append((OP_LOAD, addr))
        cursors[core] = (cursor + 4 * stack_words) % size
        return ops

    def _barrier_ops(self, state: _CoreState) -> List[tuple]:
        """Lazy input invalidations followed by the barrier atomic."""
        ops: List[tuple] = [(OP_INV, line << LINE_SHIFT)
                            for line in sorted(state.inputs)]
        state.inputs.clear()
        ops.append((OP_ATOMIC, self._barrier_addr))
        return ops

    # -- op dispatch -----------------------------------------------------------
    def _execute_slice(self, cluster, local: int, core: int,
                       state: _CoreState, now: float) -> float:
        """Execute up to ``ops_per_slice`` ops of one core's stream.

        A plain dispatcher: every memory op calls the matching
        :class:`~repro.sim.cluster.Cluster` method, the same methods the
        model checker's actions call, so the executor runs no cache
        logic and emits no op events of its own.
        """
        ops = state.ops
        ip = state.ip
        start_ip = ip
        end = min(len(ops), ip + self.ops_per_slice)
        check_loads = self._check_loads
        mismatches = self.load_mismatches
        while ip < end:
            op = ops[ip]
            kind = op[0]
            if kind == OP_LOAD:
                now, value = cluster.load(local, op[1], now)
                if check_loads and len(op) > 2 and value != op[2]:
                    if len(mismatches) < 100:
                        mismatches.append((op[1], op[2], value))
            elif kind == OP_STORE:
                value = op[2] if len(op) > 2 else 0
                now = cluster.store(local, op[1], value, now)
            elif kind == OP_COMPUTE:
                now += op[1]
            elif kind == OP_IFETCH:
                now = cluster.ifetch(local, op[1], now)
            elif kind == OP_ATOMIC:
                operand = op[2] if len(op) > 2 else 1
                now, _v = cluster.atomic(local, op[1], _add, operand, now)
            elif kind == OP_WB:
                now = cluster.flush_line(local, op[1] >> LINE_SHIFT, now)
            elif kind == OP_INV:
                now = cluster.invalidate_line(local, op[1] >> LINE_SHIFT, now)
            elif kind == OP_BARRIER:
                raise SimulationError("explicit barrier ops are not allowed "
                                      "inside tasks; phases imply barriers")
            else:
                raise SimulationError(f"unknown op kind {kind}")
            ip += 1
        state.ip = ip
        self.ops_executed += ip - start_ip
        self.machine.core_clocks[core] = now
        return now
