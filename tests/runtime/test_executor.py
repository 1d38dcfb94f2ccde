"""BSP executor: task queue, barriers, op dispatch, injected overheads."""

import pytest

from repro import Policy
from repro.runtime.program import Phase, Program, Task
from repro.types import OP_ATOMIC, OP_COMPUTE, OP_LOAD, OP_STORE

from tests.conftest import make_machine

HEAP = 0x2000_0000
INC = 0x4000_0000


def simple_program(n_tasks=4, ops_per_task=4, flush=(), inputs=()):
    tasks = [Task(ops=[(OP_LOAD, HEAP + 0x1000 * t + 4 * i)
                       for i in range(ops_per_task)],
                  flush_lines=list(flush), input_lines=list(inputs),
                  stack_words=2)
             for t in range(n_tasks)]
    return Program("test", [Phase("p0", tasks, code_addr=0x10000,
                                  code_lines=2)])


class TestBasicExecution:
    def test_all_tasks_execute(self, hwcc_machine):
        program = simple_program(n_tasks=7)
        stats = hwcc_machine.run(program)
        assert stats.tasks_executed == 7
        assert stats.barriers == 1
        assert stats.cycles > 0

    def test_clocks_synchronized_after_barrier(self, hwcc_machine):
        hwcc_machine.run(simple_program())
        clocks = set(hwcc_machine.core_clocks)
        assert len(clocks) == 1

    def test_more_tasks_than_cores(self, hwcc_machine):
        n = hwcc_machine.config.n_cores * 3
        stats = hwcc_machine.run(simple_program(n_tasks=n))
        assert stats.tasks_executed == n

    def test_fewer_tasks_than_cores(self, hwcc_machine):
        stats = hwcc_machine.run(simple_program(n_tasks=1))
        assert stats.tasks_executed == 1
        assert stats.barriers == 1

    def test_empty_phase_still_barriers(self, hwcc_machine):
        program = Program("empty", [Phase("p0", [])])
        stats = hwcc_machine.run(program)
        assert stats.barriers == 1
        assert stats.tasks_executed == 0

    def test_multi_phase_in_order(self, hwcc_machine):
        phases = [Phase(f"p{i}", simple_program(2).phases[0].tasks)
                  for i in range(3)]
        stats = hwcc_machine.run(Program("multi", phases))
        assert stats.barriers == 3
        assert stats.tasks_executed == 6


class TestInjectedTraffic:
    def test_dequeue_atomics_counted(self, hwcc_machine):
        stats = hwcc_machine.run(simple_program(n_tasks=5))
        # one dequeue atomic per task + one barrier atomic per core
        expected = 5 + hwcc_machine.config.n_cores
        assert stats.messages.uncached_atomic == expected

    def test_instruction_fetches_injected(self, hwcc_machine):
        stats = hwcc_machine.run(simple_program())
        assert stats.messages.instruction_request > 0

    def test_stack_traffic_touches_stack_segment(self, hwcc_machine):
        hwcc_machine.run(simple_program())
        layout = hwcc_machine.layout
        stack_lines = [entry.line for cluster in hwcc_machine.clusters
                       for entry in cluster.l2.lines()
                       if layout.classify_line(entry.line).value == "stack"]
        assert stack_lines

    def test_flush_ops_emitted_for_tasks(self, swcc_machine):
        line = INC >> 5
        program = simple_program(flush=[line])
        # make the line dirty so the flush sends a message: do it by
        # having the task's ops store first
        program.phases[0].tasks[0].ops.insert(0, (OP_STORE, INC))
        stats = swcc_machine.run(program)
        assert stats.messages.wb_issued >= 4  # every task flushes
        assert stats.messages.software_flush >= 1

    def test_input_invalidations_at_barrier(self, swcc_machine):
        lines = [(INC >> 5) + i for i in range(8)]
        stats = swcc_machine.run(simple_program(inputs=lines))
        assert stats.messages.inv_issued > 0


class TestOpDispatch:
    def test_compute_advances_time(self, hwcc_machine):
        quiet = Program("q", [Phase("p", [Task(ops=[(OP_COMPUTE, 10_000)],
                                               stack_words=0)],
                                    code_lines=0)])
        stats = hwcc_machine.run(quiet)
        assert stats.cycles >= 10_000

    def test_atomic_op_with_operand(self, hwcc_machine):
        addr = HEAP + 0x9000
        program = Program("a", [Phase("p", [
            Task(ops=[(OP_ATOMIC, addr, 7), (OP_ATOMIC, addr, 5)],
                 stack_words=0)], code_lines=0)])
        hwcc_machine.run(program)
        hwcc_machine.drain_caches()
        assert hwcc_machine.memsys.backing.read_word_addr(addr) == 12

    def test_unknown_op_rejected(self, hwcc_machine):
        from repro.errors import SimulationError
        program = Program("bad", [Phase("p", [Task(ops=[(99, 0)])])])
        with pytest.raises(SimulationError):
            hwcc_machine.run(program)

    def test_checked_load_mismatch_recorded(self, hwcc_machine):
        addr = HEAP + 0x100
        hwcc_machine.memsys.backing.write_word_addr(addr, 5)
        program = Program("c", [Phase("p", [
            Task(ops=[(OP_LOAD, addr, 999)], stack_words=0)], code_lines=0)])
        stats = hwcc_machine.run(program)
        assert stats.load_mismatches == [(addr, 999, 5)]

    def test_checked_load_match_clean(self, hwcc_machine):
        addr = HEAP + 0x100
        hwcc_machine.memsys.backing.write_word_addr(addr, 5)
        program = Program("c", [Phase("p", [
            Task(ops=[(OP_LOAD, addr, 5)], stack_words=0)], code_lines=0)])
        stats = hwcc_machine.run(program)
        assert stats.load_mismatches == []

    def test_ops_per_slice_does_not_change_results(self, hwcc_machine):
        from tests.conftest import make_machine
        results = []
        for slice_size in (1, 8, 64):
            machine = make_machine(Policy.hwcc_ideal())
            stats = machine.run(simple_program(n_tasks=6),
                                ops_per_slice=slice_size)
            results.append(stats.total_messages)
        assert len(set(results)) == 1


class TestDeterminism:
    def test_identical_runs_identical_stats(self):
        def run():
            machine = make_machine(Policy.cohesion())
            from repro.workloads import get_workload
            program = get_workload("gjk", scale=0.2).build(machine)
            stats = machine.run(program)
            return (stats.cycles, stats.total_messages, stats.tasks_executed)

        assert run() == run()


class TestStackAddressing:
    """The stack block generates word-aligned offsets into the core's
    stack region. Regression for an operator-precedence bug where
    ``base + offset & ~3`` masked the whole sum: on any base whose low
    bits are set, that rewrites addresses *below* the region."""

    @staticmethod
    def _executor(base, size):
        from types import SimpleNamespace

        from repro.runtime.executor import BspExecutor

        machine = SimpleNamespace(
            config=SimpleNamespace(track_data=False, n_cores=1),
            runtime=SimpleNamespace(queue_addr=0, barrier_addr=0,
                                    desc_base=0, desc_capacity=1),
            layout=SimpleNamespace(stack_region=lambda core: (base, size)),
            obs=None)
        return BspExecutor(machine, Program("stub", []))

    def test_misaligned_base_and_cursor_stay_in_region(self):
        # Deliberately misaligned: real layouts are line-aligned, which
        # is exactly why the precedence bug was invisible to them.
        base, size = 0x1000_0002, 64
        executor = self._executor(base, size)
        executor._stack_cursors[0] = 6  # mid-word cursor, wraps below
        ops = executor._stack_block(0, 20)  # 80 bytes > size: wraps
        assert len(ops) == 40  # store+load per word
        for _kind, addr in ops:
            offset = addr - base
            assert 0 <= offset < size, hex(addr)
            assert offset % 4 == 0, hex(addr)

    def test_cursor_advances_modulo_region(self):
        executor = self._executor(0x1000_0000, 64)
        executor._stack_block(0, 20)
        assert executor._stack_cursors[0] == (4 * 20) % 64

    def test_real_layout_addresses_classify_as_stack(self, hwcc_machine):
        from repro.types import SegmentClass

        layout = hwcc_machine.layout
        from repro.runtime.executor import BspExecutor
        ex = BspExecutor(hwcc_machine, simple_program(1))
        core = 3
        ex._stack_cursors[core] = 12
        for _kind, addr in ex._stack_block(core, 8):
            base, size = layout.stack_region(core)
            assert base <= addr < base + size
            assert layout.classify(addr) is SegmentClass.STACK
