"""Program/Phase/Task structures."""

from repro.runtime.program import Phase, Program, Task, freeze_phase
from repro.types import OP_LOAD, OP_STORE


class TestTask:
    def test_defaults(self):
        task = Task(ops=[(OP_LOAD, 0)])
        assert task.flush_lines == ()
        assert task.input_lines == ()
        assert task.stack_words == 8

    def test_metadata_carried(self):
        task = Task(ops=[], flush_lines=[1, 2], input_lines=[3],
                    stack_words=0)
        assert list(task.flush_lines) == [1, 2]
        assert list(task.input_lines) == [3]


class TestPhase:
    def test_totals(self):
        tasks = [Task(ops=[(OP_LOAD, 0), (OP_STORE, 4)]),
                 Task(ops=[(OP_LOAD, 8)])]
        phase = Phase("p", tasks)
        assert freeze_phase(phase).total_ops == 3
        assert phase.code_lines == 4


class TestProgram:
    def test_totals(self):
        phases = [Phase("a", [Task(ops=[(OP_LOAD, 0)])]),
                  Phase("b", [Task(ops=[]), Task(ops=[(OP_LOAD, 4)] * 3)])]
        program = Program("prog", phases)
        frozen = program.freeze()
        assert sum(phase.n_tasks for phase in frozen.phases) == 3
        assert frozen.total_ops == 4
        assert program.expected == {}

    def test_expected_is_per_instance(self):
        a = Program("a", [])
        b = Program("b", [])
        a.expected[1] = 2
        assert b.expected == {}
