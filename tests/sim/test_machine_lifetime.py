"""A finished machine is freed by reference counting alone.

Every figure sweep and ``repro serve`` worker builds machine after
machine in one process. A machine that only the cyclic garbage
collector can free lingers until some later collection, which then
runs inside a later cell's timing and holds the dead machine's memory
until it does. These tests pause the collector, drop the last
reference and require the machine to be gone at once.

Because a run allocates no cycles either, :meth:`Machine.run` pauses
the collector for the run's duration; the tests below also pin that
pause: it is undone after a normal or a failed run, it leaves a
collector the caller disabled alone, and no kernel's run leaves
cyclic garbage behind.
"""

import gc
import weakref
from contextlib import contextmanager

import pytest

from repro.analysis.experiments import ExperimentConfig, run_workload
from repro.config import Policy
from repro.errors import SimulationError
from repro.mc import PRESETS, Action, SpecState, apply_action
from repro.mc.presets import build_machine
from repro.runtime.program import Phase, Program, Task
from repro.types import OP_BARRIER, OP_LOAD
from repro.workloads import ALL_WORKLOADS

from tests.conftest import make_machine

HEAP = 0x2000_0000


@contextmanager
def collector_paused():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def repro_garbage():
    """Run a full collection; return the ``repro`` objects it found."""
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        found = [obj for obj in gc.garbage
                 if type(obj).__module__.startswith("repro")]
        gc.garbage.clear()
    finally:
        gc.set_debug(flags)
    return found


@pytest.mark.parametrize("policy", [Policy.hwcc_real(), Policy.swcc(),
                                    Policy.cohesion()],
                         ids=["hwcc-real", "swcc", "cohesion"])
def test_run_workload_machine_dies_on_del(policy):
    exp = ExperimentConfig(n_clusters=2, scale=0.1)
    with collector_paused():
        stats, machine = run_workload("heat", policy, exp)
        assert stats.cycles > 0
        ref = weakref.ref(machine)
        del machine
        assert ref() is None
        assert repro_garbage() == []


def test_model_checker_machine_dies_on_del():
    model = PRESETS["direvict"]
    with collector_paused():
        machine = build_machine(model)
        line = model.lines[0].line
        apply_action(machine, model, SpecState(), Action("load", 0, line, 0))
        ref = weakref.ref(machine)
        del machine
        assert ref() is None
        assert repro_garbage() == []


def _program(op=OP_LOAD, after=None):
    tasks = [Task(ops=[(OP_LOAD, HEAP + 0x1000 * t), (op, HEAP + 4)],
                  stack_words=2) for t in range(4)]
    return Program("lifetime", [Phase("p0", tasks, code_addr=0x10000,
                                      code_lines=2, after=after)])


@contextmanager
def collector_enabled():
    was_enabled = gc.isenabled()
    gc.enable()
    try:
        yield
    finally:
        if not was_enabled:
            gc.disable()


class TestCollectorPause:
    def test_paused_during_run_and_enabled_after(self):
        during = []
        machine = make_machine(Policy.cohesion())
        with collector_enabled():
            stats = machine.run(_program(
                after=lambda _machine: during.append(gc.isenabled())))
            assert gc.isenabled()
        assert stats.tasks_executed == 4
        assert during == [False]

    def test_enabled_again_after_a_failed_run(self):
        machine = make_machine(Policy.cohesion())
        with collector_enabled():
            with pytest.raises(SimulationError, match="explicit barrier"):
                machine.run(_program(op=OP_BARRIER))
            assert gc.isenabled()

    def test_caller_disabled_collector_stays_disabled(self):
        machine = make_machine(Policy.cohesion())
        with collector_paused():
            machine.run(_program())
            assert not gc.isenabled()
            with pytest.raises(SimulationError):
                machine.run(_program(op=OP_BARRIER))
            assert not gc.isenabled()


_EXP = ExperimentConfig(n_clusters=2, scale=0.1)


@pytest.fixture(scope="module")
def warmed_kernels():
    """Run every kernel once: first-use imports (numpy's among them)
    leave one-off cyclic garbage that is not the run's."""
    for kernel in ALL_WORKLOADS:
        run_workload(kernel, Policy.swcc(), _EXP)
    gc.collect()


@pytest.mark.parametrize("policy", [Policy.swcc(), Policy.hwcc_real(),
                                    Policy.cohesion()],
                         ids=["swcc", "hwcc-real", "cohesion"])
@pytest.mark.parametrize("kernel", ALL_WORKLOADS)
def test_run_leaves_no_cyclic_garbage(warmed_kernels, kernel, policy):
    """With the collector on, a run and ``del`` leave nothing for it.

    ``DEBUG_SAVEALL`` covers the whole run, so a collection triggered
    right after :meth:`Machine.run` re-enables the collector would
    keep what it found in ``gc.garbage`` rather than free it unseen.
    """
    flags = gc.get_debug()
    with collector_enabled():
        gc.collect()
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            stats, machine = run_workload(kernel, policy, _EXP)
            assert stats.cycles > 0
            del machine
            gc.collect()
            found = list(gc.garbage)
            gc.garbage.clear()
        finally:
            gc.set_debug(flags)
    assert found == []
