"""A finished machine is freed by reference counting alone.

Every figure sweep and ``repro serve`` worker builds machine after
machine in one process. A machine that only the cyclic garbage
collector can free lingers until some later collection, which then
runs inside a later cell's timing and holds the dead machine's memory
until it does. These tests pause the collector, drop the last
reference and require the machine to be gone at once.
"""

import gc
import weakref
from contextlib import contextmanager

import pytest

from repro.analysis.experiments import ExperimentConfig, run_workload
from repro.config import Policy
from repro.mc import PRESETS, Action, SpecState, apply_action
from repro.mc.presets import build_machine


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
