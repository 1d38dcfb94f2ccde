"""Every executed memory op announces itself once, and only when observed.

The executor dispatches each op kind to one :class:`Cluster` method, and
those methods carry the bus's emit hooks. These tests pin both halves of
that contract by behaviour: a program with one op of each kind yields
one event of each matching kind, and with no subscriber no event object
is ever built.
"""

from collections import Counter

from repro import Policy
from repro.debug.trace import LineTracer
from repro.obs.bus import (EV_ATOMIC, EV_FLUSH, EV_IFETCH, EV_INV, EV_LOAD,
                           EV_STORE)
from repro.runtime.program import Phase, Program, Task
from repro.types import OP_ATOMIC, OP_INV, OP_LOAD, OP_STORE, OP_WB

from tests.conftest import make_machine

# Deep inside the coherent heap, clear of the runtime's own queue and
# barrier words (which sit at the heap base).
HEAP = 0x2800_0000
HEAP_LINE = HEAP >> 5
CODE_LINE = 0

OP_EVENTS = (EV_LOAD, EV_STORE, EV_IFETCH, EV_ATOMIC, EV_FLUSH, EV_INV)


class _OpTracer(LineTracer):
    """A line tracer that also records instruction fetches."""

    KINDS = LineTracer.KINDS + (EV_IFETCH,)


class TestOneEventPerOp:
    def test_each_op_kind_emits_its_event_once(self):
        machine = make_machine(Policy.cohesion())
        ops = [(OP_LOAD, HEAP), (OP_STORE, HEAP + 4), (OP_ATOMIC, HEAP + 8),
               (OP_WB, HEAP), (OP_INV, HEAP)]
        task = Task(ops=ops, stack_words=0)
        program = Program("one-of-each", [
            Phase("p0", [task], code_addr=CODE_LINE << 5, code_lines=1)])
        tracer = _OpTracer(watch={HEAP_LINE, CODE_LINE})
        with tracer.attach(machine):
            machine.run(program)
        seen = Counter(e.kind for e in tracer.events if e.kind in OP_EVENTS)
        assert seen == Counter(OP_EVENTS)
        assert {e.line for e in tracer.events if e.kind == EV_IFETCH} \
            == {CODE_LINE}


class _Unbuilt:
    """Stands in for ``ObsEvent``: building an event is a failure."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("ObsEvent built while no subscriber listens")


#: Every simulator module with an emit hook.
EMITTING_MODULES = ("repro.sim.cluster", "repro.runtime.executor",
                    "repro.core.cohesion", "repro.core.transitions",
                    "repro.coherence.directory", "repro.interconnect.network",
                    "repro.mem.dram")


def test_quiescent_bus_builds_no_events(monkeypatch):
    from repro.analysis.experiments import ExperimentConfig, run_workload

    for module in EMITTING_MODULES:
        monkeypatch.setattr(f"{module}.ObsEvent", _Unbuilt)
    stats, _machine = run_workload("kmeans", Policy.cohesion(),
                                   ExperimentConfig(n_clusters=2,
                                                    scale=0.25))
    assert stats.ops_executed > 0
