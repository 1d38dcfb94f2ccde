"""The event stream does not depend on the scheduler's slice size.

``ops_per_slice`` sets how many ops a core runs before the executor
re-picks the earliest core. It changes the interleaving of cores, not
what any one core's ops announce: these tests run programs with long
same-line load runs at several slice sizes and pin that each op still
emits exactly one event, with the same kind, line, address and value.
"""

from collections import Counter

from repro import Policy
from repro.debug.trace import LineTracer
from repro.obs.bus import EV_ATOMIC, EV_FLUSH, EV_INV, EV_LOAD, EV_STORE
from repro.runtime.program import Phase, Program, Task
from repro.types import OP_LOAD, OP_STORE, SegmentClass

from tests.conftest import make_machine

# Deep inside the coherent heap, clear of the runtime's own queue and
# barrier words (which sit at the heap base).
HEAP = 0x2800_0000
LINE_A = HEAP >> 5
LINE_B = (HEAP + 0x40) >> 5

#: Kinds whose count/placement is fixed by the program alone (probes and
#: transitions depend on cross-core timing, which ops_per_slice changes).
PROGRAM_KINDS = (EV_LOAD, EV_STORE, EV_ATOMIC, EV_FLUSH, EV_INV)


def batchy_program() -> Program:
    """One task whose loads form long same-line hit runs.

    16 back-to-back loads of line A and 12 of line B are exactly the
    shape the interpreter batches: after the first hit it consumes the
    whole run in one go without re-entering ``Cluster.load``.
    """
    a, b = HEAP, HEAP + 0x40
    ops = [(OP_STORE, a), (OP_STORE, b + 4)]
    ops += [(OP_LOAD, a + 4 * (i % 8)) for i in range(16)]
    ops += [(OP_LOAD, b + 4 * (i % 8)) for i in range(12)]
    ops += [(OP_LOAD, a)]
    task = Task(ops=ops, flush_lines=[LINE_A], stack_words=0)
    return Program("batchy", [Phase("p0", [task], code_lines=0)])


def traced_run(ops_per_slice: int):
    machine = make_machine(Policy.cohesion())
    tracer = LineTracer(max_events=500_000)  # watch everything
    tracer.attach(machine)
    machine.run(batchy_program(), ops_per_slice=ops_per_slice)
    tracer.detach()
    assert tracer.dropped == 0
    return tracer.events


def heap_sequence(events):
    """(kind, line, addr, value) for the two watched heap lines, in order."""
    return [(e.kind, e.line, e.addr, e.value) for e in events
            if e.line in (LINE_A, LINE_B)]


class TestBatchedRuns:
    def test_stream_identical_across_slice_sizes(self):
        # ops_per_slice=1 is the unbatched reference: every op re-enters
        # the dispatcher, so no multi-op hit run can form.
        reference = heap_sequence(traced_run(1))
        for ops_per_slice in (8, 64):
            assert heap_sequence(traced_run(ops_per_slice)) == reference

    def test_every_batched_load_emits(self):
        events = traced_run(64)
        loads = [e for e in events
                 if e.kind == EV_LOAD and e.line in (LINE_A, LINE_B)]
        # 16 + 12 + 1 load ops; a batched run must emit one event per
        # consumed load, not one per batch.
        assert len(loads) == 29

    def test_batched_loads_carry_data_values(self):
        events = traced_run(64)
        first_store = next(e for e in events
                           if e.kind == EV_STORE and e.line == LINE_A)
        assert first_store.addr == HEAP

    def test_program_kind_multiset_invariant(self):
        runs = [traced_run(n) for n in (1, 8)]
        multisets = [Counter((e.kind, e.line, e.addr) for e in events
                             if e.kind in PROGRAM_KINDS)
                     for events in runs]
        assert multisets[0] == multisets[1]


class TestWorkloadAggregate:
    def test_kmeans_event_multiset_invariant(self):
        from repro.analysis.experiments import ExperimentConfig, run_workload

        def traced_kmeans(ops_per_slice):
            exp = ExperimentConfig(n_clusters=2, scale=0.25,
                                   ops_per_slice=ops_per_slice)
            tracer = LineTracer(max_events=2_000_000)

            def instrument(machine, program):
                tracer.attach(machine)
                # Bind the layout so we can drop per-core stack lines
                # (task->core placement shifts with slice granularity).
                tracer.layout = machine.layout

            run_workload("kmeans", Policy.cohesion(), exp,
                         instrument=instrument)
            tracer.detach()
            assert tracer.dropped == 0
            return Counter(
                (e.kind, e.line, e.addr) for e in tracer.events
                if e.kind in PROGRAM_KINDS
                and tracer.layout.classify_line(e.line)
                is not SegmentClass.STACK)
        assert traced_kmeans(1) == traced_kmeans(8)
