"""Dynamic confirmation: static findings against the runtime oracles.

For each hand-made corrupted program, a fully-instrumented simulation
(barrier invariant audits, per-line tracing, checked loads, the final
``verify_expected`` sweep, and the WB/INV efficiency counters) must
exhibit the predicted failure: broken data for the COH001-COH003 and
COH007 errors, wasted coherence work for the COH004/COH005/COH008/COH009
warnings. Seeded random programs close the loop in the other direction:
a program the correctness rules pass runs clean under every oracle.
"""

import random

import pytest

from repro import Policy
from repro.analyze import analyze_frozen, run_with_oracles, watched_lines
from repro.mem.address import line_of
from repro.runtime.program import Phase, Program, Task
from repro.types import OP_ATOMIC, OP_COMPUTE, OP_LOAD, OP_STORE, PolicyKind

from tests.analyze.conftest import (analyze_on, phase, program, swcc_domain,
                                    swcc_setup, task)
from tests.conftest import make_machine

#: The rules whose silence promises the run keeps its data intact.
CORRECTNESS_RULES = ["COH001", "COH002", "COH003", "COH007"]


class TestTruePositives:
    def test_coh001_missing_flush_loses_update(self):
        machine, addr, line = swcc_setup(value=5)
        prog = program(
            phase("produce", task([(OP_STORE, addr, 7)])),  # never flushed
            phase("reduce", task([(OP_ATOMIC, addr, 1)])))
        prog.expected = {addr: 8}
        [diag] = analyze_on(machine, prog).by_rule("COH001")
        run = run_with_oracles(machine, prog, watch=watched_lines([diag]))
        # The atomic read-modify-wrote the stale memory value: the
        # store's 7 never reached the L3, so 5+1 ran instead of 7+1.
        assert run.data_broken
        assert run.confirms(diag)

    def test_coh002_stale_cached_read(self):
        machine, addr, line = swcc_setup(value=5)
        prog = program(
            phase("warm", task([(OP_LOAD, addr, 5)])),      # never invalidated
            phase("publish", task([(OP_ATOMIC, addr, 1)])),
            phase("reread", task([(OP_LOAD, addr, 6)], inputs=[line])))
        prog.expected = {addr: 6}
        [diag] = analyze_on(machine, prog).by_rule("COH002")
        run = run_with_oracles(machine, prog, watch=watched_lines([diag]))
        # The re-read hit the phase-0 cached copy and observed 5, not 6.
        assert (addr, 6, 5) in run.mismatches
        assert run.confirms(diag)

    def test_coh003_intra_phase_race_observed(self):
        machine, addr, line = swcc_setup(value=5)
        racer = task([(OP_COMPUTE, 20_000), (OP_STORE, addr, 9)],
                     flushes=[line])
        reader = task([(OP_LOAD, addr, 9)])
        prog = program(phase("race", racer, reader))
        prog.expected = {addr: 9}
        [diag] = analyze_on(machine, prog).by_rule("COH003")
        run = run_with_oracles(machine, prog, watch=watched_lines([diag]))
        # The reader ran long before the delayed store it depends on.
        assert (addr, 9, 5) in run.mismatches
        assert run.confirms(diag)

    def test_coh004_useless_flush_of_hwcc_line(self):
        machine = make_machine(Policy.cohesion(), n_clusters=1)
        addr = machine.api.malloc(64)
        hw_line = line_of(addr)
        prog = program(phase(
            "p", task([(OP_LOAD, addr)], flushes=[hw_line])))
        [diag] = analyze_on(machine, prog).by_rule("COH004")
        run = run_with_oracles(machine, prog, watch=[hw_line])
        # The WB found a hardware-maintained (clean) copy: pure waste.
        assert run.clean_wb >= 1
        assert run.confirms(diag)
        assert not run.protocol_broken

    def test_coh005_duplicate_flush_wastes_wb(self):
        machine, addr, line = swcc_setup(value=5)
        prog = program(phase(
            "p", task([(OP_STORE, addr, 7)], flushes=[line, line])))
        prog.expected = {addr: 7}
        [diag] = analyze_on(machine, prog).by_rule("COH005")
        run = run_with_oracles(machine, prog, watch=[line])
        # The second WB found the line already clean.
        assert run.clean_wb >= 1
        assert run.confirms(diag)
        assert not run.data_broken


    def test_coh007_reader_observes_stale_value(self):
        machine, addr, line = swcc_setup(value=5)
        prog = program(
            phase("warm", task([(OP_LOAD, addr, 5)])),
            phase("publish", task([(OP_ATOMIC, addr, 1)])),
            phase("reread", task([(OP_LOAD, addr, 6)], inputs=[line])))
        prog.expected = {addr: 6}
        report = analyze_frozen(prog.freeze(), kind=PolicyKind.SWCC,
                                domain=swcc_domain(), rules=["COH007"])
        [diag] = report.diagnostics
        run = run_with_oracles(machine, prog, watch=watched_lines([diag]))
        # The endangered read COH007 anchors on is exactly the load that
        # observed the stale 5.
        assert (addr, 6, 5) in run.mismatches
        assert run.confirms(diag)

    def test_coh008_flush_of_loaded_line_is_clean_wb(self):
        machine, addr, line = swcc_setup(value=5)
        prog = program(phase("p", task([(OP_LOAD, addr, 5)],
                                       flushes=[line])))
        report = analyze_frozen(prog.freeze(), kind=PolicyKind.SWCC,
                                domain=swcc_domain(), rules=["COH008"])
        [diag] = report.diagnostics
        run = run_with_oracles(machine, prog, watch=[line])
        # The WB found a resident copy with nothing dirty on it.
        assert run.clean_wb >= 1
        assert run.confirms(diag)
        assert not run.protocol_broken

    def test_coh008_flush_of_untouched_line_is_wasted_wb(self):
        machine, addr, line = swcc_setup(value=5)
        prog = program(phase("p", task([(OP_LOAD, addr + 64, 0)],
                                       flushes=[line])))
        report = analyze_frozen(prog.freeze(), kind=PolicyKind.SWCC,
                                domain=swcc_domain(), rules=["COH008"])
        [diag] = report.diagnostics
        run = run_with_oracles(machine, prog, watch=[line])
        # The WB found no copy at all.
        assert run.wasted_wb >= 1
        assert run.confirms(diag)

    def test_coh009_invalidate_of_untouched_line_is_wasted_inv(self):
        machine, addr, line = swcc_setup(value=5)
        prog = program(phase("p", task([(OP_LOAD, addr + 64, 0)],
                                       inputs=[line])))
        report = analyze_frozen(prog.freeze(), kind=PolicyKind.SWCC,
                                domain=swcc_domain(), rules=["COH009"])
        [diag] = report.diagnostics
        run = run_with_oracles(machine, prog, watch=[line])
        # The lazy INV at the barrier found the line already absent.
        assert run.wasted_inv >= 1
        assert run.confirms(diag)
        assert not run.protocol_broken


class TestCleanControl:
    def test_correct_program_runs_clean(self):
        machine, addr, line = swcc_setup(value=5)
        prog = program(
            phase("produce", task([(OP_STORE, addr, 7)], flushes=[line])),
            phase("consume", task([(OP_LOAD, addr, 7)], inputs=[line])))
        prog.expected = {addr: 7}
        assert analyze_on(machine, prog).clean
        run = run_with_oracles(machine, prog, watch=[line])
        assert not run.protocol_broken
        assert run.wasted_wb == 0 and run.clean_wb == 0
        assert run.wasted_inv == 0
        # The tracer saw the store, the flush, and the lazy invalidate.
        kinds = {event.kind for event in run.trace.events}
        assert {"store", "flush", "inv"} <= kinds

    def test_oracle_attaches_checker_to_every_barrier(self):
        machine, addr, line = swcc_setup(value=5)
        prog = program(
            phase("a", task([(OP_LOAD, addr, 5)])),
            phase("b", task([(OP_LOAD, addr, 5)])))
        run = run_with_oracles(machine, prog, trace=False)
        # Two phase barriers plus the final explicit audit.
        assert run.stats.barriers == 2
        assert not run.violations
        assert run.trace is None


def _disciplined_program(rng: random.Random, corrupt: bool
                         ) -> tuple:
    """A seeded BSP-disciplined SWcc program (optionally corrupted).

    Disciplined: within a phase, writers own disjoint lines; every
    written line is flushed; every consumer of a line rewritten in an
    earlier phase invalidates it. Corruption drops one flush or one
    invalidate.
    """
    base_line = 0x4000_0000 >> 5
    n_lines = 8
    shadow = {}
    phases = []
    value = 0
    for p in range(rng.randrange(2, 4)):
        n_tasks = rng.randrange(1, 4)
        lines = list(range(n_lines))
        rng.shuffle(lines)
        tasks = []
        for t in range(n_tasks):
            ops, flush, inputs = [], [], []
            for line_index in lines[t::n_tasks][:2]:
                line = base_line + line_index
                addr = line << 5
                if rng.random() < 0.5:
                    value += 1
                    ops.append((OP_STORE, addr, value))
                    shadow[addr] = value
                    flush.append(line)
                    inputs.append(line)
                elif addr in shadow:
                    ops.append((OP_LOAD, addr, shadow[addr]))
                    inputs.append(line)
            tasks.append(Task(ops=ops, flush_lines=flush,
                              input_lines=inputs, stack_words=0))
        phases.append(Phase(name=f"p{p}", tasks=tasks, code_lines=0))
    prog = Program(name="crossval", phases=phases)
    if corrupt:
        candidates = [t for ph in phases for t in ph.tasks
                      if t.flush_lines or t.input_lines]
        victim = rng.choice(candidates) if candidates else None
        if victim is not None:
            which = victim.flush_lines if (victim.flush_lines
                                           and rng.random() < 0.5) \
                else victim.input_lines or victim.flush_lines
            which.pop(rng.randrange(len(which)))
    return prog, shadow


class TestSeededBulkCrossval:
    @pytest.mark.parametrize("seed", range(12))
    def test_disciplined_programs_run_clean(self, seed):
        rng = random.Random(seed)
        prog, shadow = _disciplined_program(rng, corrupt=False)
        analysis = analyze_frozen(prog.freeze(), kind=PolicyKind.SWCC,
                                  domain=swcc_domain())
        assert analysis.errors == [], analysis.format()
        prog.expected = dict(shadow)
        machine = make_machine(Policy.swcc(), n_clusters=1)
        run = run_with_oracles(machine, prog, trace=False)
        assert not run.protocol_broken

    @pytest.mark.parametrize("seed", range(12))
    def test_corrupted_programs_flagged_identically(self, seed):
        # COH002 and its reader-side dual COH007 flag a corrupted
        # program identically. No false negatives: when the correctness
        # rules pass it, the dropped flush or invalidate was harmless
        # and every oracle must agree. A flagged program is not required
        # to break at this scale, so it is not run.
        rng = random.Random(1000 + seed)
        prog, shadow = _disciplined_program(rng, corrupt=True)
        analysis = analyze_frozen(prog.freeze(), kind=PolicyKind.SWCC,
                                  domain=swcc_domain(),
                                  rules=CORRECTNESS_RULES)
        # The reader-side dual agrees with COH002 on cleanliness.
        assert bool(analysis.by_rule("COH002")) == \
            bool(analysis.by_rule("COH007"))
        if not analysis.clean:
            return
        prog.expected = dict(shadow)
        machine = make_machine(Policy.swcc(), n_clusters=2)
        run = run_with_oracles(machine, prog, trace=False)
        assert not run.protocol_broken, run.mismatches
