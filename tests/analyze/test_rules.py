"""Each analyzer rule against minimal corrupted programs and their clean
twins."""

import json

import pytest

from repro import Policy
from repro.analyze import (ANALYZE_RULE_IDS, DomainModel, Severity,
                           analyze_frozen)
from repro.analyze import rules as analyze_rules
from repro.mem.address import WORD_BYTES, line_of
from repro.types import (OP_ATOMIC, OP_INV, OP_LOAD, OP_STORE, OP_WB,
                         PolicyKind)

from tests.analyze.conftest import (SHARED_RULES, analyze_on, cohesion_setup,
                                    phase, program, rule_ids, swcc_domain,
                                    swcc_setup, task)
from tests.conftest import make_machine

ADDR = 0x4000_0000
LINE = ADDR >> 5


def analyze(prog, rules=None):
    return analyze_frozen(prog.freeze(), kind=PolicyKind.SWCC,
                          domain=swcc_domain(), rules=rules)


class TestCOH001MissingFlush:
    def test_unflushed_store_read_later(self):
        machine, addr, line = swcc_setup()
        prog = program(
            phase("produce", task([(OP_STORE, addr, 7)])),
            phase("consume", task([(OP_LOAD, addr)], inputs=[line])))
        report = analyze_on(machine, prog)
        assert rule_ids(report) == ["COH001"]
        [diag] = report.diagnostics
        assert diag.severity is Severity.ERROR
        assert diag.phase == 0 and diag.task == 0 and diag.line == line

    def test_flush_silences(self):
        machine, addr, line = swcc_setup()
        prog = program(
            phase("produce", task([(OP_STORE, addr, 7)], flushes=[line])),
            phase("consume", task([(OP_LOAD, addr)], inputs=[line])))
        assert analyze_on(machine, prog).clean

    def test_inline_wb_counts_as_flush(self):
        machine, addr, line = swcc_setup()
        prog = program(
            phase("produce", task([(OP_STORE, addr, 7), (OP_WB, addr)])),
            phase("consume", task([(OP_LOAD, addr)], inputs=[line])))
        assert analyze_on(machine, prog).clean

    def test_atomic_consumer_counts(self):
        # An uncached atomic reads the line's memory value at the L3, so
        # an unflushed store feeding it is just as lost.
        machine, addr, line = swcc_setup()
        prog = program(
            phase("produce", task([(OP_STORE, addr, 7)])),
            phase("reduce", task([(OP_ATOMIC, addr, 1)])))
        assert rule_ids(analyze_on(machine, prog)) == ["COH001"]

    def test_unconsumed_store_is_fine(self):
        machine, addr, line = swcc_setup()
        prog = program(phase("produce", task([(OP_STORE, addr, 7)])))
        assert analyze_on(machine, prog).clean


class TestCOH002MissingInvalidate:
    def _three_phase(self, machine, addr, line, warm_inputs):
        return program(
            phase("warm", task([(OP_LOAD, addr)], inputs=warm_inputs)),
            phase("publish", task([(OP_ATOMIC, addr, 1)])),
            phase("reread", task([(OP_LOAD, addr)], inputs=[line])))

    def test_stale_cached_copy(self):
        machine, addr, line = swcc_setup()
        prog = self._three_phase(machine, addr, line, warm_inputs=[])
        # COH007 reports the same window from the reader's end.
        report = analyze_on(machine, prog, rules=SHARED_RULES)
        assert rule_ids(report) == ["COH002"]
        [diag] = report.diagnostics
        assert diag.phase == 0 and diag.line == line
        assert diag.severity is Severity.ERROR

    def test_invalidate_silences(self):
        machine, addr, line = swcc_setup()
        prog = self._three_phase(machine, addr, line, warm_inputs=[line])
        assert analyze_on(machine, prog).clean

    def test_flushed_store_publisher_also_trips(self):
        machine, addr, line = swcc_setup()
        prog = program(
            phase("warm", task([(OP_LOAD, addr)])),
            phase("publish", task([(OP_STORE, addr, 9)], flushes=[line])),
            phase("reread", task([(OP_LOAD, addr)], inputs=[line])))
        report = analyze_on(machine, prog, rules=SHARED_RULES)
        assert rule_ids(report) == ["COH002"]

    def test_no_rewrite_is_fine(self):
        machine, addr, line = swcc_setup()
        prog = program(
            phase("warm", task([(OP_LOAD, addr)])),
            phase("reread", task([(OP_LOAD, addr)])))
        assert analyze_on(machine, prog).clean

    def test_no_later_read_is_fine(self):
        # Cached copy goes stale but nobody ever cache-reads it again.
        machine, addr, line = swcc_setup()
        prog = program(
            phase("warm", task([(OP_LOAD, addr)])),
            phase("publish", task([(OP_ATOMIC, addr, 1)])))
        assert analyze_on(machine, prog).clean


class TestCOH003IntraPhaseRace:
    def test_store_store_conflict(self):
        machine, addr, line = swcc_setup()
        prog = program(phase(
            "race",
            task([(OP_STORE, addr, 1)], flushes=[line]),
            task([(OP_STORE, addr, 2)], flushes=[line])))
        report = analyze_on(machine, prog)
        assert rule_ids(report) == ["COH003"]
        [diag] = report.diagnostics
        assert diag.severity is Severity.ERROR and diag.line == line

    def test_store_load_conflict(self):
        machine, addr, line = swcc_setup()
        prog = program(phase(
            "race",
            task([(OP_STORE, addr, 1)], flushes=[line]),
            task([(OP_LOAD, addr)])))
        assert rule_ids(analyze_on(machine, prog)) == ["COH003"]

    def test_store_atomic_conflict(self):
        machine, addr, line = swcc_setup()
        prog = program(phase(
            "race",
            task([(OP_STORE, addr, 1)], flushes=[line]),
            task([(OP_ATOMIC, addr, 1)])))
        assert rule_ids(analyze_on(machine, prog)) == ["COH003"]

    def test_disjoint_words_of_one_line_ok(self):
        # Per-word dirty masks merge safely at the L3: tasks may share a
        # line as long as they write disjoint words.
        machine, addr, line = swcc_setup()
        prog = program(phase(
            "split",
            task([(OP_STORE, addr, 1)], flushes=[line]),
            task([(OP_STORE, addr + WORD_BYTES, 2)], flushes=[line])))
        assert analyze_on(machine, prog).clean

    def test_atomic_atomic_ok(self):
        machine, addr, line = swcc_setup()
        prog = program(phase(
            "reduce",
            task([(OP_ATOMIC, addr, 1)]),
            task([(OP_ATOMIC, addr, 1)])))
        assert analyze_on(machine, prog).clean

    def test_load_load_ok(self):
        machine, addr, line = swcc_setup()
        prog = program(phase(
            "readers",
            task([(OP_LOAD, addr)]),
            task([(OP_LOAD, addr)])))
        assert analyze_on(machine, prog).clean

    def test_same_task_not_a_race(self):
        machine, addr, line = swcc_setup()
        prog = program(phase(
            "rmw", task([(OP_LOAD, addr), (OP_STORE, addr, 3)],
                        flushes=[line])))
        assert analyze_on(machine, prog).clean


class TestCOH004DomainMisuse:
    def test_flush_of_hwcc_line_warns(self):
        machine, sw_addr, hw_addr = cohesion_setup()
        prog = program(phase(
            "p", task([(OP_LOAD, hw_addr)], flushes=[line_of(hw_addr)])))
        report = analyze_on(machine, prog)
        assert rule_ids(report) == ["COH004"]
        [diag] = report.diagnostics
        assert diag.severity is Severity.WARNING
        assert diag.line == line_of(hw_addr)

    def test_invalidate_of_hwcc_line_warns(self):
        machine, sw_addr, hw_addr = cohesion_setup()
        prog = program(phase(
            "p", task([(OP_LOAD, hw_addr)], inputs=[line_of(hw_addr)])))
        assert rule_ids(analyze_on(machine, prog)) == ["COH004"]

    def test_sw_line_ops_fine(self):
        machine, sw_addr, hw_addr = cohesion_setup()
        line = line_of(sw_addr)
        prog = program(
            phase("w", task([(OP_STORE, sw_addr, 1)], flushes=[line])),
            phase("r", task([(OP_LOAD, sw_addr)], inputs=[line])))
        assert analyze_on(machine, prog).clean

    def test_coarse_region_is_swcc(self):
        # Globals live in a boot-time coarse SWcc region, so software
        # coherence ops aimed there are legitimate under Cohesion.
        machine, _sw, _hw = cohesion_setup()
        addr = machine.runtime.static_alloc(64)
        line = line_of(addr)
        prog = program(
            phase("w", task([(OP_STORE, addr, 1)], flushes=[line])),
            phase("r", task([(OP_LOAD, addr)], inputs=[line])))
        assert analyze_on(machine, prog).clean

    def test_everything_warns_on_pure_hwcc(self):
        machine = make_machine(Policy.hwcc_ideal(), n_clusters=1)
        addr = machine.api.malloc(64)
        prog = program(phase(
            "p", task([(OP_LOAD, addr)], flushes=[line_of(addr)])))
        assert rule_ids(analyze_on(machine, prog)) == ["COH004"]


class TestCOH005RedundantOp:
    def test_duplicate_flush_warns(self):
        machine, addr, line = swcc_setup()
        prog = program(phase(
            "p", task([(OP_STORE, addr, 7)], flushes=[line, line])))
        report = analyze_on(machine, prog)
        assert rule_ids(report) == ["COH005"]
        [diag] = report.diagnostics
        assert diag.severity is Severity.WARNING and diag.line == line

    def test_duplicate_invalidate_warns(self):
        machine, addr, line = swcc_setup()
        prog = program(phase(
            "p", task([(OP_LOAD, addr)], inputs=[line, line])))
        assert rule_ids(analyze_on(machine, prog)) == ["COH005"]

    def test_inline_wb_plus_flush_list_warns(self):
        machine, addr, line = swcc_setup()
        prog = program(phase(
            "p", task([(OP_STORE, addr, 7), (OP_WB, addr)], flushes=[line])))
        assert rule_ids(analyze_on(machine, prog)) == ["COH005"]

    def test_single_ops_clean(self):
        machine, addr, line = swcc_setup()
        prog = program(phase(
            "p", task([(OP_STORE, addr, 7)], flushes=[line], inputs=[line])))
        assert analyze_on(machine, prog).clean


class TestCOH006AtomicSwcc:
    def test_atomic_to_swcc_line_warns(self):
        machine, sw_addr, hw_addr = cohesion_setup()
        prog = program(phase("reduce", task([(OP_ATOMIC, sw_addr, 1)])))
        report = analyze_on(machine, prog)
        assert rule_ids(report) == ["COH006"]
        [diag] = report.diagnostics
        assert diag.severity is Severity.WARNING
        assert diag.line == line_of(sw_addr)
        assert "malloc" in diag.hint

    def test_atomic_to_hwcc_line_clean(self):
        machine, sw_addr, hw_addr = cohesion_setup()
        prog = program(phase("reduce", task([(OP_ATOMIC, hw_addr, 1)])))
        assert analyze_on(machine, prog).clean

    def test_pure_swcc_machine_exempt(self):
        # The SWcc baseline has no coherent heap to move the data to;
        # its atomics are legitimate by construction.
        machine, addr, line = swcc_setup()
        prog = program(phase("reduce", task([(OP_ATOMIC, addr, 1)])))
        assert analyze_on(machine, prog, rules=["COH006"]).clean

    def test_coarse_region_also_flagged(self):
        # Globals sit in a boot-time coarse SWcc region under Cohesion:
        # an atomic aimed there has the same lost-update hazard.
        machine, _sw, _hw = cohesion_setup()
        addr = machine.runtime.static_alloc(64)
        prog = program(phase("reduce", task([(OP_ATOMIC, addr, 1)])))
        assert rule_ids(analyze_on(machine, prog)) == ["COH006"]


class TestFramework:
    def test_plain_program_frozen_in_memory(self):
        machine, addr, line = swcc_setup()
        prog = program(phase("p", task([(OP_STORE, addr, 7)])))
        report = analyze_on(machine, prog)
        assert report.clean and report.program == "synthetic"
        assert report.rules_run == list(ANALYZE_RULE_IDS)

    def test_rule_selection(self):
        machine, addr, line = swcc_setup()
        prog = program(
            phase("produce", task([(OP_STORE, addr, 7)])),
            phase("consume", task([(OP_LOAD, addr)], inputs=[line, line])))
        full = analyze_on(machine, prog)
        assert rule_ids(full) == ["COH001", "COH005"]
        only = analyze_on(machine, prog, rules=["coh005"])
        assert rule_ids(only) == ["COH005"]
        assert only.rules_run == ["COH005"]

    def test_unknown_rule_rejected(self):
        machine, addr, line = swcc_setup()
        prog = program(phase("p", task([(OP_LOAD, addr)])))
        with pytest.raises(KeyError, match="COH999"):
            analyze_on(machine, prog, rules=["COH999"])

    def test_explicit_domain_model(self):
        # A DomainModel stands in for the layout: pure SWcc needs no
        # region tables at all.
        prog = program(
            phase("produce", task([(OP_STORE, 0x2000_0000, 7)])),
            phase("consume", task([(OP_LOAD, 0x2000_0000)],
                                  inputs=[line_of(0x2000_0000)])))
        domain = DomainModel(PolicyKind.SWCC)
        assert rule_ids(analyze_frozen(prog.freeze(), domain=domain)) == [
            "COH001"]

    def test_report_text_and_json(self):
        machine, addr, line = swcc_setup()
        prog = program(
            phase("produce", task([(OP_STORE, addr, 7)])),
            phase("consume", task([(OP_LOAD, addr)], inputs=[line])))
        report = analyze_on(machine, prog)
        text = report.format()
        assert text.startswith("analyze synthetic [swcc]\n")
        assert "COH001" in text and "1 error(s), 0 warning(s)" in text
        assert "summary: phases=2" in text
        data = json.loads(report.to_json())
        assert data["errors"] == 1 and data["clean"] is False
        assert data["diagnostics"][0]["rule"] == "COH001"
        assert data["diagnostics"][0]["hint"]
        assert data["summary"]["COH001"] == 1
        assert "advice" not in data

    def test_diagnostics_sorted_and_capped(self, monkeypatch):
        monkeypatch.setattr(analyze_rules, "MAX_DIAGNOSTICS_PER_RULE", 3)
        machine, addr, line = swcc_setup()
        phases = [phase("w", task([(OP_STORE, addr + 32 * i, 1)]))
                  for i in range(5)]
        phases.append(phase("r", task(
            [(OP_LOAD, addr + 32 * i) for i in range(5)],
            inputs=[line + i for i in range(5)])))
        prog = program(*phases)
        report = analyze_on(machine, prog)
        assert len(report.by_rule("COH001")) == 3
        assert report.summary["COH001"] == 3
        lines = [d.line for d in report.diagnostics]
        assert lines == sorted(lines)

    def test_diagnostics_ordered_by_line_then_rule(self):
        # Cross-rule determinism: (line address, rule id) is the primary
        # sort, so JSON output is usable as a CI golden file.
        machine, sw_addr, hw_addr = cohesion_setup()
        hw_line = line_of(hw_addr)
        prog = program(phase("p", task(
            [(OP_ATOMIC, sw_addr, 1), (OP_LOAD, hw_addr)],
            flushes=[hw_line, hw_line])))
        report = analyze_on(machine, prog)
        keyed = [(d.line, d.rule) for d in report.diagnostics]
        assert keyed == sorted(keyed)
        # hw line < sw line: COH004/COH005 anchor there and come first,
        # in rule-id order; COH006 anchors on the (higher) SWcc line.
        assert [d.rule for d in report.diagnostics] == \
            ["COH004", "COH005", "COH006"]
        assert json.loads(report.to_json()) == json.loads(report.to_json())


class TestCOH007StaleReadWindow:
    def _window(self, warm_inputs=(), reread_inputs=(LINE,)):
        return program(
            phase("warm", task([(OP_LOAD, ADDR)], inputs=warm_inputs)),
            phase("publish", task([(OP_ATOMIC, ADDR, 1)])),
            phase("reread", task([(OP_LOAD, ADDR)], inputs=reread_inputs)))

    def test_endangered_read_flagged(self):
        report = analyze(self._window(), rules=["COH007"])
        [diag] = report.diagnostics
        assert diag.severity is Severity.ERROR
        # COH007 anchors on the *reader*; COH002 blames the cacher.
        assert diag.phase == 2 and diag.task == 0 and diag.line == LINE
        assert "phase 0 caches" in diag.message
        assert "phase 1 republishes" in diag.message

    def test_invalidated_cacher_silences(self):
        report = analyze(self._window(warm_inputs=[LINE]), rules=["COH007"])
        assert report.clean

    def test_no_republish_no_window(self):
        prog = program(
            phase("warm", task([(OP_LOAD, ADDR)])),
            phase("idle", task([(OP_LOAD, ADDR + 64)])),
            phase("reread", task([(OP_LOAD, ADDR)], inputs=[LINE])))
        assert analyze(prog, rules=["COH007"]).clean

    def test_read_adjacent_to_cache_has_no_window(self):
        # cache < write < read needs three distinct phases.
        prog = program(
            phase("warm", task([(OP_LOAD, ADDR)])),
            phase("publish", task([(OP_ATOMIC, ADDR, 1)])))
        assert analyze(prog, rules=["COH007"]).clean

    def test_store_side_publisher_also_opens_window(self):
        prog = program(
            phase("warm", task([(OP_LOAD, ADDR)])),
            phase("publish", task([(OP_STORE, ADDR, 9)], flushes=[LINE])),
            phase("reread", task([(OP_LOAD, ADDR)], inputs=[LINE])))
        report = analyze(prog, rules=["COH007"])
        assert [d.rule for d in report.diagnostics] == ["COH007"]

    @pytest.mark.parametrize("warm_inputs", [(), (LINE,)])
    def test_dual_of_coh002(self, warm_inputs):
        # A program is COH007-clean exactly when it is COH002-clean: the
        # two rules attribute the same window to its two ends.
        prog = self._window(warm_inputs=warm_inputs)
        coh002_clean = analyze(prog, rules=["COH002"]).clean
        assert analyze(prog, rules=["COH007"]).clean == coh002_clean


class TestCOH008RedundantWriteback:
    def test_flush_without_store_warns(self):
        prog = program(phase("p", task([(OP_LOAD, ADDR)], flushes=[LINE])))
        report = analyze(prog, rules=["COH008"])
        [diag] = report.diagnostics
        assert diag.severity is Severity.WARNING
        assert diag.line == LINE and "never stores" in diag.message
        assert report.summary["redundant_wb_sites"] == 1

    def test_flush_of_untouched_line_warns(self):
        prog = program(phase("p", task([(OP_LOAD, ADDR + 64)],
                                       flushes=[LINE])))
        assert not analyze(prog, rules=["COH008"]).clean

    def test_inline_wb_counts(self):
        prog = program(phase("p", task([(OP_LOAD, ADDR), (OP_WB, ADDR)])))
        assert not analyze(prog, rules=["COH008"]).clean

    def test_stored_line_flush_is_fine(self):
        prog = program(phase("p", task([(OP_STORE, ADDR, 1)],
                                       flushes=[LINE])))
        assert analyze(prog, rules=["COH008"]).clean


class TestCOH009UselessInvalidate:
    def test_invalidate_of_untouched_line_warns(self):
        prog = program(phase("p", task([(OP_LOAD, ADDR + 64)],
                                       inputs=[LINE])))
        report = analyze(prog, rules=["COH009"])
        [diag] = report.diagnostics
        assert diag.severity is Severity.WARNING
        assert diag.line == LINE and "no copy to drop" in diag.message
        assert report.summary["useless_inv_sites"] == 1

    def test_inline_inv_counts(self):
        prog = program(phase("p", task([(OP_LOAD, ADDR + 64),
                                        (OP_INV, ADDR)])))
        assert not analyze(prog, rules=["COH009"]).clean

    @pytest.mark.parametrize("op", [OP_LOAD, OP_STORE])
    def test_touched_line_invalidate_is_fine(self, op):
        ops = [(op, ADDR)] if op == OP_LOAD else [(op, ADDR, 1)]
        prog = program(phase("p", task(ops, inputs=[LINE])))
        assert analyze(prog, rules=["COH009"]).clean

