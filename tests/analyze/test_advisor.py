"""The coherence-mode advisor: schema, safety verdicts, dynamic crossval."""

import pytest

from repro import Machine, Policy
from repro.analysis.experiments import ExperimentConfig
from repro.analyze import (ADVICE_SCHEMA, Transition, advise_program,
                           analyze_frozen, analyze_workload, run_with_oracles)
from repro.mem.address import line_of
from repro.types import OP_ATOMIC, OP_LOAD, OP_STORE, PolicyKind
from repro.workloads import ALL_WORKLOADS, get_workload

from tests.analyze.conftest import cohesion_setup, phase, program, task

EXP = ExperimentConfig(n_clusters=1, scale=0.2, track_data=True)

RECORD_KEYS = {"name", "base", "size", "alloc_kind", "current_domain",
               "recommended_domain", "transition_schedule", "safe",
               "reason", "safety_note", "predicted", "evidence"}


def cohesion_advice(prog, alloc_log):
    frozen = prog.freeze()
    frozen.alloc_log = list(alloc_log)
    return advise_program(frozen, kind=PolicyKind.COHESION)


class TestSchema:
    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_every_kernel_emits_valid_records(self, name):
        report, frozen, _machine = analyze_workload(
            name, policy=Policy.cohesion(), exp=EXP, advise=True)
        advice = report.advice
        assert advice["schema"] == ADVICE_SCHEMA
        assert advice["program"] == frozen.name
        assert advice["policy"] == "cohesion"
        assert len(advice["regions"]) == len(frozen.alloc_log)
        names = [r["name"] for r in advice["regions"]]
        assert len(names) == len(set(names))
        for record in advice["regions"]:
            assert set(record) == RECORD_KEYS
            assert record["current_domain"] in ("swcc", "hwcc")
            assert record["recommended_domain"] in ("swcc", "hwcc")
            assert isinstance(record["safe"], bool)
            # The model never recommends a strictly costlier assignment.
            assert record["predicted"]["message_delta"] >= 0
            for entry in record["transition_schedule"]:
                assert entry["action"] in ("to_swcc", "to_hwcc")
                assert entry["base"] == record["base"]
                assert entry["size"] == record["size"]
            if record["alloc_kind"] == "immutable":
                assert record["recommended_domain"] == "swcc"

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_schedule_feeds_back_to_the_coh010_audit(self, name):
        # Every schedule entry is a barrier inside the program, so the
        # advice round-trips through analyze --schedule.
        report, frozen, _machine = analyze_workload(
            name, policy=Policy.cohesion(), exp=EXP, advise=True)
        schedule = [Transition(**entry)
                    for record in report.advice["regions"]
                    for entry in record["transition_schedule"]]
        analyze_frozen(frozen, kind=PolicyKind.COHESION, schedule=schedule)

    def test_pure_policies_have_no_second_domain(self):
        report, _frozen, _machine = analyze_workload(
            "sobel", policy=Policy.swcc(), exp=EXP, advise=True)
        assert report.advice["regions"] == []

    def test_records_feed_the_adaptive_remapper(self):
        # The advisor's output is directly consumable by the dynamic
        # optimizer's registration call.
        from repro.core.adaptive import AdaptiveRemapper, Domain

        report, _frozen, machine = analyze_workload(
            "stencil", policy=Policy.cohesion(), exp=EXP, advise=True)
        remapper = AdaptiveRemapper(machine)
        for record in report.advice["regions"]:
            region = remapper.register(
                record["name"], record["base"], record["size"],
                Domain(record["recommended_domain"]))
            assert region.base == record["base"]


class TestRecommendations:
    def test_wasteful_swcc_region_flips_to_hwcc(self):
        # One store but five coherence instructions aimed at the region:
        # the directory would service it with two messages.
        machine, sw_addr, _hw = cohesion_setup()
        line = line_of(sw_addr)
        prog = program(phase("w", task(
            [(OP_STORE, sw_addr, 1)], flushes=[line],
            inputs=[line, line + 1, line + 2, line + 3])))
        advice = cohesion_advice(prog, [("sw", 256, sw_addr)])
        [record] = advice["regions"]
        assert record["current_domain"] == "swcc"
        assert record["recommended_domain"] == "hwcc"
        assert record["safe"] is True
        # The flip applies at launch; the schedule holds barriers only.
        assert record["transition_schedule"] == []
        assert record["predicted"]["message_delta"] > 0
        assert "no new findings" in record["safety_note"]

    def test_unsafe_flip_rejected_by_overlay(self):
        # A HWcc region looks free to the SWcc cost model (no WB/INV
        # aimed at it), but moving it would orphan the unflushed store:
        # the overlay re-run raises COH001 and vetoes the flip.
        machine, _sw, hw_addr = cohesion_setup()
        prog = program(
            phase("w", task([(OP_STORE, hw_addr, 7)])),
            phase("r", task([(OP_LOAD, hw_addr)])))
        advice = cohesion_advice(prog, [("hw", 64, hw_addr)])
        [record] = advice["regions"]
        assert record["recommended_domain"] == "swcc"
        assert record["safe"] is False
        assert "COH001" in record["safety_note"]

    def test_atomic_region_flip_rejected_by_overlay(self):
        # kmeans-style reduction buffer: atomics must stay HWcc (COH006).
        machine, _sw, hw_addr = cohesion_setup()
        prog = program(phase("reduce", task([(OP_ATOMIC, hw_addr, 1)])))
        advice = cohesion_advice(prog, [("hw", 64, hw_addr)])
        [record] = advice["regions"]
        assert record["safe"] is False
        assert "COH006" in record["safety_note"]

    def test_read_only_tail_gets_to_swcc_schedule(self):
        # Writes end at phase 0; the read-only remainder is cheaper under
        # software (zero directory traffic, zero WB/INV needed).
        machine, _sw, hw_addr = cohesion_setup()
        line = line_of(hw_addr)
        prog = program(
            phase("w", task([(OP_STORE, hw_addr, 1)],
                            flushes=[line, line, line],
                            inputs=[line, line, line])),
            phase("r1", task([(OP_LOAD, hw_addr)])),
            phase("r2", task([(OP_LOAD, hw_addr)])))
        advice = cohesion_advice(prog, [("hw", 64, hw_addr)])
        [record] = advice["regions"]
        assert record["recommended_domain"] == "hwcc"
        [tail] = record["transition_schedule"]
        assert tail["action"] == "to_swcc" and tail["phase"] == 0
        assert record["safe"] is True
        assert "write-free" in record["safety_note"]
        assert record["evidence"]["last_write_phase"] == 0
        assert record["evidence"]["read_phases_after_last_write"] == [1, 2]


class TestDynamicCrossval:
    def test_safe_flip_runs_clean_under_oracles(self):
        # Apply the advisor's pre-run to_hwcc flip for real (the Table 2
        # region call) and run fully instrumented: the data must still be
        # exact and no invariant may trip.
        machine, sw_addr, _hw = cohesion_setup()
        line = line_of(sw_addr)
        prog = program(
            phase("w", task([(OP_STORE, sw_addr, 7)], flushes=[line],
                            inputs=[line, line + 1, line + 2, line + 3])),
            phase("r", task([(OP_LOAD, sw_addr, 7)], inputs=[line])))
        prog.expected = {sw_addr: 7}
        advice = cohesion_advice(prog, [("sw", 256, sw_addr)])
        [record] = advice["regions"]
        assert record["safe"] is True
        assert record["current_domain"] == "swcc"
        assert record["recommended_domain"] == "hwcc"
        machine.api.coh_HWcc_region(record["base"], record["size"])
        # Mid-run entries apply at their barrier via the phase hook.
        for entry in record["transition_schedule"]:
            assert entry["action"] == "to_swcc"
            prog.phases[entry["phase"]].after = (
                lambda m, e=entry: m.api.coh_SWcc_region(e["base"],
                                                         e["size"]))
        run = run_with_oracles(machine, prog, watch=[line])
        assert not run.protocol_broken

    def test_kernel_safe_flips_run_clean(self):
        # The acceptance gate: every safe pre-run recommendation the
        # advisor makes for a shipped kernel must survive a fully
        # instrumented run with the flip actually applied.
        policy = Policy.cohesion()
        report, _frozen, _machine = analyze_workload(
            "kmeans", policy=policy, exp=EXP, advise=True)
        machine = Machine(EXP.machine_config(), policy)
        workload = get_workload("kmeans", scale=EXP.scale, seed=EXP.seed)
        prog = workload.build(machine)
        applied = 0
        for record in report.advice["regions"]:
            if (not record["safe"]
                    or record["recommended_domain"] == record["current_domain"]):
                continue
            convert = (machine.api.coh_HWcc_region
                       if record["recommended_domain"] == "hwcc"
                       else machine.api.coh_SWcc_region)
            convert(record["base"], record["size"])
            applied += 1
        run = run_with_oracles(machine, prog, trace=False)
        assert not run.protocol_broken
        # kmeans' unsafe hw->swcc temptations were vetoed, never applied.
        unsafe = [r for r in report.advice["regions"] if not r["safe"]]
        assert unsafe and applied == 0
