"""Protocol invariant checker."""

import pytest

from repro import Policy, get_workload
from repro.debug import InvariantChecker
from repro.mem.address import FULL_WORD_MASK

from tests.conftest import make_machine

HEAP = 0x2000_0000
INC = 0x4000_0000


class TestCleanMachines:
    @pytest.mark.parametrize("label", ["swcc", "hwcc", "cohesion"])
    def test_fresh_machine_clean(self, label):
        policy = {"swcc": Policy.swcc(), "hwcc": Policy.hwcc_ideal(),
                  "cohesion": Policy.cohesion()}[label]
        machine = make_machine(policy)
        assert InvariantChecker(machine).check() == []

    def test_after_real_run_clean(self):
        machine = make_machine(Policy.cohesion())
        program = get_workload("kmeans", scale=0.12).build(machine)
        machine.run(program)
        checker = InvariantChecker(machine)
        assert checker.check() == []
        assert checker.checks_run == 1

    def test_after_mixed_traffic_clean(self):
        machine = make_machine(Policy.hwcc_ideal())
        t = 0.0
        for i in range(32):
            t = machine.clusters[i % 2].store(0, HEAP + 32 * i, i, t)
            t, _ = machine.clusters[(i + 1) % 2].load(0, HEAP + 32 * i, t)
        assert InvariantChecker(machine).check() == []


class TestDetection:
    def test_untracked_coherent_line(self):
        machine = make_machine(Policy.hwcc_ideal())
        machine.clusters[0].l2.allocate(HEAP >> 5)  # injected corruption
        violations = InvariantChecker(machine).check()
        assert any(v.invariant == "directory-inclusion" for v in violations)

    def test_multi_writer_detected(self):
        machine = make_machine(Policy.hwcc_ideal())
        machine.clusters[0].store(0, HEAP, 1, 0.0)
        # corrupt: copy the dirty line into the other cluster's L2
        entry, _ = machine.clusters[1].l2.allocate(
            HEAP >> 5, FULL_WORD_MASK, dirty_mask=0b1)
        violations = InvariantChecker(machine).check()
        kinds = {v.invariant for v in violations}
        assert "single-writer" in kinds or "directory-inclusion" in kinds

    def test_stale_sharer_detected(self):
        machine = make_machine(Policy.hwcc_ideal())
        machine.clusters[0].load(0, HEAP, 0.0)
        machine.clusters[0].l2.remove(HEAP >> 5)  # silent eviction bug
        violations = InvariantChecker(machine).check()
        assert any(v.invariant == "stale-sharer" for v in violations)

    def test_l1_inclusion_violation(self):
        machine = make_machine(Policy.swcc())
        machine.clusters[0].load(0, INC, 0.0)
        machine.clusters[0].l2.remove(INC >> 5)  # L2 dropped, L1 kept
        violations = InvariantChecker(machine).check()
        assert any(v.invariant == "l1-inclusion" for v in violations)

    def test_dirty_but_not_modified(self):
        machine = make_machine(Policy.hwcc_ideal())
        machine.clusters[0].load(0, HEAP, 0.0)     # directory: SHARED
        entry = machine.clusters[0].l2.peek(HEAP >> 5)
        entry.dirty_mask = 0b1                     # dirtied behind its back
        violations = InvariantChecker(machine).check()
        assert any(v.invariant == "single-writer"
                   and "not MODIFIED" in v.detail for v in violations)

    def test_modified_with_extra_sharer(self):
        machine = make_machine(Policy.hwcc_ideal())
        machine.clusters[0].store(0, HEAP, 1, 0.0)  # directory: MODIFIED
        dentry = machine.memsys.directory_of(HEAP >> 5).get(HEAP >> 5)
        dentry.sharers |= 1 << 1                   # phantom second sharer
        violations = InvariantChecker(machine).check()
        kinds = {v.invariant for v in violations}
        assert "single-writer" in kinds and "stale-sharer" in kinds

    def test_incoherent_holder_of_tracked_line(self):
        machine = make_machine(Policy.cohesion())
        machine.clusters[0].load(0, HEAP, 0.0)     # coherent heap line
        entry = machine.clusters[0].l2.peek(HEAP >> 5)
        entry.incoherent = True                    # domain bit corrupted
        violations = InvariantChecker(machine).check()
        kinds = {v.invariant for v in violations}
        assert "stale-sharer" in kinds and "domain-agreement" in kinds

    def test_l1_orphan_after_l2_corruption(self):
        machine = make_machine(Policy.cohesion())
        machine.clusters[0].load(0, HEAP, 0.0)
        machine.clusters[1].load(0, HEAP, 0.0)
        machine.clusters[1].l2.remove(HEAP >> 5)   # drop L2, keep L1
        violations = InvariantChecker(machine).check()
        kinds = {v.invariant for v in violations}
        assert "l1-inclusion" in kinds and "stale-sharer" in kinds

    def test_swcc_purity(self):
        machine = make_machine(Policy.swcc())
        entry, _ = machine.clusters[0].l2.allocate(HEAP >> 5)
        entry.incoherent = False  # impossible on a pure SWcc machine
        violations = InvariantChecker(machine).check()
        assert any(v.invariant == "swcc-purity" for v in violations)

    def test_domain_agreement(self):
        machine = make_machine(Policy.cohesion())
        entry, _ = machine.clusters[0].l2.allocate(HEAP >> 5,
                                                   incoherent=True)
        violations = InvariantChecker(machine).check()
        assert any(v.invariant == "domain-agreement" for v in violations)


class TestReporting:
    def test_assert_ok_raises_with_summary(self):
        machine = make_machine(Policy.hwcc_ideal())
        machine.clusters[0].l2.allocate(HEAP >> 5)
        checker = InvariantChecker(machine)
        with pytest.raises(AssertionError, match="directory-inclusion"):
            checker.assert_ok()

    def test_violations_accumulate(self):
        machine = make_machine(Policy.hwcc_ideal())
        machine.clusters[0].l2.allocate(HEAP >> 5)
        checker = InvariantChecker(machine)
        checker.check()
        checker.check()
        assert checker.checks_run == 2
        assert len(checker.all_violations) >= 2

    def test_attached_checker_audits_each_barrier(self):
        from repro.debug import attach_barrier_checker
        from repro.runtime.program import Phase, Program, Task
        from repro.types import OP_LOAD

        machine = make_machine(Policy.cohesion())
        checker = attach_barrier_checker(machine, raise_on_violation=True)
        program = Program("p", [
            Phase(name, [Task(ops=[(OP_LOAD, HEAP)], stack_words=0)],
                  code_lines=0) for name in ("x", "y")])
        machine.run(program)  # does not raise
        assert checker.checks_run == 2
        checker.detach()
        machine.run(program)
        assert checker.checks_run == 2

    def test_violation_str(self):
        from repro.debug.checker import Violation
        text = str(Violation("single-writer", 0x40, "cluster 1", "oops"))
        assert "single-writer" in text and "0x40" in text
