"""Machine-wide protocol invariant checking.

:class:`InvariantChecker` audits a live machine against the global
invariants the memory model promises and returns structured
:class:`Violation` records instead of asserting, so it can run inside
long simulations (subscribed to the machine bus's barrier events by
:func:`attach_barrier_checker`), in notebooks, or in tests. The
invariants:

* **single-writer** -- a hardware-coherent line with dirty words in one
  L2 is MODIFIED at the directory with exactly that owner, and resident
  in no other L2;
* **directory/L2 agreement** -- every coherent resident L2 line has a
  directory entry naming its cluster as a sharer, and every sharer named
  by a directory entry actually holds the line coherently;
* **L1 inclusion** -- every L1-resident line is backed by its cluster's
  L2;
* **domain agreement** -- a resident line's incoherent bit matches the
  domain the region tables resolve for it (Cohesion machines);
* **pure-SWcc purity** -- machines without a directory hold only
  incoherent lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.coherence.directory import DIR_M
from repro.obs.bus import EV_BARRIER, Subscription
from repro.types import PolicyKind


@dataclass(frozen=True)
class Violation:
    """One detected invariant violation."""

    invariant: str
    line: int
    where: str
    detail: str

    def __str__(self) -> str:
        return (f"{self.invariant}: line {self.line:#x} at {self.where} "
                f"-- {self.detail}")


def attach_barrier_checker(machine, raise_on_violation: bool = False
                           ) -> "InvariantChecker":
    """Audit ``machine`` at every barrier of every run while attached.

    Subscribes a fresh :class:`InvariantChecker` to the machine bus's
    barrier events, which the executor emits at the release point, so
    the machine is inspected exactly as the barrier left it. Returns the
    checker; read its ``all_violations`` after the run and call
    :meth:`detach` (idempotent) to stop auditing. With
    ``raise_on_violation`` the first dirty barrier raises instead -- the
    fail-fast mode for tests.
    """
    checker = InvariantChecker(machine)

    def on_barrier(_event) -> None:
        if raise_on_violation:
            checker.assert_ok()
        else:
            checker.check()

    checker._subscription = machine.obs.subscribe(on_barrier, (EV_BARRIER,))
    return checker


class InvariantChecker:
    """Audits a machine; accumulates violations across checks."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self.checks_run = 0
        self.all_violations: List[Violation] = []
        self._subscription: Optional[Subscription] = None

    def detach(self) -> None:
        """Stop the barrier subscription; idempotent."""
        if self._subscription is not None:
            self._subscription.cancel()
            self._subscription = None

    def check(self) -> List[Violation]:
        """Run every invariant; returns this check's violations."""
        violations: List[Violation] = []
        self._check_clusters(violations)
        self._check_directory(violations)
        self.checks_run += 1
        self.all_violations.extend(violations)
        return violations

    def assert_ok(self) -> None:
        """Raise ``AssertionError`` listing any violations found."""
        violations = self.check()
        if violations:
            summary = "\n".join(str(v) for v in violations[:20])
            raise AssertionError(
                f"{len(violations)} protocol invariant violation(s):\n{summary}")

    # -- individual audits ------------------------------------------------------
    def _check_clusters(self, violations: List[Violation]) -> None:
        machine = self.machine
        ms = machine.memsys
        policy = machine.policy
        for cluster in machine.clusters:
            where = f"cluster {cluster.id}"
            for entry in cluster.l2.lines():
                line = entry.line
                if not policy.uses_directory:
                    if not entry.incoherent:
                        violations.append(Violation(
                            "swcc-purity", line, where,
                            "coherent line on a pure-SWcc machine"))
                    continue
                if entry.incoherent:
                    if policy.kind is PolicyKind.COHESION:
                        swcc = (ms.coarse.lookup_line(line)
                                or ms.fine.is_swcc(line))
                        if not swcc:
                            violations.append(Violation(
                                "domain-agreement", line, where,
                                "incoherent bit set on an HWcc-domain line"))
                    continue
                dentry = ms.directory_of(line).get(line)
                if dentry is None:
                    violations.append(Violation(
                        "directory-inclusion", line, where,
                        "coherent resident line has no directory entry"))
                    continue
                if not dentry.sharers & (1 << cluster.id):
                    violations.append(Violation(
                        "directory-inclusion", line, where,
                        "holder missing from the sharer list"))
                if entry.dirty_mask:
                    if dentry.state != DIR_M:
                        violations.append(Violation(
                            "single-writer", line, where,
                            "dirty line not MODIFIED at the directory"))
                    elif dentry.sharers != 1 << cluster.id:
                        violations.append(Violation(
                            "single-writer", line, where,
                            f"dirty line shared by {dentry.sharer_ids()}"))
            for index, l1 in enumerate(list(cluster.l1d) + list(cluster.l1i)):
                for l1_entry in l1.lines():
                    if cluster.l2.peek(l1_entry.line) is None:
                        violations.append(Violation(
                            "l1-inclusion", l1_entry.line,
                            f"{where} l1[{index}]",
                            "L1 line not backed by the L2"))

    def _check_directory(self, violations: List[Violation]) -> None:
        machine = self.machine
        ms = machine.memsys
        if not machine.policy.uses_directory:
            return
        for bank, bank_dir in enumerate(ms.dirs):
            where = f"directory bank {bank}"
            for dentry in bank_dir.entries():
                for cid in dentry.sharer_ids():
                    held = machine.clusters[cid].l2.peek(dentry.line)
                    if held is None:
                        violations.append(Violation(
                            "stale-sharer", dentry.line, where,
                            f"cluster {cid} listed but does not hold the line"))
                    elif held.incoherent:
                        violations.append(Violation(
                            "stale-sharer", dentry.line, where,
                            f"cluster {cid} holds the line incoherently"))
                if dentry.state == DIR_M and dentry.n_sharers != 1:
                    violations.append(Violation(
                        "single-writer", dentry.line, where,
                        f"MODIFIED with {dentry.n_sharers} sharers"))
