"""The coherence-mode advisor: per-region domain recommendations.

Section 4.2 of the paper closes by observing that further message
reductions are available "by applying further, albeit more complicated,
optimization strategies using Cohesion". The dynamic half of that idea
already exists as :mod:`repro.core.adaptive`; this module is the static
half: from one frozen artifact alone, recommend a coherence domain (and
optional mid-run transition schedule) for every allocation the program
made, with a predicted message saving and a machine-checked safety
verdict.

Regions come straight from the artifact's allocation log, so every
recommendation names a concrete ``(base, size)`` range the runtime can
act on -- the emitted records are directly consumable by
:meth:`repro.core.adaptive.AdaptiveRemapper.register` (``name``,
``base``, ``size``, recommended domain) or by ``coh_SWcc_region`` /
``coh_HWcc_region`` calls before launch.

The static cost model is deliberately simple and deterministic (no
simulation): a region's *SWcc cost* is the software coherence
instructions aimed at it (WB + INV, counted with duplicates -- exactly
the Figure 3 overhead class), its *HWcc cost* is a lower-bound proxy
for directory traffic -- one message per (task, line) read touch and
two per write touch (miss plus upgrade/release). Uncached atomics cost
the same L3 RMW under either domain and are excluded from both sides.

Safety is not a heuristic: each whole-run recommendation is re-checked
by running the analyzer's staleness/race rules (COH001, COH002, COH003,
COH007, plus the lost-update rule COH006) under a *hypothetical domain
overlay* that moves the region. A recommendation is ``safe`` only when
the overlay run surfaces no finding that the unmodified program didn't already
have. Mid-run ``to_swcc`` schedules are only proposed for regions that
are write-free after the transition barrier, which makes them safe by
construction (the Figure 7a transition flushes directory copies, and a
write-free SWcc tail has no stale windows).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analyze.domain import DomainModel
from repro.analyze.ir import AnalysisIR
from repro.analyze.rules import (AnalyzeContext, check_coh001, check_coh002,
                                 check_coh003, check_coh006, check_coh007)
from repro.mem.address import line_of
from repro.types import PolicyKind

#: Bumped whenever the advisor payload layout changes incompatibly.
ADVICE_SCHEMA = 2

#: The rules a hypothetical domain flip must not newly trigger.
_SAFETY_CHECKS = (check_coh001, check_coh002, check_coh003, check_coh006,
                  check_coh007)


class _OverlayDomain(DomainModel):
    """A :class:`DomainModel` with hypothetical per-range overrides."""

    def __init__(self, base: DomainModel,
                 ranges: List[Tuple[int, int, bool]]) -> None:
        DomainModel.__init__(self, base.kind, coarse=base._coarse,
                             fine=base._fine)
        self._base = base
        self._ranges = ranges  # (first_line, last_line, is_swcc)

    def is_swcc(self, line: int) -> bool:
        for lo, hi, swcc in self._ranges:
            if lo <= line <= hi:
                return swcc
        return self._base.is_swcc(line)


def _finding_keys(ctx: AnalyzeContext) -> Set[Tuple]:
    """Site keys of every safety-relevant finding under ``ctx``."""
    keys = set()
    for check in _SAFETY_CHECKS:
        for diag in check(ctx):
            keys.add((diag.rule, diag.phase, diag.task, diag.line))
    return keys


def advise_program(frozen, kind: PolicyKind = PolicyKind.COHESION,
                   layout=None, domain: Optional[DomainModel] = None,
                   ir: Optional[AnalysisIR] = None) -> Dict[str, object]:
    """Recommend a coherence domain for every allocated region.

    Returns the schema-2 advice document (see ``docs/analysis.md``).
    Only meaningful under the Cohesion policy -- the pure policies have
    no second domain to move data to; they get an empty region list.
    """
    if domain is None:
        domain = DomainModel.of_layout(kind, layout)
    if ir is None:
        ir = AnalysisIR.of_frozen(frozen)
    document: Dict[str, object] = {
        "schema": ADVICE_SCHEMA,
        "program": frozen.name,
        "policy": kind.value,
        "regions": [],
    }
    if kind is not PolicyKind.COHESION:
        return document
    base_keys = _finding_keys(AnalyzeContext(ir=ir, domain=domain))
    for i, (alloc_kind, size, base) in enumerate(frozen.alloc_log):
        record = _advise_region(
            name=f"alloc{i:03d}_{alloc_kind}", alloc_kind=alloc_kind,
            base=base, size=size, ir=ir, domain=domain,
            base_keys=base_keys)
        document["regions"].append(record)
    return document


def _advise_region(name: str, alloc_kind: str, base: int, size: int,
                   ir: AnalysisIR, domain: DomainModel,
                   base_keys: Set[Tuple]) -> Dict[str, object]:
    lo = line_of(base)
    hi = line_of(base + size - 1)

    load_touches = store_touches = atomic_touches = 0
    wb_instructions = inv_instructions = 0
    storers_per_line: Dict[int, Set[int]] = {}
    last_write_phase = -1
    read_phases_after: Set[int] = set()
    lines_touched: Set[int] = set()
    for s in ir.tasks:
        for line in s.loads:
            if lo <= line <= hi:
                load_touches += 1
                lines_touched.add(line)
        for line in s.stores:
            if lo <= line <= hi:
                store_touches += 1
                lines_touched.add(line)
                storers_per_line.setdefault(line, set()).add(
                    (s.phase, s.task))
                last_write_phase = max(last_write_phase, s.phase)
        for line in s.atomics:
            if lo <= line <= hi:
                atomic_touches += 1
                lines_touched.add(line)
                last_write_phase = max(last_write_phase, s.phase)
        wb_instructions += sum(1 for line in s.flushes if lo <= line <= hi)
        inv_instructions += sum(1 for line in s.invalidates
                                if lo <= line <= hi)
    for s in ir.tasks:
        if s.phase > last_write_phase and any(
                lo <= line <= hi for line in s.loads):
            read_phases_after.add(s.phase)
    write_shared_lines = sum(1 for sharers in storers_per_line.values()
                             if len(sharers) > 1)

    current = "hwcc" if alloc_kind == "hw" else "swcc"
    swcc_cost = wb_instructions + inv_instructions
    hwcc_cost = load_touches + 2 * store_touches
    flippable = alloc_kind != "immutable"  # coarse globals stay SWcc
    if not flippable:
        recommended = "swcc"
    else:
        recommended = "swcc" if swcc_cost <= hwcc_cost else "hwcc"

    schedule: List[Dict[str, object]] = []
    reason_parts: List[str] = []
    if recommended != current:
        # A whole-run flip is applied at launch; recommended_domain
        # states it, so the schedule holds only barrier transitions.
        reason_parts.append(
            f"static cost model prefers {recommended} "
            f"(swcc={swcc_cost} coherence instructions vs "
            f"hwcc={hwcc_cost} directory messages)")
    if (recommended == "hwcc" and read_phases_after
            and last_write_phase >= 0):
        # Write-free tail: hand the read-only remainder to software
        # (zero directory traffic, zero WB/INV needed) -- the static
        # twin of AdaptiveRemapper's read-shared migration rule.
        schedule.append({"phase": last_write_phase,
                         "action": "to_swcc",
                         "base": base, "size": size})
        reason_parts.append(
            f"write-free after phase {last_write_phase}; the read-only "
            f"tail ({len(read_phases_after)} phase(s)) is cheaper SWcc")
    if not reason_parts:
        reason_parts.append(f"keep {current}: no cheaper safe assignment "
                            "found by the static model")

    safe, safety_note = _safety(ir, domain, lo, hi, current, recommended,
                                schedule, base_keys)
    predicted = {
        "swcc_messages": swcc_cost,
        "hwcc_messages": hwcc_cost,
        "message_delta": ((swcc_cost if current == "swcc" else hwcc_cost)
                          - (swcc_cost if recommended == "swcc"
                             else hwcc_cost)),
    }
    return {
        "name": name,
        "base": base,
        "size": size,
        "alloc_kind": alloc_kind,
        "current_domain": current,
        "recommended_domain": recommended,
        "transition_schedule": schedule,
        "safe": safe,
        "reason": "; ".join(reason_parts),
        "safety_note": safety_note,
        "predicted": predicted,
        "evidence": {
            "lines_touched": len(lines_touched),
            "load_touches": load_touches,
            "store_touches": store_touches,
            "atomic_touches": atomic_touches,
            "wb_instructions": wb_instructions,
            "inv_instructions": inv_instructions,
            "write_shared_lines": write_shared_lines,
            "last_write_phase": last_write_phase,
            "read_phases_after_last_write": sorted(read_phases_after),
        },
    }


def _safety(ir: AnalysisIR, domain: DomainModel, lo: int, hi: int,
            current: str, recommended: str,
            schedule: List[Dict[str, object]],
            base_keys: Set[Tuple]) -> Tuple[bool, str]:
    """Machine-check one region's recommendation.

    Whole-run flips re-run the staleness/race/lost-update rules under
    the overlay; mid-run ``to_swcc`` tails are safe by their write-free
    trigger.
    """
    notes: List[str] = []
    if recommended != current:
        overlay = _OverlayDomain(domain, [(lo, hi, recommended == "swcc")])
        new = _finding_keys(AnalyzeContext(ir=ir, domain=overlay)) - base_keys
        if new:
            rules = sorted({key[0] for key in new})
            return False, (f"hypothetical {recommended} overlay raises "
                           f"{len(new)} new finding(s): {', '.join(rules)}")
        notes.append(f"{recommended} overlay raises no new findings")
    if schedule:
        notes.append("to_swcc tail is write-free by construction")
    return True, "; ".join(notes) if notes else "no domain change proposed"
