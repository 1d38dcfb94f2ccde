"""Drive the analyzer over one frozen artifact.

:func:`analyze_frozen` is the core entry point: build the
:class:`~repro.analyze.ir.AnalysisIR` from the artifact's flat op
slices, resolve a boot-time :class:`~repro.analyze.domain.DomainModel`
(from the address layout alone -- no machine), run the requested
COH001..COH010 rules, and return an
:class:`~repro.analyze.report.AnalysisReport` sorted with
:func:`~repro.analyze.report.diagnostic_sort_key`.

:func:`analyze_workload` wraps the pipeline for one named kernel: the
program artifact comes from the two-level experiment cache when
possible (a prior ``repro run``/``repro analyze`` session's frozen
build), otherwise the workload builds once and is frozen on the spot;
either way the *analysis* consumes only the frozen form.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analyze.domain import DomainModel
from repro.analyze.ir import AnalysisIR
from repro.analyze.report import AnalysisReport, diagnostic_sort_key
from repro.analyze.rules import (ANALYZE_RULES, AnalyzeContext, AnalyzeRule,
                                 Transition)
from repro.errors import ScheduleError
from repro.runtime.program import FrozenProgram, Program, freeze_phase
from repro.types import PolicyKind

def ensure_frozen(program) -> FrozenProgram:
    """``program`` as a frozen artifact, freezing a plain Program in
    memory. ``Phase.after`` hooks are kept (``Program.freeze`` refuses
    them, having no on-disk form) so the analysis can note them; the
    result is never meant for disk."""
    if isinstance(program, FrozenProgram):
        return program
    if isinstance(program, Program):
        return FrozenProgram(
            name=program.name,
            phases=[freeze_phase(phase, keep_after=True)
                    for phase in program.phases],
            expected=dict(program.expected))
    raise TypeError(f"cannot analyze {type(program).__name__}")


def analyze_frozen(frozen, kind: PolicyKind = PolicyKind.COHESION,
                   domain: Optional[DomainModel] = None, layout=None,
                   rules: Optional[Iterable[str]] = None,
                   schedule: Sequence[Transition] = ()) -> AnalysisReport:
    """Statically analyze one frozen artifact, machine-free.

    ``domain`` overrides the boot-time model resolved from ``layout``
    (default layout when omitted). ``schedule`` is the transition plan
    COH010 audits; plain analysis passes none and COH010 is vacuous.
    Raises :class:`~repro.errors.ScheduleError` for a schedule entry
    with an unknown action, a non-positive size, or a barrier outside
    the program.
    """
    frozen = ensure_frozen(frozen)
    if domain is None:
        domain = DomainModel.of_layout(kind, layout)
    selected = _select_rules(rules)
    ir = AnalysisIR.of_frozen(frozen)
    _check_schedule(schedule, ir.n_phases)
    ctx = AnalyzeContext(ir=ir, domain=domain, schedule=tuple(schedule))
    report = AnalysisReport(program=frozen.name, policy=domain.kind.value,
                            rules_run=[rule.id for rule in selected])
    per_rule: Dict[str, int] = {}
    for rule in selected:
        produced = list(rule.check(ctx))
        per_rule[rule.id] = len(produced)
        report.diagnostics.extend(produced)
    report.diagnostics.sort(key=diagnostic_sort_key)
    if ir.has_after_hooks and domain.kind is PolicyKind.COHESION:
        report.notes.append(
            "program has Phase.after hooks; if they re-map coherence "
            "domains at runtime the static domain model only reflects the "
            "boot-time region tables")
    summary: Dict[str, object] = {
        "phases": ir.n_phases,
        "tasks": len(ir.tasks),
        "ops": frozen.total_ops,
        "lines": len(set(ir.load_mask) | set(ir.store_mask)
                     | set(ir.atomic_mask)),
    }
    for rule_id, count in per_rule.items():
        summary[rule_id] = count
    summary["redundant_wb_sites"] = per_rule.get("COH008", 0)
    summary["useless_inv_sites"] = per_rule.get("COH009", 0)
    report.summary = summary
    return report


def _check_schedule(schedule: Sequence[Transition], n_phases: int) -> None:
    """Reject a transition COH010 would otherwise skip in silence."""
    for tr in schedule:
        if tr.action not in ("to_hwcc", "to_swcc"):
            raise ScheduleError(f"unknown action {tr.action!r}; expected "
                                "'to_hwcc' or 'to_swcc'")
        if tr.size <= 0:
            raise ScheduleError(
                f"transition size must be positive, got {tr.size}")
        if not 0 <= tr.phase < n_phases:
            raise ScheduleError(
                f"transition phase {tr.phase} is outside the program's "
                f"phases 0..{n_phases - 1}")


def analyze_workload(name: str, policy=None, exp=None,
                     rules: Optional[Iterable[str]] = None,
                     schedule: Sequence[Transition] = (),
                     advise: bool = False
                     ) -> Tuple[AnalysisReport, FrozenProgram, "object"]:
    """Obtain ``name``'s frozen artifact for ``policy`` and analyze it.

    Returns ``(report, frozen, machine)``; the machine is only the
    vehicle that produced the artifact (via the program cache when
    enabled) -- the analysis itself reads nothing from it, resolving
    domains from the address layout instead.
    """
    from repro.analysis.experiments import ExperimentConfig
    from repro.cache.programs import build_program
    from repro.config import Policy
    from repro.sim.machine import Machine
    from repro.workloads import get_workload

    policy = policy or Policy.cohesion()
    exp = exp or ExperimentConfig.from_env()
    machine = Machine(exp.machine_config(), policy)
    workload = get_workload(name, scale=exp.scale, seed=exp.seed)
    program = build_program(name, workload, machine)
    frozen = ensure_frozen(program)
    if not frozen.alloc_log:
        frozen.alloc_log = list(getattr(workload, "_alloc_log", ()))
    report = analyze_frozen(frozen, kind=policy.kind, layout=machine.layout,
                            rules=rules, schedule=schedule)
    if advise:
        from repro.analyze.advisor import advise_program

        report.advice = advise_program(frozen, kind=policy.kind,
                                       layout=machine.layout)
    return report, frozen, machine


def _select_rules(rules: Optional[Iterable[str]]) -> List[AnalyzeRule]:
    if rules is None:
        return list(ANALYZE_RULES.values())
    selected = []
    for rule_id in rules:
        key = rule_id.upper()
        if key not in ANALYZE_RULES:
            known = ", ".join(ANALYZE_RULES)
            raise KeyError(f"unknown analyze rule {rule_id!r}; known: {known}")
        selected.append(ANALYZE_RULES[key])
    return selected
