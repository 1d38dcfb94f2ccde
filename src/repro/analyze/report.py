"""Structured analysis findings.

A :class:`Diagnostic` is one finding from one rule: which rule fired, how
severe it is, where in the program it points (phase/task/cache line), and
a concrete fix hint. An :class:`AnalysisReport` aggregates a whole run --
diagnostics, analysis notes and whole-program summary facts -- and
renders either the compiler-style text listing or a JSON document for
tooling.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings are protocol-misuse bugs that can yield stale
    reads or lost updates when simulated; ``WARNING`` findings are
    statically-predicted useless coherence work (the waste Figure 3
    measures); ``NOTE`` records analysis limits, not program defects.
    """

    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one analysis rule."""

    rule: str                      # e.g. "COH001"
    severity: Severity
    message: str
    phase: Optional[int] = None    # phase index within the program
    phase_name: str = ""
    task: Optional[int] = None     # task index within the phase
    line: Optional[int] = None     # cache-line number the finding is about
    hint: str = ""                 # concrete fix suggestion

    def location(self) -> str:
        parts = []
        if self.phase is not None:
            name = f" ({self.phase_name})" if self.phase_name else ""
            parts.append(f"phase {self.phase}{name}")
        if self.task is not None:
            parts.append(f"task {self.task}")
        if self.line is not None:
            parts.append(f"line {self.line:#x}")
        return ", ".join(parts)

    def __str__(self) -> str:
        where = self.location()
        where = f" at {where}" if where else ""
        text = f"{self.rule} {self.severity.value}{where}: {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            "phase": self.phase,
            "phase_name": self.phase_name,
            "task": self.task,
            "line": self.line,
            "hint": self.hint,
        }


def diagnostic_sort_key(diag: "Diagnostic"):
    """Deterministic report order: primarily by line address, then rule
    id, then site, so the JSON output is stable across runs (and across
    rule-internal iteration order) and usable as a CI golden file.
    Diagnostics with no line anchor (line=None) sort first; ties beyond
    the key keep their generation order (sorts are stable)."""
    return (diag.line if diag.line is not None else -1, diag.rule,
            diag.phase if diag.phase is not None else -1,
            diag.task if diag.task is not None else -1)


@dataclass
class AnalysisReport:
    """Everything one analysis run produced for one artifact."""

    program: str
    policy: str = ""
    diagnostics: List[Diagnostic] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    """Analysis-limit annotations (e.g. runtime ``Phase.after`` hooks the
    static domain model cannot see through)."""
    rules_run: List[str] = field(default_factory=list)
    summary: Dict[str, object] = field(default_factory=dict)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def clean(self) -> bool:
        """True when no rule produced any finding."""
        return not self.diagnostics

    def by_rule(self, rule: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.rule == rule]

    def format(self) -> str:
        """Compiler-style text listing."""
        header = f"analyze {self.program}"
        if self.policy:
            header += f" [{self.policy}]"
        lines = [header]
        for diag in self.diagnostics:
            lines.append(str(diag))
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append(f"{len(self.errors)} error(s), "
                     f"{len(self.warnings)} warning(s)")
        if self.summary:
            lines.append("summary: " + ", ".join(
                f"{key}={value}" for key, value in self.summary.items()))
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        return {
            "program": self.program,
            "policy": self.policy,
            "clean": self.clean,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "rules_run": list(self.rules_run),
            "notes": list(self.notes),
            "diagnostics": [d.as_dict() for d in self.diagnostics],
            "summary": dict(self.summary),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)
