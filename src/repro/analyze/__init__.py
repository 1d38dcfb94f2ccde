"""Whole-program static coherence analysis over frozen artifacts.

The repository's one static checker for the software-managed half of the
Task-Centric Memory Model. It consumes the *frozen* artifact form
directly -- the flat per-phase op arrays with task bounds that the
executor runs and the experiment cache stores -- and never thaws,
interprets, or simulates anything. From one pass over those slices it
builds barrier-interval bitmask dataflow facts (:mod:`repro.analyze.ir`)
and runs the rules COH001..COH010 (:mod:`repro.analyze.rules`). A plain
:class:`~repro.runtime.program.Program` is frozen in memory first.
:mod:`repro.analyze.crossval` replays a program with every dynamic
oracle attached to confirm a finding.

Entry points: :func:`analyze_frozen` / :func:`analyze_workload` here,
and ``python -m repro analyze`` on the command line.
"""

from repro.analyze.crossval import OracleRun, run_with_oracles, watched_lines
from repro.analyze.domain import DomainModel
from repro.analyze.ir import AnalysisIR, TaskSummary
from repro.analyze.report import (AnalysisReport, Diagnostic, Severity,
                                  diagnostic_sort_key)
from repro.analyze.rules import (ANALYZE_RULE_IDS, ANALYZE_RULES,
                                 AnalyzeContext, AnalyzeRule, Transition)
from repro.analyze.runner import (analyze_frozen, analyze_workload,
                                  ensure_frozen)

__all__ = [
    "ANALYZE_RULES", "ANALYZE_RULE_IDS", "AnalysisIR", "AnalysisReport",
    "AnalyzeContext", "AnalyzeRule", "Diagnostic", "DomainModel",
    "OracleRun", "Severity", "TaskSummary", "Transition", "analyze_frozen",
    "analyze_workload", "diagnostic_sort_key", "ensure_frozen",
    "run_with_oracles", "watched_lines",
]
