"""Dynamic confirmation of static findings.

The analyzer predicts protocol misuse without running the simulator;
this module closes the loop by running a flagged program *with every runtime
oracle attached* and packaging the evidence:

* an :class:`~repro.debug.InvariantChecker` audits the machine at every
  barrier (subscribed to the machine's observability bus, so it fires
  at the release point of every phase);
* a :class:`~repro.debug.LineTracer` records every protocol event on the
  flagged lines -- every executed op emits one -- so a confirmed
  staleness bug comes with the exact store/flush/invalidate
  interleaving that produced it;
* on ``track_data`` machines, checked loads and the end-of-run
  ``verify_expected`` audit catch stale values the moment a core
  observes them;
* the WB/INV efficiency counters quantify the wasted instructions that
  COH004/COH005 predict (the Figure 3 "useless coherence ops").

A COH001/COH002/COH003/COH007 finding is a *true positive* when the
simulated run shows broken data (mismatched loads, failed verification,
or an invariant violation); a COH004/COH005/COH008/COH009 finding is
confirmed by wasted WB/INV work appearing in the counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from repro.debug.checker import Violation, attach_barrier_checker
from repro.debug.trace import LineTracer
from repro.analyze.report import Diagnostic
from repro.runtime.program import Program
from repro.sim.stats import RunStats
from repro.types import MessageType


@dataclass
class OracleRun:
    """Evidence gathered from one fully-instrumented simulation."""

    stats: RunStats
    violations: List[Violation] = field(default_factory=list)
    mismatches: List[Tuple[int, int, int]] = field(default_factory=list)
    """(address, expected, observed) from checked loads plus the final
    ``verify_expected`` audit (track_data machines only)."""
    trace: Optional[LineTracer] = None
    wasted_wb: int = 0
    """WB instructions that found their line already evicted."""
    clean_wb: int = 0
    """WB instructions that found the line resident but with nothing
    dirty to write back (duplicate flushes, flushes of read-only or
    hardware-maintained data)."""
    wasted_inv: int = 0
    """INV instructions that found their line already gone."""

    @property
    def data_broken(self) -> bool:
        """Did any core observe (or leave behind) a stale value?"""
        return bool(self.mismatches)

    @property
    def protocol_broken(self) -> bool:
        """Did the run violate a machine invariant or break data?"""
        return bool(self.violations) or self.data_broken

    def confirms(self, diagnostic: Diagnostic) -> bool:
        """Does this run's evidence bear out ``diagnostic``?

        Correctness rules (COH001/002/003 and COH007, the reader-side
        dual of COH002) are confirmed by broken data or an invariant
        violation; efficiency rules by the matching waste counter:
        redundant write-backs (COH008) surface as WBs that found nothing
        dirty or nothing resident, useless invalidates (COH009) as INVs
        that found the line already gone. COH010 is schedule-only --
        it predicts what a *hypothetical* transition schedule would
        break, so a run of the unmodified program cannot confirm it.
        """
        if diagnostic.rule in ("COH001", "COH002", "COH003", "COH007"):
            return self.protocol_broken
        if diagnostic.rule in ("COH004", "COH005"):
            return (self.wasted_wb > 0 or self.clean_wb > 0
                    or self.wasted_inv > 0)
        if diagnostic.rule == "COH008":
            return self.clean_wb > 0 or self.wasted_wb > 0
        if diagnostic.rule == "COH009":
            return self.wasted_inv > 0
        return False


def run_with_oracles(machine, program: Program,
                     watch: Optional[Iterable[int]] = None,
                     trace: bool = True,
                     max_trace_events: int = 20_000) -> OracleRun:
    """Simulate ``program`` on ``machine`` with every oracle attached.

    ``watch`` is the set of cache lines to trace (typically the lines the
    diagnostics point at; an empty/None set with ``trace=True``
    traces nothing rather than everything -- whole-program traces are for
    interactive debugging, not confirmation runs).
    """
    checker = attach_barrier_checker(program, machine)
    tracer: Optional[LineTracer] = None
    watch_set = set(watch) if watch else set()
    if trace and watch_set:
        tracer = LineTracer(watch=watch_set, max_events=max_trace_events)
        tracer.attach(machine)
    try:
        stats = machine.run(program)
    finally:
        if tracer is not None:
            tracer.detach()
        checker.detach()
    # A final audit after the last barrier (attach_barrier_checker already
    # checked at each intermediate barrier).
    checker.check()
    mismatches = list(stats.load_mismatches)
    if machine.config.track_data and program.expected:
        mismatches.extend(machine.verify_expected(program.expected))
    counters = stats.messages
    flush_messages = stats.message_breakdown()[MessageType.SOFTWARE_FLUSH]
    return OracleRun(
        stats=stats,
        violations=list(checker.all_violations),
        mismatches=mismatches,
        trace=tracer,
        wasted_wb=counters.wb_issued - counters.wb_on_valid,
        clean_wb=counters.wb_on_valid - flush_messages,
        wasted_inv=counters.inv_issued - counters.inv_on_valid,
    )


def watched_lines(diagnostics: Iterable[Diagnostic]) -> List[int]:
    """The distinct cache lines a set of findings points at."""
    return sorted({d.line for d in diagnostics if d.line is not None})
