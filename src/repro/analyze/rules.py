"""The analyzer's rule set, COH001..COH010, over the frozen-artifact IR.

======  ======================  ========  ==============================
id      name                    severity  finding
======  ======================  ========  ==============================
COH001  missing-flush           error     SWcc store consumed later,
                                          never flushed
COH002  missing-invalidate      error     phase-variant SWcc line cached
                                          without a barrier invalidate
COH003  intra-phase-race        error     two tasks of one phase conflict
                                          on a word, one a plain store
COH004  domain-misuse           warning   WB/INV aimed at an HWcc line
COH005  redundant-op            warning   duplicate WB/INV within a task
COH006  atomic-swcc             warning   uncached atomic aimed at an
                                          SWcc line under Cohesion
COH007  stale-read-window       error     cached load falls in a
                                          cross-phase stale window left
                                          by an un-invalidated copy
COH008  redundant-writeback     warning   WB of an SWcc line the task
                                          never stores (dynamically a
                                          clean or absent-line WB)
COH009  useless-invalidate      warning   INV of an SWcc line the task
                                          never touches (its core holds
                                          no copy to drop)
COH010  unsafe-transition       error     scheduled ``to_hwcc`` while a
                                          partial-valid or unflushed
                                          copy may still be resident
======  ======================  ========  ==============================

COH007 is the reader-side dual of COH002: COH002 blames the task that
caches without invalidating, COH007 blames each later cached load that
the surviving copy endangers. A program is COH007-clean exactly when it
is COH002-clean, so the two rules never disagree -- they attribute the
same window to its two ends. COH008/COH009 are the static predictors of
the dynamic waste counters (``clean_wb``/``wasted_wb``/``wasted_inv``)
the crossval oracles measure. COH010 only fires when a *transition
schedule* is supplied (the advisor's proposals, or an explicit plan);
plain-program analysis never sees one.

Every rule reports at most :data:`MAX_DIAGNOSTICS_PER_RULE` findings.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, Sequence, Set, Tuple

from repro.analyze.domain import DomainModel
from repro.analyze.ir import FULL_LINE_MASK, AnalysisIR
from repro.analyze.report import Diagnostic, Severity
from repro.mem.address import LINE_SHIFT, WORD_BYTES, WORD_SHIFT, line_of
from repro.types import PolicyKind

#: Findings one rule may report for one program; the rest are dropped.
MAX_DIAGNOSTICS_PER_RULE = 200


@dataclass(frozen=True)
class Transition:
    """One entry of a coherence-domain transition schedule: at the
    barrier closing phase ``phase``, move ``[base, base+size)`` to the
    named domain (``"to_hwcc"`` or ``"to_swcc"``)."""

    phase: int
    action: str
    base: int
    size: int


@dataclass
class AnalyzeContext:
    """Everything an analyzer rule's ``check`` function receives."""

    ir: AnalysisIR
    domain: DomainModel
    schedule: Sequence[Transition] = ()


@dataclass(frozen=True)
class AnalyzeRule:
    """One whole-program check over the frozen-artifact IR."""

    id: str
    name: str
    severity: Severity
    summary: str
    check: object  # Callable[[AnalyzeContext], Iterator[Diagnostic]]


def _capped(check):
    """Stop ``check`` after :data:`MAX_DIAGNOSTICS_PER_RULE` findings."""
    @functools.wraps(check)
    def capped(ctx: AnalyzeContext) -> Iterator[Diagnostic]:
        return itertools.islice(check(ctx), MAX_DIAGNOSTICS_PER_RULE)
    return capped


# -- COH001: missing flushes ----------------------------------------------

def coh001_diagnostic(phase: int, phase_name: str, task: int,
                      line: int) -> Diagnostic:
    """The COH001 finding for one (task, line) site."""
    return Diagnostic(
        rule="COH001", severity=Severity.ERROR,
        phase=phase, phase_name=phase_name, task=task, line=line,
        message=("task stores to SWcc line consumed in a later "
                 "phase but never flushes it; the consumer can "
                 "observe the pre-store value"),
        hint=(f"add line {line:#x} to the task's flush_lines (the "
              "eager task-end writeback of the Task-Centric "
              "Memory Model)"))


@_capped
def check_coh001(ctx: AnalyzeContext) -> Iterator[Diagnostic]:
    """A task's stores to SWcc lines stay as per-word dirty data in its
    cluster's L2 until a WB pushes them to the L3 (Section 2.1). A later
    phase that consumes the line -- by a cached load *or* an uncached
    atomic, both of which observe the L3's version -- can read the
    pre-store value unless the storing task flushes it."""
    ir = ctx.ir
    for s in ir.tasks:
        for line in sorted(s.stores):
            if not ctx.domain.is_swcc(line):
                continue  # hardware keeps HWcc stores coherent
            if line in s.flush_set:
                continue
            if not ir.consumed_after(line, s.phase):
                continue
            yield coh001_diagnostic(s.phase, ir.phase_name(s.phase),
                                    s.task, line)


# -- COH002: missing invalidates ------------------------------------------

def coh002_diagnostic(phase: int, phase_name: str, task: int, line: int,
                      how: str) -> Diagnostic:
    """The COH002 finding for one (task, line) site; ``how`` is
    ``"loads"`` or ``"stores to"``."""
    return Diagnostic(
        rule="COH002", severity=Severity.ERROR,
        phase=phase, phase_name=phase_name, task=task, line=line,
        message=(f"task {how} phase-variant SWcc line without "
                 "listing it in input_lines; the cached copy goes "
                 "stale when a later phase rewrites the line and is "
                 "then re-read"),
        hint=(f"add line {line:#x} to the task's input_lines so the "
              "barrier's lazy invalidation drops the copy"))


@_capped
def check_coh002(ctx: AnalyzeContext) -> Iterator[Diagnostic]:
    """A task that caches an SWcc line (a load, or a store's
    write-allocate) must invalidate it at its barrier whenever a later
    phase publishes a new value that a still-later phase cache-reads.
    Tasks land on any core, so the invalidate must ride with the task
    that created the copy; uncached atomics read at the L3 and are
    immune."""
    ir = ctx.ir
    for s in ir.tasks:
        for line in sorted(s.cached_lines):
            if not ctx.domain.is_swcc(line):
                continue  # the directory invalidates HWcc copies itself
            if line in s.input_set:
                continue
            if not ir.stale_window(line, s.phase):
                continue
            how = "loads" if line in s.loads else "stores to"
            yield coh002_diagnostic(s.phase, ir.phase_name(s.phase),
                                    s.task, line, how)


# -- COH003: intra-phase races --------------------------------------------

def coh003_diagnostic(phase: int, phase_name: str, a: int, b: int,
                      word: int, line: int, kind: str) -> Diagnostic:
    """The COH003 finding for one conflicting task pair on one word;
    ``kind`` is ``"store-store"``/``"store-load"``/``"store-atomic"``."""
    return Diagnostic(
        rule="COH003", severity=Severity.ERROR,
        phase=phase, phase_name=phase_name,
        task=b, line=line,
        message=(f"intra-phase race: tasks {a} and {b} both "
                 f"touch word {word * WORD_BYTES:#x} with at "
                 f"least one "
                 f"non-atomic store ({kind}); no barrier orders "
                 "them"),
        hint=("split the conflicting accesses into separate "
              "phases, or make the update an atomic"))


@_capped
def check_coh003(ctx: AnalyzeContext) -> Iterator[Diagnostic]:
    """Tasks of one phase are unordered, so two of them touching one
    *word* with at least one plain store race. Word granularity is on
    purpose: kernels legitimately share lines (halo rows, disjoint words
    merged by the per-word dirty masks of Section 3.3). Atomic-atomic
    pairs are ordered by the L3 and load-atomic is the reduction
    pattern, so only store-load/store/atomic pairs are flagged."""
    ir = ctx.ir
    by_phase: Dict[int, list] = {}
    for s in ir.tasks:
        by_phase.setdefault(s.phase, []).append(s)

    for p in sorted(by_phase):
        storers: Dict[int, Set[int]] = {}
        others: Dict[int, Set[Tuple[int, str]]] = {}  # loads and atomics
        for s in by_phase[p]:
            t = s.task
            for line in s.stores:
                for word in s.words_of(s.stores, line):
                    storers.setdefault(word, set()).add(t)
            for table, kind in ((s.loads, "load"), (s.atomics, "atomic")):
                for line in table:
                    for word in s.words_of(table, line):
                        others.setdefault(word, set()).add((t, kind))

        reported: Set[Tuple[int, int, int]] = set()  # (line, task, task)
        for word in sorted(storers):
            writers = storers[word]
            conflicts = []
            if len(writers) > 1:
                pair = sorted(writers)[:2]
                conflicts.append((pair[0], pair[1], "store-store"))
            for t, kind in sorted(others.get(word, ())):
                if t not in writers:
                    w = min(writers)
                    conflicts.append((min(w, t), max(w, t), f"store-{kind}"))
            for a, b, kind in conflicts:
                line = word >> (LINE_SHIFT - WORD_SHIFT)
                key = (line, a, b)
                if key in reported:
                    continue
                reported.add(key)
                yield coh003_diagnostic(p, ir.phase_name(p), a, b, word,
                                        line, kind)


# -- COH004: coherence instructions on hardware lines ---------------------

def coh004_diagnostic(phase: int, phase_name: str, task: int, line: int,
                      what: str, field_: str) -> Diagnostic:
    """The COH004 finding for one (task, line) site; ``what``/``field_``
    are ``("flush (WB)", "flush_lines")`` or ``("invalidate (INV)",
    "input_lines")``."""
    return Diagnostic(
        rule="COH004", severity=Severity.WARNING,
        phase=phase, phase_name=phase_name, task=task, line=line,
        message=(f"software {what} targets an HWcc-domain "
                 "line; the directory already keeps it "
                 "coherent, so the instruction is statically "
                 "useless work"),
        hint=(f"drop line {line:#x} from the task's {field_}, "
              "or move the data to the incoherent heap "
              "(coh_malloc) if software management is "
              "intended"))


@_capped
def check_coh004(ctx: AnalyzeContext) -> Iterator[Diagnostic]:
    """A WB or INV only does useful work on an SWcc line; on an HWcc
    line the directory already tracks the copy, so the instruction is
    the statically predictable slice of Figure 3's useless coherence
    operations. On pure HWcc every such instruction is misuse."""
    ir = ctx.ir
    for s in ir.tasks:
        for lines, what, field_ in ((s.flush_set, "flush (WB)",
                                     "flush_lines"),
                                    (s.input_set, "invalidate (INV)",
                                     "input_lines")):
            for line in sorted(lines):
                if ctx.domain.is_swcc(line):
                    continue
                yield coh004_diagnostic(s.phase, ir.phase_name(s.phase),
                                        s.task, line, what, field_)


# -- COH005: duplicate coherence instructions -----------------------------

def coh005_diagnostic(phase: int, phase_name: str, task: int, line: int,
                      count: int, what: str, field_: str) -> Diagnostic:
    """The COH005 finding for one duplicated (task, line) site;
    ``what``/``field_`` are ``("flushes", "flush_lines")`` or
    ``("invalidates", "input_lines")``."""
    return Diagnostic(
        rule="COH005", severity=Severity.WARNING,
        phase=phase, phase_name=phase_name, task=task, line=line,
        message=(f"task {what} line {count} times; every "
                 "repeat after the first is a wasted "
                 "coherence instruction"),
        hint=f"deduplicate the task's {field_}")


@_capped
def check_coh005(ctx: AnalyzeContext) -> Iterator[Diagnostic]:
    """The second WB of a line a task already flushed finds it clean,
    the second INV finds it gone: both are wasted instructions."""
    ir = ctx.ir
    for s in ir.tasks:
        for issued, what, field_ in ((s.flushes, "flushes", "flush_lines"),
                                     (s.invalidates, "invalidates",
                                      "input_lines")):
            for line, count in sorted(Counter(issued).items()):
                if count < 2:
                    continue
                yield coh005_diagnostic(s.phase, ir.phase_name(s.phase),
                                        s.task, line, count, what, field_)


# -- COH006: atomics on software-managed lines ----------------------------

def coh006_diagnostic(phase: int, phase_name: str, task: int,
                      line: int) -> Diagnostic:
    """The COH006 finding for one (task, line) site."""
    return Diagnostic(
        rule="COH006", severity=Severity.WARNING,
        phase=phase, phase_name=phase_name, task=task, line=line,
        message=("uncached atomic targets an SWcc-domain line; "
                 "the RMW at the L3 cannot see (or invalidate) "
                 "write-allocated L2 copies, so it may read a "
                 "stale value and its update can be lost to a "
                 "later flush or dirty eviction"),
        hint=(f"allocate line {line:#x}'s data in the coherent "
              "heap (malloc) or globals, or transition the line "
              "to HWcc before the atomic phase"))


@_capped
def check_coh006(ctx: AnalyzeContext) -> Iterator[Diagnostic]:
    """An SWcc line has no directory entry, so an atomic at the L3
    cannot see write-allocated L2 copies and its update can be lost to
    a later flush. Only Cohesion has an HWcc domain to move the data
    to; the pure-SWcc baseline uses atomics on SWcc data by
    construction."""
    if ctx.domain.kind is not PolicyKind.COHESION:
        return
    ir = ctx.ir
    for s in ir.tasks:
        for line in sorted(s.atomics):
            if not ctx.domain.is_swcc(line):
                continue
            yield coh006_diagnostic(s.phase, ir.phase_name(s.phase),
                                    s.task, line)


# -- COH007: cross-phase stale-read windows -------------------------------

def coh007_diagnostic(phase: int, phase_name: str, task: int, line: int,
                      cache_phase: int, write_phase: int) -> Diagnostic:
    """The COH007 finding for one endangered (reader task, line) site."""
    return Diagnostic(
        rule="COH007", severity=Severity.ERROR,
        phase=phase, phase_name=phase_name, task=task, line=line,
        message=(f"cached load falls in a stale window: a task of phase "
                 f"{cache_phase} caches the line without invalidating "
                 f"and phase {write_phase} republishes it, so the "
                 "scheduler may place this task on a core still holding "
                 "the old value"),
        hint=(f"add line {line:#x} to the input_lines of the phase-"
              f"{cache_phase} task(s) that cache it"))


@_capped
def check_coh007(ctx: AnalyzeContext) -> Iterator[Diagnostic]:
    ir = ctx.ir
    # Phase bitmask, per line, of tasks that cache the line and never
    # list it in input_lines -- the copies that survive their barrier.
    unreleased: Dict[int, int] = {}
    for s in ir.tasks:
        bit = 1 << s.phase
        for line in s.cached_lines:
            if line not in s.input_set:
                unreleased[line] = unreleased.get(line, 0) | bit

    for s in ir.tasks:
        pr = s.phase
        if pr < 2:
            continue  # a window needs cache < write < read
        for line in sorted(s.loads):
            u = unreleased.get(line)
            if not u:
                continue
            if not ctx.domain.is_swcc(line):
                continue
            first_cache = (u & -u).bit_length() - 1
            if first_cache >= pr - 1:
                continue
            writes = (ir.store_mask.get(line, 0)
                      | ir.atomic_mask.get(line, 0))
            # Publications strictly between some unreleased copy and
            # this read: a write phase w qualifies when first_cache < w
            # < pr (any later unreleased copy only narrows the window).
            window = writes & ((1 << pr) - 1) & ~((1 << (first_cache + 1))
                                                  - 1)
            if not window:
                continue
            write_phase = (window & -window).bit_length() - 1
            yield coh007_diagnostic(pr, ir.phase_name(pr), s.task, line,
                                    first_cache, write_phase)


# -- COH008: redundant write-backs ----------------------------------------

def coh008_diagnostic(phase: int, phase_name: str, task: int,
                      line: int) -> Diagnostic:
    """The COH008 finding for one (task, line) site."""
    return Diagnostic(
        rule="COH008", severity=Severity.WARNING,
        phase=phase, phase_name=phase_name, task=task, line=line,
        message=("task writes back an SWcc line it never stores; the WB "
                 "finds a clean copy or no copy at all, so it is a "
                 "wasted coherence instruction"),
        hint=(f"drop line {line:#x} from the task's flush_lines, or "
              "move the WB to the task that actually produces the "
              "data"))


@_capped
def check_coh008(ctx: AnalyzeContext) -> Iterator[Diagnostic]:
    ir = ctx.ir
    for s in ir.tasks:
        for line in sorted(s.flush_set):
            if not ctx.domain.is_swcc(line):
                continue  # COH004's territory: WB of a hardware line
            if line in s.stores:
                continue
            yield coh008_diagnostic(s.phase, ir.phase_name(s.phase),
                                    s.task, line)


# -- COH009: useless invalidates ------------------------------------------

def coh009_diagnostic(phase: int, phase_name: str, task: int,
                      line: int) -> Diagnostic:
    """The COH009 finding for one (task, line) site."""
    return Diagnostic(
        rule="COH009", severity=Severity.WARNING,
        phase=phase, phase_name=phase_name, task=task, line=line,
        message=("task invalidates an SWcc line it never loads or "
                 "stores; its core holds no copy to drop, so the INV is "
                 "a wasted coherence instruction"),
        hint=f"drop line {line:#x} from the task's input_lines")


@_capped
def check_coh009(ctx: AnalyzeContext) -> Iterator[Diagnostic]:
    ir = ctx.ir
    for s in ir.tasks:
        for line in sorted(s.input_set):
            if not ctx.domain.is_swcc(line):
                continue  # COH004's territory: INV of a hardware line
            if line in s.loads or line in s.stores:
                continue
            yield coh009_diagnostic(s.phase, ir.phase_name(s.phase),
                                    s.task, line)


# -- COH010: unsafe domain transitions ------------------------------------

def coh010_diagnostic(phase: int, phase_name: str, task: int, line: int,
                      barrier: int, why: str) -> Diagnostic:
    """The COH010 finding for one possibly-resident copy at a scheduled
    transition; ``why`` is ``"unflushed-dirty"`` or ``"partial-valid"``."""
    return Diagnostic(
        rule="COH010", severity=Severity.ERROR,
        phase=phase, phase_name=phase_name, task=task, line=line,
        message=(f"to_hwcc scheduled at barrier {barrier} is unsafe: "
                 f"this task may leave a {why} copy of the line "
                 "resident, and the directory would start tracking the "
                 "line assuming memory is its owner"),
        hint=(f"flush and invalidate line {line:#x} (flush_lines + "
              "input_lines) in every task that stores it before the "
              "transition, or delay the transition"))


@_capped
def check_coh010(ctx: AnalyzeContext) -> Iterator[Diagnostic]:
    ir = ctx.ir
    for tr in ctx.schedule:
        if tr.action != "to_hwcc":
            continue
        lo = line_of(tr.base)
        hi = line_of(tr.base + tr.size - 1)
        for s in ir.tasks:
            if s.phase > tr.phase:
                continue
            for line in sorted(s.stores):
                if not lo <= line <= hi:
                    continue
                if not ctx.domain.is_swcc(line):
                    continue  # already directory-tracked
                if line not in s.flush_set:
                    why = "unflushed-dirty"
                elif (s.stores[line] != FULL_LINE_MASK
                      and line not in s.loads
                      and line not in s.input_set):
                    # Store-allocated without a full-line fill: the copy
                    # is valid only word-wise, which only the SWcc
                    # per-word dirty masks can express.
                    why = "partial-valid"
                else:
                    continue
                yield coh010_diagnostic(s.phase, ir.phase_name(s.phase),
                                        s.task, line, tr.phase, why)


ANALYZE_RULES: Dict[str, AnalyzeRule] = {rule.id: rule for rule in (
    AnalyzeRule(
        id="COH001", name="missing-flush", severity=Severity.ERROR,
        summary="SWcc store consumed in a later phase but never flushed",
        check=check_coh001),
    AnalyzeRule(
        id="COH002", name="missing-invalidate", severity=Severity.ERROR,
        summary="phase-variant SWcc line cached without a barrier "
                "invalidate",
        check=check_coh002),
    AnalyzeRule(
        id="COH003", name="intra-phase-race", severity=Severity.ERROR,
        summary="two tasks of one phase conflict on a word, one a plain "
                "store",
        check=check_coh003),
    AnalyzeRule(
        id="COH004", name="domain-misuse", severity=Severity.WARNING,
        summary="WB/INV instruction aimed at a hardware-coherent line",
        check=check_coh004),
    AnalyzeRule(
        id="COH005", name="redundant-op", severity=Severity.WARNING,
        summary="duplicate flush/invalidate of one line within a task",
        check=check_coh005),
    AnalyzeRule(
        id="COH006", name="atomic-swcc", severity=Severity.WARNING,
        summary="uncached atomic RMW aimed at a software-managed line",
        check=check_coh006),
    AnalyzeRule(
        id="COH007", name="stale-read-window", severity=Severity.ERROR,
        summary="cached load endangered by an un-invalidated earlier copy",
        check=check_coh007),
    AnalyzeRule(
        id="COH008", name="redundant-writeback", severity=Severity.WARNING,
        summary="WB of an SWcc line the issuing task never stores",
        check=check_coh008),
    AnalyzeRule(
        id="COH009", name="useless-invalidate", severity=Severity.WARNING,
        summary="INV of an SWcc line the issuing task never touches",
        check=check_coh009),
    AnalyzeRule(
        id="COH010", name="unsafe-transition", severity=Severity.ERROR,
        summary="scheduled to_hwcc with a possibly-resident unsound copy",
        check=check_coh010),
)}
ANALYZE_RULE_IDS: Tuple[str, ...] = tuple(ANALYZE_RULES)

__all__ = ["ANALYZE_RULES", "ANALYZE_RULE_IDS", "AnalyzeContext",
           "AnalyzeRule", "MAX_DIAGNOSTICS_PER_RULE", "Transition",
           "check_coh001", "check_coh002", "check_coh003", "check_coh004",
           "check_coh005", "check_coh006", "check_coh007", "check_coh008",
           "check_coh009", "check_coh010"]
