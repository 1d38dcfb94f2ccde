"""Builders for tiny hand-made BSP programs (no kernel framework)."""

from repro import Policy
from repro.analyze import DomainModel, analyze_frozen
from repro.mem.address import line_of
from repro.runtime.program import Phase, Program, Task
from repro.types import PolicyKind

from tests.conftest import make_machine

SHARED_RULES = ["COH001", "COH002", "COH003", "COH004", "COH005", "COH006"]


def task(ops, flushes=(), inputs=()):
    """A bare task: no private stack, explicit coherence metadata."""
    return Task(ops=list(ops), flush_lines=list(flushes),
                input_lines=list(inputs), stack_words=0)


def phase(name, *tasks, after=None):
    """A phase with no kernel-code footprint (nothing to ifetch)."""
    return Phase(name=name, tasks=list(tasks), code_lines=0, after=after)


def program(*phases, name="synthetic"):
    return Program(name=name, phases=list(phases))


def rule_ids(report):
    """The distinct rule ids a report tripped, sorted."""
    return sorted({d.rule for d in report.diagnostics})


def analyze_on(machine, prog, rules=None):
    """Analyze ``prog`` against the domains ``machine`` boots with."""
    return analyze_frozen(prog, kind=machine.policy.kind,
                          layout=machine.layout, rules=rules)


def swcc_setup(n_clusters=1, value=None):
    """A pure-SWcc machine plus one incoherent-heap line.

    Returns ``(machine, word_addr, cache_line)``; when ``value`` is given
    the backing store is seeded so checked loads have a ground truth.
    """
    machine = make_machine(Policy.swcc(), n_clusters=n_clusters)
    addr = machine.api.coh_malloc(64)
    if value is not None:
        machine.memsys.backing.write_word_addr(addr, value)
    return machine, addr, line_of(addr)


def cohesion_setup(n_clusters=1):
    """A Cohesion machine plus one SWcc and one HWcc heap line."""
    machine = make_machine(Policy.cohesion(), n_clusters=n_clusters)
    sw_addr = machine.api.coh_malloc(64)
    hw_addr = machine.api.malloc(64)
    return machine, sw_addr, hw_addr


def swcc_domain() -> DomainModel:
    """Pure SWcc: every line is software-managed, no tables needed."""
    return DomainModel(PolicyKind.SWCC)


def diag_tuples(report):
    """Every finding of an analysis report as comparable tuples."""
    return [(d.rule, d.severity, d.phase, d.task, d.line, d.message, d.hint)
            for d in report.diagnostics]
