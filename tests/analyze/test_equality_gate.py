"""Artifact gate: the report is the same whatever form the program takes.

The analyzer meets a program in two forms: the artifact
``Program.freeze()`` builds for the executor and the cache, and that
artifact written to disk and loaded back with no machine
(``repro analyze --artifact``). Exact agreement -- same rules, same
sites, same messages, same order, same text and JSON -- over every
shipped kernel under every policy, and over seeded corrupted programs
that trip the rules, shows the verdicts depend on the program alone.
"""

import random

import pytest

from repro.analysis.experiments import ExperimentConfig
from repro.analyze import analyze_frozen, analyze_workload
from repro.analyze import rules as analyze_rules
from repro.cache import dump_artifact, load_artifact
from repro.cli import policy_from_name
from repro.runtime.program import Phase, Program, Task
from repro.types import OP_LOAD, OP_STORE, PolicyKind
from repro.workloads import ALL_WORKLOADS

from tests.analyze.conftest import SHARED_RULES, diag_tuples, swcc_domain

EXP = ExperimentConfig(n_clusters=1, scale=0.2)


def _reloaded(frozen, tmp_path):
    path = tmp_path / f"{frozen.name}.pkl"
    dump_artifact(frozen, path)
    return load_artifact(path)


@pytest.mark.parametrize("policy_name", ["swcc", "hwcc-ideal", "cohesion"])
@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_kernel_reports_identical(name, policy_name, tmp_path):
    policy = policy_from_name(policy_name)
    analysis, frozen, _machine = analyze_workload(name, policy=policy,
                                                  exp=EXP)
    offline = analyze_frozen(_reloaded(frozen, tmp_path), kind=policy.kind)
    assert diag_tuples(offline) == diag_tuples(analysis)
    assert offline.format() == analysis.format()
    assert offline.to_json() == analysis.to_json()
    assert analysis.clean
    # The whole-program rules find nothing on disciplined kernels.
    for rule_id in ("COH007", "COH008", "COH009"):
        assert analysis.summary[rule_id] == 0
    assert analysis.summary["ops"] == frozen.total_ops
    assert analysis.notes == []


def _random_program(seed: int) -> Program:
    """A seeded multi-phase SWcc program with injected protocol bugs.

    Starts from the disciplined shape (store -> flush; later read ->
    invalidate) and then corrupts it: dropped flushes (COH001), dropped
    invalidates (COH002/COH007), intra-phase write sharing (COH003),
    duplicated coherence ops (COH005), and flushes/invalidates of
    untouched lines (COH008/COH009).
    """
    rng = random.Random(seed)
    base_line = 0x4000_0000 >> 5
    n_lines = rng.randrange(4, 9)
    phases = []
    for p in range(rng.randrange(2, 5)):
        tasks = []
        for t in range(rng.randrange(1, 4)):
            ops, flush, inputs = [], [], []
            for _ in range(rng.randrange(1, 5)):
                line = base_line + rng.randrange(n_lines)
                addr = (line << 5) + 4 * rng.randrange(8)
                if rng.random() < 0.5:
                    ops.append((OP_STORE, addr, rng.randrange(1000)))
                    if rng.random() < 0.7:
                        flush.append(line)
                else:
                    ops.append((OP_LOAD, addr))
                    if rng.random() < 0.7:
                        inputs.append(line)
            if rng.random() < 0.3:  # wasted ops on an untouched line
                stray = base_line + rng.randrange(n_lines)
                (flush if rng.random() < 0.5 else inputs).append(stray)
            if flush and rng.random() < 0.2:
                flush.append(flush[0])  # duplicate
            tasks.append(Task(ops=ops, flush_lines=flush,
                              input_lines=inputs, stack_words=0))
        phases.append(Phase(name=f"p{p}", tasks=tasks, code_lines=0))
    return Program(name=f"fuzz{seed}", phases=phases)


def _both_forms(prog, tmp_path, **kwargs):
    domain = swcc_domain()
    frozen = prog.freeze()
    return [analyze_frozen(form, kind=PolicyKind.SWCC, domain=domain,
                           **kwargs)
            for form in (frozen, _reloaded(frozen, tmp_path))]


@pytest.mark.parametrize("seed", range(40))
def test_corrupted_programs_report_identical(seed, tmp_path):
    frozen, offline = _both_forms(_random_program(seed), tmp_path)
    assert diag_tuples(frozen) == diag_tuples(offline)
    assert frozen.to_json() == offline.to_json()


def test_truncation_agrees(monkeypatch, tmp_path):
    # Every form cuts at the per-rule cap identically.
    monkeypatch.setattr(analyze_rules, "MAX_DIAGNOSTICS_PER_RULE", 2)
    frozen, offline = _both_forms(_random_program(7), tmp_path,
                                  rules=SHARED_RULES)
    assert diag_tuples(frozen) == diag_tuples(offline)
    per_rule = [d.rule for d in frozen.diagnostics]
    assert max(per_rule.count(rule) for rule in set(per_rule)) == 2
