#!/usr/bin/env python3
"""Repo-invariant meta-lint: AST checks over the simulator's own source.

The repository relies on two source-level invariants that ordinary tests
can only probe pointwise, because both are about *code shape* rather
than behaviour:

S001  retired with the executor's inlined hit paths it checked; the
      number is not reused.

S002  deterministic measured paths: simulation/analysis code must not
      read wall clocks (``time.time``/``perf_counter``/...) or draw
      from process-global RNGs (``random.random()``, ``np.random.*``)
      -- results must be pure functions of config + seed, which is what
      makes the content-addressed result cache and the mc explorer's
      canonical states sound. Seeded generators (``random.Random(s)``,
      ``np.random.default_rng(s)``) are fine. Host-side tooling that
      legitimately measures wall time (the parallel sweep runner's
      progress meter, the mc explorer's elapsed budget, the CLI, the
      job server) is allowlisted, and the allowlist must not carry
      stale entries: each one must name a file under ``src/repro``
      that reads a wall clock.

S003  footprint-table coverage: every model-checker action kind --
      declared in ``mc/presets.py``'s ``ACTION_KINDS`` or constructed /
      dispatched in ``mc/actions.py`` -- must carry an entry in
      ``mc/footprints.py``'s ``FOOTPRINTS`` table, and the table must
      not carry stale entries for kinds that no longer exist. The
      partial-order reduction derives action independence from these
      declared footprints, so an action kind silently missing from the
      table would make the reduction *unsound* (the runtime also
      fail-fasts, but only on models that use the kind; this catches
      it on every CI run).

S004  retired with the executor it checked; the number is not reused.

S005  retired with the compiled plans it checked; the number is not
      reused.

Run as ``python tools/selfcheck.py`` (CI does); exit 1 on any finding.
"""

from __future__ import annotations

import argparse
import ast
import json
import pathlib
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"

#: Files (relative to src/repro) allowed to read wall clocks: host-side
#: tooling whose own wall time is the measurement, never simulated state.
WALLCLOCK_ALLOWLIST: Set[str] = {
    "analysis/parallel.py",
    "mc/explorer.py",
    "cli.py",
    # The job server is host tooling end to end: job latency, uptime,
    # and drain grace are wall-clock by definition.
    "serve/jobs.py",
    "serve/metrics.py",
    "serve/server.py",
}

_WALLCLOCK_TIME_ATTRS = {"time", "perf_counter", "perf_counter_ns",
                         "process_time", "process_time_ns", "monotonic",
                         "monotonic_ns", "clock", "strftime", "localtime",
                         "gmtime"}
_WALLCLOCK_DATETIME_ATTRS = {"now", "utcnow", "today"}


@dataclass(frozen=True)
class Finding:
    """One meta-lint violation."""

    rule: str
    path: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.rule} {self.path}:{self.line}: {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "message": self.message}


def _attr_chain(node: ast.AST) -> List[str]:
    """``a.b.c`` -> ["a", "b", "c"]; empty when not a pure name chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


def scan_measured_path(source: str, rel: str) -> List[Finding]:
    """S002 findings for one (non-allowlisted) source file."""
    findings: List[Finding] = []
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            bad = [a.name for a in node.names
                   if a.name in _WALLCLOCK_TIME_ATTRS]
            if bad:
                findings.append(Finding(
                    "S002", rel, node.lineno,
                    f"imports wall-clock function(s) {', '.join(bad)} "
                    "from time; measured paths must be deterministic"))
            continue
        if not isinstance(node, ast.Call):
            continue
        chain = _attr_chain(node.func)
        if not chain:
            continue
        if chain[0] == "time" and chain[-1] in _WALLCLOCK_TIME_ATTRS:
            findings.append(Finding(
                "S002", rel, node.lineno,
                f"wall-clock call {'.'.join(chain)}(); simulated results "
                "must be pure functions of config + seed"))
        elif ("datetime" in chain[:-1]
              and chain[-1] in _WALLCLOCK_DATETIME_ATTRS):
            findings.append(Finding(
                "S002", rel, node.lineno,
                f"wall-clock call {'.'.join(chain)}(); simulated results "
                "must be pure functions of config + seed"))
        elif chain[0] == "random" and len(chain) == 2:
            if chain[1] == "Random" and (node.args or node.keywords):
                continue  # seeded instance
            findings.append(Finding(
                "S002", rel, node.lineno,
                f"process-global RNG call {'.'.join(chain)}(); use a "
                "seeded random.Random(seed) instance"))
        elif (len(chain) >= 3 and chain[0] in ("np", "numpy")
              and chain[1] == "random"):
            if chain[2] == "default_rng" and (node.args or node.keywords):
                continue  # seeded generator
            findings.append(Finding(
                "S002", rel, node.lineno,
                f"process-global RNG call {'.'.join(chain)}(); use a "
                "seeded np.random.default_rng(seed)"))
    return findings


def check_measured_paths(src_root: pathlib.Path = SRC_ROOT) -> List[Finding]:
    """S002: no wall clocks / unseeded RNGs outside the allowlist, and
    no allowlist entry that names a missing or clock-free file."""
    findings: List[Finding] = []
    seen: Set[str] = set()
    for path in sorted(src_root.rglob("*.py")):
        rel_to_pkg = path.relative_to(src_root).as_posix()
        rel = str(path.relative_to(src_root.parent.parent))
        found = scan_measured_path(path.read_text(), rel)
        if rel_to_pkg not in WALLCLOCK_ALLOWLIST:
            findings.extend(found)
            continue
        seen.add(rel_to_pkg)
        if not any("wall-clock" in f.message for f in found):
            findings.append(Finding(
                "S002", rel, 1,
                "allowlisted for wall-clock reads but reads no wall "
                "clock (stale allowlist entry?)"))
    for entry in sorted(WALLCLOCK_ALLOWLIST - seen):
        rel = str((src_root / entry).relative_to(src_root.parent.parent))
        findings.append(Finding(
            "S002", rel, 1,
            "allowlisted for wall-clock reads but no such file exists "
            "(stale allowlist entry?)"))
    return findings


def _kind_literals_in_actions(tree: ast.Module) -> Dict[str, int]:
    """Action-kind string literals ``mc/actions.py`` works with.

    Collected from (a) literal arguments to ``Action(...)`` calls,
    (b) ``==``/``!=`` comparisons whose other side is a name or
    attribute ending in ``kind``, (c) ``kind in (...)`` membership
    tests, and (d) container literals assigned to ``*KINDS*`` names.
    Returns kind -> first line number seen.
    """
    kinds: Dict[str, int] = {}

    def note(node: ast.AST) -> None:
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Constant)
                    and isinstance(sub.value, str)
                    and sub.value not in kinds):
                kinds[sub.value] = sub.lineno

    def is_kindish(node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id.lower().endswith("kind")
        if isinstance(node, ast.Attribute):
            return node.attr.lower().endswith("kind")
        return False

    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "Action"):
            for arg in node.args[:1]:  # kind is the first field
                note(arg)
            for kw in node.keywords:
                if kw.arg == "kind":
                    note(kw.value)
        elif isinstance(node, ast.Compare) and len(node.ops) == 1:
            left, right = node.left, node.comparators[0]
            if isinstance(node.ops[0], (ast.Eq, ast.NotEq)):
                if is_kindish(left):
                    note(right)
                elif is_kindish(right):
                    note(left)
            elif isinstance(node.ops[0], (ast.In, ast.NotIn)):
                if is_kindish(left):
                    note(right)
        elif isinstance(node, ast.Assign):
            if any(isinstance(t, ast.Name) and "KIND" in t.id.upper()
                   for t in node.targets):
                note(node.value)
    return kinds


def _tuple_of_strings(node: ast.AST) -> Optional[List[str]]:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        out = []
        for element in node.elts:
            if not (isinstance(element, ast.Constant)
                    and isinstance(element.value, str)):
                return None
            out.append(element.value)
        return out
    return None


def scan_footprint_table(presets_src: str, actions_src: str,
                         footprints_src: str,
                         rel_prefix: str = "src/repro/mc") -> List[Finding]:
    """S003 findings for one (presets, actions, footprints) triple."""
    findings: List[Finding] = []
    rel_presets = f"{rel_prefix}/presets.py"
    rel_actions = f"{rel_prefix}/actions.py"
    rel_footprints = f"{rel_prefix}/footprints.py"

    required: Dict[str, tuple] = {}  # kind -> (rel path, line)
    presets_tree = ast.parse(presets_src)
    action_kinds = None
    for node in presets_tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "ACTION_KINDS"
                for t in node.targets):
            action_kinds = _tuple_of_strings(node.value)
            if action_kinds is not None:
                for kind in action_kinds:
                    required.setdefault(kind, (rel_presets, node.lineno))
    if action_kinds is None:
        findings.append(Finding(
            "S003", rel_presets, 1,
            "ACTION_KINDS tuple-of-strings literal not found; the "
            "footprint-coverage rule cannot anchor the kind set"))

    actions_tree = ast.parse(actions_src)
    for kind, line in _kind_literals_in_actions(actions_tree).items():
        required.setdefault(kind, (rel_actions, line))

    footprints_tree = ast.parse(footprints_src)
    declared: Dict[str, int] = {}
    table_found = False
    for node in footprints_tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if not any(isinstance(t, ast.Name) and t.id == "FOOTPRINTS"
                   for t in targets):
            continue
        if isinstance(node.value, ast.Dict):
            table_found = True
            for key in node.value.keys:
                if (isinstance(key, ast.Constant)
                        and isinstance(key.value, str)):
                    declared[key.value] = key.lineno
    if not table_found:
        findings.append(Finding(
            "S003", rel_footprints, 1,
            "FOOTPRINTS dict literal not found; every action kind must "
            "declare its read/write footprint there"))
        return findings

    for kind in sorted(required):
        if kind not in declared:
            path, line = required[kind]
            findings.append(Finding(
                "S003", path, line,
                f"action kind {kind!r} has no entry in the FOOTPRINTS "
                "table; partial-order reduction would be unsound for "
                "models using it"))
    for kind in sorted(declared):
        if kind not in required:
            findings.append(Finding(
                "S003", rel_footprints, declared[kind],
                f"FOOTPRINTS declares unknown action kind {kind!r} "
                "(stale table entry?)"))
    return findings


def check_footprint_table(src_root: pathlib.Path = SRC_ROOT) -> List[Finding]:
    """S003: every mc action kind carries a declared footprint."""
    mc = src_root / "mc"
    rel_prefix = (mc.relative_to(src_root.parent.parent)).as_posix()
    return scan_footprint_table(
        (mc / "presets.py").read_text(),
        (mc / "actions.py").read_text(),
        (mc / "footprints.py").read_text(),
        rel_prefix=rel_prefix)


def run_all(src_root: pathlib.Path = SRC_ROOT) -> List[Finding]:
    return check_measured_paths(src_root) + check_footprint_table(src_root)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="repo-invariant meta-lint (S002 deterministic "
                    "paths, S003 footprint table)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    args = parser.parse_args(argv)
    findings = run_all()
    if args.json:
        print(json.dumps([f.as_dict() for f in findings], indent=2))
    else:
        for finding in findings:
            print(finding)
        print(f"selfcheck: {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
