#!/usr/bin/env python3
"""Repo-invariant meta-lint: AST checks over the simulator's own source.

The repository relies on one source-level invariant that ordinary
tests can only probe pointwise, because it is about *code shape* rather
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

S003  retired with the model checker's per-kind footprint table it
      checked; the number is not reused. An action kind the footprints
      do not name now gets the widest footprint, so it needs no rule.

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


def run_all(src_root: pathlib.Path = SRC_ROOT) -> List[Finding]:
    return check_measured_paths(src_root)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="repo-invariant meta-lint (S002 deterministic "
                    "paths)")
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
