"""Regenerate ``perfbench/expected.json`` for the default seed.

Run from the root of a checkout::

    python3 perfbench/gen_expected.py

Every cell the benchmark checks is simulated in-process through the
same entry points the workloads use, and its ``RunStats.as_dict()``
digest recorded; ``mc-direvict`` records the exploration's state and
transition counts. Cells of seed-free kernels are simulated on a second
kernel seed as well, and the script stops if the two digests differ,
since the benchmark checks those digests on every seed. Regenerate only
when a change is meant to alter simulated results, and say so in its
description.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]


def _same_digest(label: str, digests: set) -> str:
    if len(digests) != 1:
        raise SystemExit(f"{label}: digest depends on the kernel seed")
    return digests.pop()


def main() -> int:
    from perfbench.common import (BENCH_DIR, DEFAULT_SEED, SEED_FREE_KERNELS,
                                  stats_digest)
    from perfbench.servemix import KERNELS, POLICIES, _spec, expected_key
    from perfbench.simcells import CELLS, run_cell
    from repro.analysis.experiments import run_workload
    from repro.mc import PRESETS, explore
    from repro.serve.wire import decode_cell

    os.environ["REPRO_CACHE"] = "0"
    doc = {"seed": DEFAULT_SEED}
    for workload, cells in CELLS.items():
        doc[workload] = {}
        for cell in cells:
            seeds = ((DEFAULT_SEED, DEFAULT_SEED + 1)
                     if cell.workload in SEED_FREE_KERNELS
                     else (DEFAULT_SEED,))
            doc[workload][cell.label] = _same_digest(cell.label, {
                stats_digest(run_cell(cell, seed)[0].as_dict())
                for seed in seeds})
    serve = {}
    for kernel in KERNELS:
        for policy in POLICIES:
            digests = set()
            for kseed in (1, 2):
                spec = _spec(kernel, policy, kseed)
                cell = decode_cell(spec)
                stats, _machine = run_workload(
                    cell.workload, cell.policy, cell.exp,
                    force_hw_data=cell.force_hw_data,
                    **dict(cell.config_extra))
                digests.add(stats_digest(stats.as_dict()))
            key = expected_key(spec)
            serve[key] = _same_digest(key, digests)
    doc["serve-mix"] = serve
    result = explore(PRESETS["direvict"], reduce=True, jobs=1)
    if result.violations or not result.exhaustive:
        raise SystemExit(f"direvict exploration failed: {result.violations}")
    doc["mc-direvict"] = {"states": result.states,
                          "transitions": result.transitions}
    out = BENCH_DIR / "expected.json"
    with tempfile.NamedTemporaryFile("w", dir=BENCH_DIR, delete=False,
                                     suffix=".tmp") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(fh.name, out)
    entries = sum(len(v) for v in doc.values() if isinstance(v, dict))
    print(f"wrote {out}: {entries} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
