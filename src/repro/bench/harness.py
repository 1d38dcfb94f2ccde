"""Bench matrix definition and the measurement harness.

The matrix is *pinned*: every cell fixes its workload, design point,
machine scale and dataset scale explicitly, independent of the REPRO_*
environment, so two ``BENCH_*.json`` files are always comparing the same
simulated work. Wall/CPU time is taken as the **minimum over --reps
repetitions** (the standard way to strip scheduler noise from a
single-threaded measurement); simulated counters (cycles, ops, tasks)
are recorded alongside so a compare can also detect *behavioral* drift,
which no amount of timing noise can explain away.
"""

from __future__ import annotations

import gc
import pathlib
import platform
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.parallel import (Cell, ProgressFn, resolve_jobs,
                                     run_cells)
from repro.errors import SimulationError

#: Bumped whenever the JSON layout changes incompatibly.
BENCH_SCHEMA = 1


@dataclass(frozen=True)
class BenchSpec:
    """One pinned cell of the bench matrix."""

    key: str                  # stable identifier, the compare join key
    workload: str
    policy: str               # repro.cli.policy_from_name() spelling
    n_clusters: int
    scale: float
    track_data: bool = False

    def describe(self) -> str:
        extra = ", track-data" if self.track_data else ""
        return (f"{self.workload} / {self.policy} "
                f"({self.n_clusters} clusters, scale {self.scale:g}{extra})")


#: The pinned matrix. The flagship cell is the 16-cluster kmeans
#: Cohesion point called out by the ROADMAP (one full-scale-ish cell);
#: the rest are small cells covering each protocol kind, a fine-grained
#: kernel (gjk, task-dequeue bound), and the tracked-data machinery.
PINNED_MATRIX: tuple = (
    BenchSpec("kmeans-cohesion-c16", "kmeans", "cohesion", 16, 1.0),
    BenchSpec("kmeans-swcc-c2", "kmeans", "swcc", 2, 0.5),
    BenchSpec("sobel-cohesion-c2", "sobel", "cohesion", 2, 0.5),
    BenchSpec("gjk-hwcc-c2", "gjk", "hwcc-real", 2, 0.5),
    BenchSpec("heat-swcc-c2", "heat", "swcc", 2, 0.5),
    BenchSpec("kmeans-cohesion-c2-track", "kmeans", "cohesion", 2, 0.5,
              track_data=True),
)


def default_baseline_path() -> pathlib.Path:
    """The committed reference: ``<repo>/benchmarks/baseline.json``."""
    return (pathlib.Path(__file__).resolve().parents[3]
            / "benchmarks" / "baseline.json")


def _max_rss_kb() -> int:
    """Peak RSS of the calling process, in kB (0 where unsupported)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - reported in bytes
        rss //= 1024
    return int(rss)


def _spec_cell(spec: BenchSpec, reps: int, use_cache: bool = False) -> Cell:
    """Encode a spec as a picklable parallel Cell for the bench worker."""
    from repro.analysis.experiments import ExperimentConfig
    from repro.cli import policy_from_name

    exp = ExperimentConfig(n_clusters=spec.n_clusters, scale=spec.scale,
                           track_data=spec.track_data)
    return Cell.make(spec.workload, policy_from_name(spec.policy), exp,
                     label=spec.key, _bench_reps=reps,
                     _bench_cache=use_cache)


def _bench_cell(cell: Cell) -> Dict[str, object]:
    """Worker: simulate one cell ``reps`` times, return its measurements.

    Runs with the cyclic GC disabled (collection pauses are measurement
    noise, and one cell's object graph is bounded); ``min`` over the
    repetitions is reported. RSS is the worker process's peak, which is
    per-cell when cells run in a pool and cumulative when run serially
    in one process -- compare RSS between runs of the same ``--jobs``.

    By default the reuse layer is forced OFF for the measured region,
    whatever ``REPRO_CACHE`` says -- wall times must measure the
    simulation, not a disk read. With ``--cache`` the worker instead
    consults the result cache first (a hit times the fetch; a miss
    times the cached-mode simulation and stores the result); the cell's
    ``cache`` field records which happened: ``hit``/``miss``/
    ``bypassed``.
    """
    import os

    from repro.analysis.experiments import run_workload
    from repro.obs import stats_metrics

    extra = dict(cell.config_extra)
    reps = int(extra.pop("_bench_reps", 1))
    use_cache = bool(extra.pop("_bench_cache", False))
    status = "bypassed"
    rcache = bare = None
    if use_cache:
        from repro.analysis.parallel import Cell as _Cell
        from repro.cache.results import ResultCache

        rcache = ResultCache()
        bare = _Cell(cell.workload, cell.policy, cell.exp,
                     cell.force_hw_data, tuple(sorted(extra.items())),
                     cell.label)
    wall = cpu = None
    stats = None
    old_cache = os.environ.get("REPRO_CACHE")
    if not use_cache:
        os.environ["REPRO_CACHE"] = "0"
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _rep in range(reps):
            stats = None  # every rep re-measures from scratch
            wall0 = time.perf_counter()
            cpu0 = time.process_time()
            if rcache is not None:
                stats = rcache.get(bare)
            if stats is None:
                stats, _machine = run_workload(
                    cell.workload, cell.policy, cell.exp,
                    force_hw_data=cell.force_hw_data, **extra)
                if use_cache:
                    status = "miss"
            else:
                status = "hit"
            wall1 = time.perf_counter() - wall0
            cpu1 = time.process_time() - cpu0
            wall = wall1 if wall is None else min(wall, wall1)
            cpu = cpu1 if cpu is None else min(cpu, cpu1)
            gc.collect()
    finally:
        if gc_was_enabled:
            gc.enable()
        if not use_cache:
            if old_cache is None:
                os.environ.pop("REPRO_CACHE", None)
            else:
                os.environ["REPRO_CACHE"] = old_cache
    if status == "miss":
        rcache.put(bare, stats)
    return {
        "static_lint": _static_lint_counts(cell),
        "wall_s": round(wall, 6),
        "cpu_s": round(cpu, 6),
        "cache": status,
        "cycles": stats.cycles,
        "ops": stats.ops_executed,
        "tasks": stats.tasks_executed,
        "ops_per_sec": round(stats.ops_executed / wall) if wall else 0,
        "tasks_per_sec": round(stats.tasks_executed / wall, 1) if wall else 0,
        "max_rss_kb": _max_rss_kb(),
        # Stats-derived (the bus stays disabled during timing, so the
        # measured cell is the same simulation the baseline measured);
        # compare_runs ignores unknown fields, so schema 1 still holds.
        "metrics": stats_metrics(stats),
    }


def _static_lint_counts(cell: Cell) -> Optional[Dict[str, int]]:
    """The cell's static coherence-waste profile from ``repro analyze``.

    Runs *outside* the timed region (the program build is served by the
    artifact cache when enabled) and rides along in the bench document
    so counter drift in redundant WBs / useless INVs (the COH008/COH009
    waste classes) is visible next to the timing it would explain.
    ``compare_runs`` ignores unknown fields, so schema 1 still holds.
    """
    try:
        from repro.analyze import analyze_workload

        report, _frozen, _machine = analyze_workload(
            cell.workload, policy=cell.policy, exp=cell.exp)
    except Exception:  # pragma: no cover - never fail a measurement
        return None
    return {
        "redundant_wb_sites": int(report.summary["redundant_wb_sites"]),
        "useless_inv_sites": int(report.summary["useless_inv_sites"]),
        "errors": len(report.errors),
        "warnings": len(report.warnings),
    }


def run_bench(specs: Optional[Sequence[BenchSpec]] = None, reps: int = 1,
              jobs: Optional[int] = None,
              progress: Optional[ProgressFn] = None,
              use_cache: bool = False) -> Dict[str, object]:
    """Run the matrix and return the full schema-versioned document.

    ``use_cache=False`` (the default) forces the reuse layer off inside
    the measured region so wall times stay honest; ``use_cache=True``
    lets hits be served (and timed) from the result cache, recording
    per-cell statuses and a document-level hit rate so cached and
    uncached runs can never be silently compared.
    """
    specs = list(PINNED_MATRIX if specs is None else specs)
    if not specs:
        raise SimulationError("no cells selected")
    if reps < 1:
        raise SimulationError(f"reps must be >= 1; got {reps}")
    cells = [_spec_cell(spec, reps, use_cache) for spec in specs]
    results = run_cells(cells, jobs=jobs, progress=progress,
                        worker=_bench_cell)
    doc: Dict[str, object] = {
        "schema": BENCH_SCHEMA,
        "tool": "repro bench",
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "jobs": min(resolve_jobs(jobs), len(specs)),
        "reps": reps,
        "cache": bool(use_cache),
        "cells": {},
    }
    if use_cache:
        hits = sum(1 for m in results if m.get("cache") == "hit")
        doc["cache_hit_rate"] = round(hits / len(results), 4)
    cells_out: Dict[str, Dict[str, object]] = doc["cells"]  # type: ignore
    for spec, measured in zip(specs, results):
        entry = {
            "workload": spec.workload,
            "policy": spec.policy,
            "n_clusters": spec.n_clusters,
            "scale": spec.scale,
            "track_data": spec.track_data,
        }
        entry.update(measured)
        cells_out[spec.key] = entry
    return doc


#: Bumped whenever the profile JSON layout changes incompatibly.
PROFILE_SCHEMA = 1


def profile_cells(specs: Sequence[BenchSpec], top: int = 25,
                  progress: Optional[ProgressFn] = None) -> Dict[str, object]:
    """cProfile one repetition of each cell, *outside* any timed region.

    Deliberately separate from :func:`run_bench`: the profiler's
    per-call overhead inflates wall times ~4-5x, so profiled runs are
    never the measured runs. Each cell is simulated once to warm
    imports and lazy compilation, then once under ``cProfile``; the
    top-``top`` functions by exclusive (``tottime``) cost are recorded,
    so "what dominates now?" has a committed per-cell answer instead of
    folklore. Serial and in-process by construction -- profiles from a
    worker pool would interleave.
    """
    import cProfile
    import os
    import pstats

    from repro.analysis.experiments import run_workload

    if top < 1:
        raise SimulationError(f"profile top must be >= 1; got {top}")
    doc: Dict[str, object] = {
        "schema": PROFILE_SCHEMA,
        "tool": "repro bench --profile",
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "top": top,
        "cells": {},
    }
    cells_out: Dict[str, object] = doc["cells"]  # type: ignore
    old_cache = os.environ.get("REPRO_CACHE")
    os.environ["REPRO_CACHE"] = "0"  # profile the simulation, not a disk read
    t0 = time.perf_counter()
    try:
        for i, spec in enumerate(specs):
            if progress is not None:
                progress(i, len(specs), spec.key,
                         time.perf_counter() - t0)
            cell = _spec_cell(spec, 1, False)
            extra = dict(cell.config_extra)
            extra.pop("_bench_reps", None)
            extra.pop("_bench_cache", None)
            run_workload(cell.workload, cell.policy, cell.exp,
                         force_hw_data=cell.force_hw_data, **extra)  # warm
            prof = cProfile.Profile()
            prof.enable()
            run_workload(cell.workload, cell.policy, cell.exp,
                         force_hw_data=cell.force_hw_data, **extra)
            prof.disable()
            stats = pstats.Stats(prof)
            rows = []
            for (filename, lineno, func), row in stats.stats.items():
                cc, nc, tt, ct = row[:4]
                name = os.path.basename(filename)
                rows.append({
                    "func": f"{name}:{lineno}:{func}",
                    "ncalls": int(nc),
                    "tottime_s": round(tt, 6),
                    "cumtime_s": round(ct, 6),
                })
            rows.sort(key=lambda r: (-r["tottime_s"], r["func"]))
            cells_out[spec.key] = {
                "total_s": round(stats.total_tt, 6),
                "functions": rows[:top],
            }
        if progress is not None:
            progress(len(specs), len(specs), "done",
                     time.perf_counter() - t0)
    finally:
        if old_cache is None:
            os.environ.pop("REPRO_CACHE", None)
        else:
            os.environ["REPRO_CACHE"] = old_cache
    return doc


def select_specs(pattern: Optional[str]) -> List[BenchSpec]:
    """Resolve a ``--cells`` filter (comma-separated substrings)."""
    if not pattern:
        return list(PINNED_MATRIX)
    needles = [p.strip() for p in pattern.split(",") if p.strip()]
    chosen = [spec for spec in PINNED_MATRIX
              if any(needle in spec.key for needle in needles)]
    if not chosen:
        raise SimulationError(
            f"no cells match {pattern!r} "
            f"(have: {', '.join(s.key for s in PINNED_MATRIX)})")
    return chosen
