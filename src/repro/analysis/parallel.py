"""Parallel execution of independent experiment cells.

Every ``run_*`` driver in :mod:`repro.analysis.experiments` is a sweep
over independent *cells* -- one ``(workload, policy, machine-config)``
point that builds a fresh :class:`~repro.sim.machine.Machine`, runs one
program, and keeps only the resulting :class:`~repro.sim.stats.RunStats`.
Cells share no mutable state, so they are embarrassingly parallel; this
module fans them across a :class:`~repro.pool.WorkerPool` while keeping
the *merge* deterministic: results come back in cell order, so a
parallel sweep is bit-identical to the serial one. The job count and
what happens when a worker dies are the pool's (see :mod:`repro.pool`).

Worker failures are not swallowed: the first failing cell's original
exception is re-raised in the parent (with the cell named in a note on
stderr), exactly as the serial loop would have raised it.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.pool import WorkerPool, resolve_jobs
from repro.sim.stats import RunStats

#: Signature of a progress callback: (cells done, total cells, label of
#: the cell that just finished, elapsed seconds).
ProgressFn = Callable[[int, int, str, float], None]


@dataclass(frozen=True)
class Cell:
    """One independent simulation point of a sweep.

    Carries exactly the picklable arguments of
    :func:`repro.analysis.experiments.run_workload`; the worker rebuilds
    the machine from these and returns only the stats (machines do not
    cross process boundaries).
    """

    workload: str
    policy: object                    # repro.config.Policy
    exp: object                       # ExperimentConfig
    force_hw_data: bool = False
    config_extra: Tuple[Tuple[str, object], ...] = ()
    label: str = ""

    @staticmethod
    def make(workload: str, policy, exp, force_hw_data: bool = False,
             label: str = "", **config_extra) -> "Cell":
        return Cell(workload, policy, exp, force_hw_data,
                    tuple(sorted(config_extra.items())),
                    label or workload)


def _run_cell(cell: Cell) -> RunStats:
    """Worker entry point: simulate one cell, return its stats."""
    from repro.analysis.experiments import run_workload

    stats, _machine = run_workload(cell.workload, cell.policy, cell.exp,
                                   force_hw_data=cell.force_hw_data,
                                   **dict(cell.config_extra))
    return stats


def stderr_progress(prefix: str) -> ProgressFn:
    """A :data:`ProgressFn` that keeps long sweeps observably alive.

    Prints ``<prefix>: cell i/N (<label>) elapsed 12.3s ETA 45.6s`` to
    stderr after every completed cell.
    """

    def report(done: int, total: int, label: str, elapsed: float) -> None:
        eta = elapsed / done * (total - done) if done else float("nan")
        print(f"{prefix}: cell {done}/{total} ({label}) "
              f"elapsed {elapsed:.1f}s ETA {eta:.1f}s",
              file=sys.stderr, flush=True)

    return report


def run_cells(cells: Sequence[Cell], jobs: Optional[int] = None,
              progress: Optional[ProgressFn] = None,
              worker: Callable[[Cell], object] = _run_cell,
              cache: object = None) -> List[object]:
    """Run every cell and return results in cell order.

    ``jobs`` follows :func:`~repro.pool.resolve_jobs`; with an effective
    job count of 1 (or fewer than two cells) the cells run serially
    in-process. Otherwise every cell is in flight at once, as one unit
    of the pool's failure rule. The returned list, and the progress
    reports, follow input position regardless of completion order,
    which is what makes parallel sweeps deterministic. ``worker``
    must be a picklable module-level callable (the default simulates the
    cell and returns its :class:`RunStats`; tests substitute workers that
    crash or misbehave to exercise the pool's failure paths).

    ``cache`` controls the content-addressed result cache: ``None``
    (default) consults it for the default worker when ``REPRO_CACHE``
    allows, ``False`` bypasses it, and an explicit
    :class:`~repro.cache.results.ResultCache` uses that store (with any
    worker). Hits fill their positions without running the worker; only
    the remaining cells are dispatched (serially or to the pool), and
    their fresh results are stored back. Merge order and progress
    accounting are unchanged -- cached cells simply complete first.
    """
    cells = list(cells)
    rcache = _resolve_cache(cache, worker)
    start = time.perf_counter()
    done = 0

    def report(cell: Cell) -> None:
        nonlocal done
        done += 1
        if progress is not None:
            progress(done, len(cells), cell.label,
                     time.perf_counter() - start)

    results: List[object] = []
    pending: List[int] = []
    for index, cell in enumerate(cells):
        stats = rcache.get(cell) if rcache is not None else None
        results.append(stats)
        if stats is None:
            pending.append(index)
        else:
            report(cell)
    n_jobs = min(resolve_jobs(jobs), max(1, len(pending)))
    with WorkerPool(n_jobs) as pool:
        outputs = pool.map(worker, [cells[i] for i in pending])
        for index in pending:
            try:
                cell, results[index] = next(outputs)
            except Exception:
                # Surface the cell's original exception; name the cell
                # so a failing sweep is attributable.
                print(f"repro: cell {cells[index].label!r} failed",
                      file=sys.stderr)
                raise
            if rcache is not None:
                rcache.put(cell, results[index])
            report(cell)
    return results


def _resolve_cache(cache: object, worker: Callable[[Cell], object]):
    """Map the ``cache`` argument to a ResultCache instance or None."""
    if cache is None or cache is True:
        # Auto mode: only the default worker's results are RunStats the
        # cache can represent; custom workers must opt in explicitly.
        if worker is not _run_cell:
            return None
        from repro.cache.keys import cache_enabled
        from repro.cache.results import ResultCache

        return ResultCache() if cache_enabled() else None
    if cache is False:
        return None
    return cache


# -- sweep assembly helpers ---------------------------------------------------

@dataclass
class CellSweep:
    """Accumulates cells plus per-cell merge callbacks.

    Drivers append cells together with a ``merge(stats)`` closure that
    writes the cell's contribution into the driver's result structure;
    :meth:`run` executes the whole batch (serially or in parallel) and
    then replays the merges **in append order**, so result dictionaries
    have identical contents *and iteration order* no matter how the
    cells were scheduled.
    """

    jobs: Optional[int] = None
    progress: Optional[ProgressFn] = None
    _cells: List[Cell] = field(default_factory=list)
    _merges: List[Callable[[RunStats], None]] = field(default_factory=list)

    def add(self, cell: Cell, merge: Callable[[RunStats], None]) -> None:
        self._cells.append(cell)
        self._merges.append(merge)

    def __len__(self) -> int:
        return len(self._cells)

    def run(self) -> None:
        for stats, merge in zip(run_cells(self._cells, jobs=self.jobs,
                                          progress=self.progress),
                                self._merges):
            merge(stats)
