"""Parallel execution of independent experiment cells.

Every ``run_*`` driver in :mod:`repro.analysis.experiments` is a sweep
over independent *cells* -- one ``(workload, policy, machine-config)``
point that builds a fresh :class:`~repro.sim.machine.Machine`, runs one
program, and keeps only the resulting :class:`~repro.sim.stats.RunStats`.
Cells share no mutable state, so they are embarrassingly parallel; this
module fans them across a :class:`concurrent.futures.ProcessPoolExecutor`
while keeping the *merge* deterministic: results come back indexed by
cell position, so a parallel sweep is bit-identical to the serial one.

The job count resolves, in order, from an explicit ``jobs`` argument,
the ``REPRO_JOBS`` environment variable, and a serial default of 1.
``jobs=0`` (or ``REPRO_JOBS=0``) means "one worker per CPU". Anything
that prevents a worker pool from starting (restricted environments
without ``fork``/semaphores, interpreters without ``multiprocessing``)
degrades gracefully to the serial path with a warning on stderr.

Worker failures are not swallowed: the first failing cell's original
exception is re-raised in the parent (with the cell named in a note on
stderr), exactly as the serial loop would have raised it.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
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


def parse_jobs(raw: str, source: str = "REPRO_JOBS") -> int:
    """Parse a job count, mapping 0 to the CPU count."""
    try:
        jobs = int(raw)
    except (TypeError, ValueError):
        raise SimulationError(
            f"{source} must be an integer >= 0 (0 = one worker per CPU); "
            f"got {raw!r}") from None
    if jobs < 0:
        raise SimulationError(
            f"{source} must be an integer >= 0 (0 = one worker per CPU); "
            f"got {raw!r}")
    return jobs or (os.cpu_count() or 1)


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve an effective worker count (see module docstring)."""
    if jobs is not None:
        if jobs < 0:
            raise SimulationError(
                f"jobs must be >= 0 (0 = one worker per CPU); got {jobs}")
        return jobs or (os.cpu_count() or 1)
    raw = os.environ.get("REPRO_JOBS")
    if raw is None:
        return 1
    return parse_jobs(raw)


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

    ``jobs`` follows :func:`resolve_jobs`; with an effective job count of
    1 (or fewer than two cells) the cells run serially in-process. The
    returned list is ordered by input position regardless of completion
    order, which is what makes parallel sweeps deterministic. ``worker``
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
    n_jobs = min(resolve_jobs(jobs), max(1, len(cells)))
    rcache = _resolve_cache(cache, worker)
    if rcache is None:
        return _execute(cells, n_jobs, progress, worker)

    total = len(cells)
    results: List[object] = [_PENDING] * total
    done = 0
    start = time.perf_counter()
    for index, cell in enumerate(cells):
        stats = rcache.get(cell)
        if stats is not None:
            results[index] = stats
            done += 1
            if progress is not None:
                progress(done, total, cell.label,
                         time.perf_counter() - start)
    pending = [i for i in range(total) if results[i] is _PENDING]
    if pending:
        sub_progress = None
        if progress is not None:
            def sub_progress(sub_done, _sub_total, label, elapsed,
                             _base=done):
                progress(_base + sub_done, total, label, elapsed)
        computed = _execute([cells[i] for i in pending],
                            min(n_jobs, len(pending)), sub_progress, worker)
        for index, stats in zip(pending, computed):
            results[index] = stats
            rcache.put(cells[index], stats)
    return results


_PENDING = object()


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


def _execute(cells: Sequence[Cell], n_jobs: int,
             progress: Optional[ProgressFn],
             worker: Callable[[Cell], object]) -> List[object]:
    if n_jobs <= 1 or len(cells) <= 1:
        return _run_serial(cells, progress, worker)
    try:
        return _run_pool(cells, n_jobs, progress, worker)
    except _PoolUnavailable as err:
        # A pool that broke mid-run may already hold finished cells;
        # carry those results over instead of re-simulating them, and
        # resume progress at the carried count rather than restarting
        # the 1/N .. counter (which would double-emit every done cell).
        carried = err.partial
        note = (f" ({len(carried)} completed cell(s) carried over)"
                if carried else "")
        print(f"repro: process pool unavailable ({err.reason}); "
              f"falling back to serial execution{note}", file=sys.stderr)
        if not carried:
            return _run_serial(cells, progress, worker)
        remaining = [i for i in range(len(cells)) if i not in carried]
        results: List[object] = [None] * len(cells)
        for index, value in carried.items():
            results[index] = value
        sub_progress = None
        if progress is not None:
            total = len(cells)
            base = len(carried)

            def sub_progress(sub_done, _sub_total, label, elapsed):
                progress(base + sub_done, total, label, elapsed)
        for index, value in zip(remaining,
                                _run_serial([cells[i] for i in remaining],
                                            sub_progress, worker)):
            results[index] = value
        return results


def _run_serial(cells: Sequence[Cell], progress: Optional[ProgressFn],
                worker: Callable[[Cell], object] = _run_cell) -> List[object]:
    start = time.perf_counter()
    results: List[object] = []
    for index, cell in enumerate(cells):
        try:
            results.append(worker(cell))
        except Exception:
            # Same attribution as the pool path: name the failing cell.
            print(f"repro: cell {cell.label!r} failed", file=sys.stderr)
            raise
        if progress is not None:
            progress(index + 1, len(cells), cell.label,
                     time.perf_counter() - start)
    return results


class _PoolUnavailable(Exception):
    """The worker pool could not start, or broke mid-run.

    ``partial`` maps cell index -> completed result for every future
    that finished *before* the pool broke, so the serial fallback can
    resume instead of restarting from zero.
    """

    def __init__(self, reason: str,
                 partial: Optional[Dict[int, object]] = None) -> None:
        self.reason = reason
        self.partial: Dict[int, object] = partial or {}
        super().__init__(reason)


def _run_pool(cells: Sequence[Cell], n_jobs: int,
              progress: Optional[ProgressFn],
              worker: Callable[[Cell], object] = _run_cell) -> List[object]:
    try:
        import concurrent.futures as futures
        pool = futures.ProcessPoolExecutor(max_workers=n_jobs)
    except (ImportError, NotImplementedError, OSError, PermissionError) as err:
        raise _PoolUnavailable(str(err) or type(err).__name__) from err
    start = time.perf_counter()
    results: List[Optional[object]] = [None] * len(cells)
    try:
        with pool:
            index_of = {pool.submit(worker, cell): index
                        for index, cell in enumerate(cells)}
            done = 0
            for future in futures.as_completed(index_of):
                index = index_of[future]
                try:
                    results[index] = future.result()
                except futures.process.BrokenProcessPool as err:
                    raise _PoolUnavailable(
                        str(err) or "broken pool",
                        partial=_completed(index_of)) from err
                except Exception:
                    # Surface the cell's original exception; name the
                    # cell so a failing sweep is attributable.
                    print(f"repro: cell {cells[index].label!r} failed",
                          file=sys.stderr)
                    raise
                done += 1
                if progress is not None:
                    progress(done, len(cells), cells[index].label,
                             time.perf_counter() - start)
    except _PoolUnavailable:
        raise
    return results  # type: ignore[return-value]


def _completed(index_of) -> Dict[int, object]:
    """Results of every future that finished cleanly (pool post-mortem)."""
    partial: Dict[int, object] = {}
    for future, index in index_of.items():
        if (future.done() and not future.cancelled()
                and future.exception() is None):
            partial[index] = future.result()
    return partial


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
