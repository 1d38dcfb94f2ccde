"""One worker pool with one failure rule, for every fan-out in the repo.

Figure sweeps (:func:`repro.analysis.parallel.run_cells`), the model
checker's BFS levels (:func:`repro.mc.explorer.explore`) and ``repro
serve``'s jobs (:class:`repro.serve.jobs.JobManager`) all run on a
:class:`WorkerPool`. Their workers are deterministic, so an item gives
the same result in any worker or in the parent, and one rule fits all:

* A pool that breaks under a *unit* of work (one ``run_cells`` batch,
  one BFS level, one serve job) is rebuilt once. Only the unit's items
  that were on the broken pool and had not finished are resubmitted,
  in their original order; finished results are kept.
* When no pool can be built, the unit runs in-process. When the
  rebuilt pool breaks too, a batch (:meth:`WorkerPool.map`) finishes
  in-process, but a served item (:meth:`WorkerPool.run`) fails: a
  break its own item causes would recur in-process, inside a
  long-lived server.
* The next unit starts on a fresh pool, so a long-lived server never
  degrades for good.

A Python exception raised by a worker is not a break: it surfaces
unchanged. Job counts resolve from an explicit ``jobs`` argument, then
``REPRO_JOBS``, then 1; ``0`` means one worker per CPU.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import deque
from typing import Callable, Iterable, Iterator, Optional, Tuple

from repro.errors import SimulationError


def parse_jobs(raw: str, source: str = "REPRO_JOBS") -> int:
    """Parse a job count, mapping 0 to the CPU count."""
    try:
        jobs = int(raw)
    except (TypeError, ValueError):
        jobs = -1
    if jobs < 0:
        raise SimulationError(
            f"{source} must be an integer >= 0 (0 = one worker per CPU); "
            f"got {raw!r}")
    return jobs or (os.cpu_count() or 1)


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve an effective worker count (see module docstring)."""
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS")
        return 1 if raw is None else parse_jobs(raw)
    if jobs < 0:
        raise SimulationError(
            f"jobs must be >= 0 (0 = one worker per CPU); got {jobs}")
    return jobs or (os.cpu_count() or 1)


class WorkerPool:
    """``jobs`` worker processes behind the failure rule above, built
    on first use and kept across units until they break; :meth:`close`
    (or leaving a ``with`` block) stops them."""

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs
        self.builds = 0        # process pools built
        self.in_process = 0    # items run in-process after a pool failure
        self.unavailable = False   # no process pool could be built
        self._executor = None
        # In-process items run one at a time, even when serve awaits
        # several of them from helper threads.
        self._lock = threading.Lock()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def as_dict(self) -> dict:
        return {"jobs": self.jobs, "rebuilds": max(0, self.builds - 1),
                "in_process": self.in_process}

    def map(self, fn: Callable, items: Iterable,
            local: Optional[Callable] = None,
            window: Optional[int] = None) -> Iterator[Tuple[object, object]]:
        """Yield ``(item, result)`` for every item, in item order.

        The whole call is one unit. ``fn`` must be a picklable
        module-level callable; ``local`` (default ``fn``) computes an
        item in-process, which is how every item runs at ``jobs <= 1``.
        ``items`` is drawn lazily: with ``window`` set, at most that many
        items are in flight and the next item is drawn before the oldest
        result is awaited; without it every item is in flight at once.
        """
        local = fn if local is None else local
        if self.jobs <= 1:
            for item in items:
                yield item, local(item)
            return
        from concurrent.futures.process import BrokenProcessPool

        broken: set = set()    # pools that broke under this unit
        inflight: deque = deque()  # [item, executor, future]; None = local

        def place(entry: list) -> None:
            while True:
                executor = entry[1] = self._pool(broken)
                try:
                    entry[2] = (None if executor is None
                                else executor.submit(fn, entry[0]))
                    return
                except BrokenProcessPool as err:
                    replace(executor, err)

        def replace(dead, err: Exception) -> None:
            """Move the broken pool's unfinished items on, in order."""
            self._broke(broken, dead, err, "finishing in-process")
            for other in inflight:
                if other[1] is dead and (
                        not other[2].done() or isinstance(
                            other[2].exception(), BrokenProcessPool)):
                    place(other)

        def settle() -> Tuple[object, object]:
            entry = inflight[0]
            while entry[2] is not None:
                try:
                    value = entry[2].result()
                    break
                except BrokenProcessPool as err:
                    replace(entry[1], err)
            else:
                value = self._local(local, entry[0])
            inflight.popleft()
            return entry[0], value

        for item in items:
            while window is not None and len(inflight) >= window:
                yield settle()
            entry = [item, None, None]
            place(entry)
            inflight.append(entry)
        while inflight:
            yield settle()

    async def run(self, fn: Callable, item: object) -> object:
        """Compute one item as one unit, awaited from an event loop: in a
        worker process even at ``jobs=1``, and in-process (on a helper
        thread, never the loop's) only when no pool can be built."""
        import asyncio
        from concurrent.futures.process import BrokenProcessPool

        broken: set = set()
        while (executor := self._pool(broken)) is not None:
            try:
                return await asyncio.wrap_future(executor.submit(fn, item))
            except BrokenProcessPool as err:
                self._broke(broken, executor, err, "failing the item")
                if len(broken) > 1:
                    raise
        return await asyncio.get_running_loop().run_in_executor(
            None, self._local, fn, item)

    def _pool(self, broken: set):
        """The process pool for a unit that saw ``broken`` pools break,
        or None when the unit must go on in-process."""
        if len(broken) > 1 or self.unavailable:
            return None
        if self._executor is None:
            try:
                from concurrent.futures import ProcessPoolExecutor
                self._executor = ProcessPoolExecutor(max_workers=self.jobs)
            except (NotImplementedError, OSError) as err:
                self.unavailable = True
                print(f"repro: worker pool unavailable "
                      f"({err or type(err).__name__}); running in-process",
                      file=sys.stderr, flush=True)
                return None
            self.builds += 1
        return self._executor

    def _broke(self, broken: set, executor, err: Exception,
               second: str) -> None:
        """Note a break (``second`` names what a second one means). Only
        the pool that broke is discarded: units sharing it rebuild once."""
        broken.add(executor)
        if executor is not self._executor:
            return
        self._executor = None
        # The break fails every pending future by itself; cancelling
        # them as well could cancel a serve job awaiting one.
        executor.shutdown(wait=False)
        then = "rebuilding it" if len(broken) == 1 else second
        print(f"repro: worker pool broke ({err or 'a worker died'}); {then}",
              file=sys.stderr, flush=True)

    def _local(self, fn: Callable, item: object) -> object:
        with self._lock:
            self.in_process += 1
            return fn(item)
