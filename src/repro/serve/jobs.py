"""Job admission, execution, and lifecycle for ``repro serve``.

The pipeline one submission travels::

    submit -> cache probe -> single-flight -> admission -> pool -> cache put
      |hit: answer <10ms |join in-flight    |full: shed  |timeout

* **Cache probe** -- the content-addressed result cache
  (:class:`~repro.cache.results.ResultCache`) is consulted first; a warm
  entry answers without touching the queue. Unkeyable cells (fingerprint
  ``None``) skip both the cache and single-flight -- they always run.
* **Single-flight** -- concurrent submissions with the same fingerprint
  coalesce onto one in-flight computation
  (:class:`~repro.serve.singleflight.SingleFlight`); only the leader
  occupies a queue slot and a worker.
* **Admission** -- at most ``queue_limit`` leaders may be active
  (admitted but unfinished); beyond that submissions are shed with
  :class:`Overloaded` (HTTP 429) instead of building unbounded backlog.
* **Execution** -- the leader runs the cell through the same worker
  entry point as ``run_cells`` (:func:`repro.analysis.parallel._run_cell`)
  on the server's one :class:`~repro.pool.WorkerPool`, shared by every
  job. Each job is one unit of the pool's failure rule (see
  :mod:`repro.pool`): a crashed worker costs one rebuilt pool, and a
  job whose rebuilt pool breaks too fails with :class:`JobFailed`
  (HTTP 500) rather than run inside the server. A simulation error
  fails the job with :class:`JobFailed` too; the per-job timeout fails
  it with :class:`JobTimeout` (HTTP 504).
* **Drain** -- :meth:`JobManager.drain` stops admitting (HTTP 503),
  waits up to the grace period for active jobs, then shuts the pool
  down. Cache writes happen before the submitter is answered and are
  atomic (tmp + rename), so a drain -- even an impatient one -- never
  leaves a torn cache entry.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Optional

from repro.analysis.parallel import Cell, _run_cell
from repro.errors import ReproError
from repro.pool import WorkerPool, resolve_jobs
from repro.serve.config import DRAIN_GRACE_S, ServeConfig
from repro.serve.metrics import ServeMetrics
from repro.serve.singleflight import SingleFlight


class ServeError(ReproError):
    """Base of job-level failures; ``status`` is the HTTP mapping and
    ``wire_status`` the per-cell record status string."""

    status = 500
    wire_status = "failed"


class Overloaded(ServeError):
    """The admission queue is full; back off and resubmit."""

    status = 429
    wire_status = "shed"


class Draining(ServeError):
    """The server is shutting down and no longer admits work."""

    status = 503
    wire_status = "draining"


class JobTimeout(ServeError):
    """The job exceeded the per-job execution timeout."""

    status = 504
    wire_status = "timeout"


class JobFailed(ServeError):
    """The simulation raised."""

    status = 500
    wire_status = "failed"


@dataclass
class JobOutcome:
    """What one submission was answered with."""

    status: str                 # "hit" | "executed" | "coalesced"
    stats: object               # RunStats
    fingerprint: Optional[str]
    latency_ms: float


class JobManager:
    """Triage + execution engine shared by every connection handler."""

    def __init__(self, config: ServeConfig, runner=None,
                 cache=None) -> None:
        from repro.cache.keys import cache_enabled
        from repro.cache.results import ResultCache

        self.config = config
        self.runner = (runner if runner is not None
                       else WorkerPool(resolve_jobs(config.jobs)))
        if cache is not None:
            self.cache = cache or None      # cache=False -> disabled
        else:
            self.cache = ResultCache() if cache_enabled() else None
        self.metrics = ServeMetrics()
        self.flights = SingleFlight()
        self.draining = False
        self._idle = asyncio.Event()
        self._idle.set()

    # -- submission --------------------------------------------------------
    async def submit(self, cell: Cell) -> JobOutcome:
        """Answer one cell submission (see module docstring for the
        pipeline). Raises a :class:`ServeError` subclass on every
        non-answer path so the HTTP layer maps it mechanically."""
        start = time.perf_counter()
        if self.draining:
            raise Draining("server is draining; resubmit elsewhere/later")
        self.metrics.counters["submitted"] += 1

        fingerprint = self.cache.fingerprint(cell) if self.cache else None
        if fingerprint is not None:
            stats = self.cache.get(cell)
            if stats is not None:
                latency = _ms_since(start)
                self.metrics.counters["hits"] += 1
                self.metrics.hit_latency.observe(latency)
                return JobOutcome("hit", stats, fingerprint, latency)

        if fingerprint is None:
            # Unkeyable: no identity to coalesce or cache under.
            stats = await self._admit_and_run(cell)
            return JobOutcome("executed", stats, None, _ms_since(start))

        led, stats = await self.flights.run(
            fingerprint, lambda: self._lead(cell))
        latency = _ms_since(start)
        if led:
            self.metrics.counters["executed"] += 1
            self.metrics.exec_latency.observe(latency)
            return JobOutcome("executed", stats, fingerprint, latency)
        self.metrics.counters["coalesced"] += 1
        return JobOutcome("coalesced", stats, fingerprint, latency)

    async def _lead(self, cell: Cell):
        """Leader path: run for real, then publish to the cache *before*
        followers (and later submitters) are woken."""
        stats = await self._admit_and_run(cell)
        if self.cache is not None:
            if self.cache.put(cell, stats):
                self.metrics.counters["cache_stores"] += 1
            else:
                self.metrics.counters["cache_store_failures"] += 1
        return stats

    # -- admission + execution --------------------------------------------
    async def _admit_and_run(self, cell: Cell):
        if self.metrics.active >= self.config.queue_limit:
            self.metrics.counters["shed"] += 1
            raise Overloaded(
                f"admission queue full ({self.config.queue_limit} active "
                f"job(s)); resubmit with backoff")
        self.metrics.active += 1
        self._idle.clear()
        try:
            return await self._run(cell)
        finally:
            self.metrics.active -= 1
            if self.metrics.active == 0:
                self._idle.set()

    async def _run(self, cell: Cell):
        self.metrics.running += 1
        try:
            return await asyncio.wait_for(self.runner.run(_run_cell, cell),
                                          self.config.timeout_s)
        except asyncio.TimeoutError:
            self.metrics.counters["timeouts"] += 1
            raise JobTimeout(
                f"cell {cell.label!r} exceeded "
                f"{self.config.timeout_s:g}s (the worker process may "
                f"still be finishing; its result is discarded)") from None
        except Exception as err:
            self.metrics.counters["failed"] += 1
            raise JobFailed(
                f"cell {cell.label!r} failed: "
                f"{type(err).__name__}: {err}") from err
        finally:
            self.metrics.running -= 1

    # -- shutdown ----------------------------------------------------------
    async def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Stop admitting, wait for active jobs, shut the pool down.

        Returns True when every in-flight job finished inside the grace
        period. Idempotent; later calls just wait again.
        """
        if not self.draining:
            self.draining = True
            self.metrics.counters["drained"] += 1
        grace = DRAIN_GRACE_S if timeout_s is None else timeout_s
        try:
            await asyncio.wait_for(self._idle.wait(), grace)
            clean = True
        except asyncio.TimeoutError:
            clean = False
        self.runner.close()
        return clean


def _ms_since(start: float) -> float:
    return (time.perf_counter() - start) * 1000.0
