"""JobManager: coalescing, admission, timeout, failure, drain -- no HTTP.

A fake runner stands in for the process pool so each path is exercised
deterministically (and fast); TestRealPool and tests/serve/test_server.py
run the real pool.
"""

import asyncio
import multiprocessing
import os

import pytest

from repro import Policy
from repro.analysis.parallel import Cell, _run_cell
from repro.cache import ResultCache
from repro.pool import WorkerPool
from repro.serve import jobs as serve_jobs
from repro.serve.config import ServeConfig
from repro.serve.jobs import (Draining, JobFailed, JobManager, JobTimeout,
                              Overloaded)

from tests.serve.conftest import run


def _cell(label="gjk", **extra):
    from repro.analysis.experiments import ExperimentConfig

    exp = ExperimentConfig(n_clusters=2, scale=0.12)
    return Cell.make("gjk", Policy.swcc(), exp, label=label, **extra)


def _config(**overrides):
    base = dict(port=0, jobs=1, queue_limit=64, timeout_s=5.0, drain_s=5.0)
    base.update(overrides)
    return ServeConfig(**base)


class FakeRunner:
    """Scriptable WorkerPool stand-in: counts runs, optionally blocks or
    raises."""

    def __init__(self, result="stats", delay_s=0.0, raises=None) -> None:
        self.result = result
        self.delay_s = delay_s
        self.raises = raises
        self.runs = 0
        self.closed = False
        self.release = asyncio.Event()
        self.release.set()

    async def run(self, fn, cell):
        self.runs += 1
        if self.raises is not None:
            raise self.raises
        await self.release.wait()
        if self.delay_s:
            await asyncio.sleep(self.delay_s)
        return self.result

    def close(self):
        self.closed = True


def _manager(runner=None, cache=False, **config_overrides):
    return JobManager(_config(**config_overrides),
                      runner=runner or FakeRunner(), cache=cache)


class TestSingleFlightDedup:
    def test_concurrent_identical_submissions_execute_once(self, cache_dir):
        runner = FakeRunner(delay_s=0.02)
        jobs = JobManager(_config(), runner=runner,
                          cache=ResultCache())

        async def body():
            return await asyncio.gather(*(jobs.submit(_cell())
                                          for _ in range(4)))

        outcomes = run(body())
        assert runner.runs == 1, "duplicates were not coalesced"
        statuses = sorted(o.status for o in outcomes)
        assert statuses == ["coalesced"] * 3 + ["executed"]
        assert all(o.fingerprint == outcomes[0].fingerprint
                   for o in outcomes)
        assert jobs.metrics.counters["executed"] == 1
        assert jobs.metrics.counters["coalesced"] == 3

    def test_label_does_not_defeat_coalescing(self, cache_dir):
        # The fingerprint excludes the display label, so renamed
        # duplicates still coalesce.
        runner = FakeRunner(delay_s=0.02)
        jobs = JobManager(_config(), runner=runner, cache=ResultCache())

        async def body():
            return await asyncio.gather(jobs.submit(_cell(label="a")),
                                        jobs.submit(_cell(label="b")))

        run(body())
        assert runner.runs == 1

    def test_unkeyable_cells_never_coalesce(self):
        runner = FakeRunner(delay_s=0.02)
        jobs = _manager(runner=runner, cache=False)

        async def body():
            return await asyncio.gather(*(jobs.submit(_cell())
                                          for _ in range(3)))

        outcomes = run(body())
        assert runner.runs == 3
        assert all(o.status == "executed" and o.fingerprint is None
                   for o in outcomes)


class TestWarmHits:
    @pytest.fixture
    def warm(self, cache_dir):
        from repro.analysis.parallel import _run_cell

        stats = _run_cell(_cell())
        assert ResultCache().put(_cell(), stats)
        return stats

    def test_hit_answers_from_cache_without_running(self, warm):
        runner = FakeRunner()
        jobs = JobManager(_config(), runner=runner, cache=ResultCache())
        outcome = run(jobs.submit(_cell()))
        assert outcome.status == "hit" and outcome.stats == warm
        assert runner.runs == 0
        assert jobs.metrics.counters["hits"] == 1

    def test_hit_latency_under_10ms(self, warm):
        jobs = JobManager(_config(), runner=FakeRunner(),
                          cache=ResultCache())
        latencies = [run(jobs.submit(_cell())).latency_ms
                     for _ in range(3)]
        assert min(latencies) < 10.0, latencies
        assert jobs.metrics.hit_latency.total == 3

    def test_leader_stores_result_for_later_hits(self, cache_dir):
        from repro.analysis.parallel import _run_cell

        stats = _run_cell(_cell())
        runner = FakeRunner(result=stats)
        jobs = JobManager(_config(), runner=runner, cache=ResultCache())
        first = run(jobs.submit(_cell()))
        second = run(jobs.submit(_cell()))
        assert (first.status, second.status) == ("executed", "hit")
        assert runner.runs == 1
        assert jobs.metrics.counters["cache_stores"] == 1


class TestAdmission:
    def test_overload_sheds_with_429(self):
        runner = FakeRunner()
        runner.release.clear()  # block the first job indefinitely
        jobs = _manager(runner=runner, queue_limit=1)

        async def body():
            first = asyncio.ensure_future(jobs.submit(_cell(seed_extra=1)))
            await asyncio.sleep(0.01)
            with pytest.raises(Overloaded, match="queue full"):
                await jobs.submit(_cell(seed_extra=2))
            runner.release.set()
            return await first

        outcome = run(body())
        assert outcome.status == "executed"
        assert jobs.metrics.counters["shed"] == 1

    def test_draining_rejects_submissions(self):
        jobs = _manager()
        run(jobs.drain())
        with pytest.raises(Draining):
            run(jobs.submit(_cell()))
        assert jobs.runner.closed


class TestTimeoutsAndRetries:
    def test_timeout_maps_to_job_timeout(self):
        jobs = _manager(runner=FakeRunner(delay_s=1.0), timeout_s=0.02)
        with pytest.raises(JobTimeout, match="exceeded"):
            run(jobs.submit(_cell()))
        assert jobs.metrics.counters["timeouts"] == 1

    def test_simulation_error_fails_fast_without_retry(self):
        runner = FakeRunner(raises=ValueError("bad kernel"))
        jobs = _manager(runner=runner)
        with pytest.raises(JobFailed, match="bad kernel"):
            run(jobs.submit(_cell()))
        assert runner.runs == 1, "deterministic failure was retried"

    def test_failed_flight_does_not_poison_the_next(self):
        runner = FakeRunner(raises=ValueError("bad kernel"))
        jobs = _manager(runner=runner)
        with pytest.raises(JobFailed):
            run(jobs.submit(_cell()))
        runner.raises = None
        assert run(jobs.submit(_cell())).status == "executed"


def _die_in_worker(cell):
    """Serve's worker entry point, killing every worker process it runs
    in; in the parent it simulates."""
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return _run_cell(cell)


def _die_once_in_worker(cell):
    """Like :func:`_die_in_worker`, but only the first worker process
    to run it dies."""
    marker = os.path.join(os.environ["REPRO_TEST_DIE_DIR"], "died")
    if multiprocessing.parent_process() is not None:
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            pass
        else:
            os._exit(1)
    return _run_cell(cell)


class TestRealPool:
    def _submit(self, pool):
        jobs = _manager(runner=pool, cache=False, timeout_s=60.0)
        try:
            return run(jobs.submit(_cell()))
        finally:
            pool.close()

    def test_killed_worker_answers_from_the_rebuilt_pool(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_TEST_DIE_DIR", str(tmp_path))
        monkeypatch.setattr(serve_jobs, "_run_cell", _die_once_in_worker)
        pool = WorkerPool(2)
        outcome = self._submit(pool)
        assert outcome.status == "executed"
        assert outcome.stats == _run_cell(_cell())
        assert pool.as_dict() == {"jobs": 2, "rebuilds": 1, "in_process": 0}
        assert "rebuilding it" in capsys.readouterr().err

    def test_cell_that_kills_every_worker_fails_the_job(self, monkeypatch,
                                                         capsys):
        monkeypatch.setattr(serve_jobs, "_run_cell", _die_in_worker)
        pool = WorkerPool(2)
        with pytest.raises(JobFailed, match="BrokenProcessPool"):
            self._submit(pool)
        assert pool.as_dict() == {"jobs": 2, "rebuilds": 1, "in_process": 0}
        err = capsys.readouterr().err
        assert "rebuilding it" in err and "failing the item" in err

    def test_unbuildable_pool_runs_in_process(self, monkeypatch, capsys):
        import concurrent.futures

        def refuse(*args, **kwargs):
            raise OSError("no semaphores")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            refuse)
        pool = WorkerPool(1)
        outcome = self._submit(pool)
        assert outcome.stats == _run_cell(_cell())
        assert pool.as_dict() == {"jobs": 1, "rebuilds": 0, "in_process": 1}
        assert "worker pool unavailable" in capsys.readouterr().err


class TestDrain:
    def test_drain_waits_for_active_jobs(self):
        runner = FakeRunner(delay_s=0.05)
        jobs = _manager(runner=runner)

        async def body():
            inflight = asyncio.ensure_future(jobs.submit(_cell()))
            await asyncio.sleep(0.01)
            clean = await jobs.drain()
            outcome = await inflight
            return clean, outcome

        clean, outcome = run(body())
        assert clean is True and outcome.status == "executed"
        assert jobs.runner.closed
        assert jobs.metrics.counters["drained"] == 1

    def test_impatient_drain_reports_unclean(self):
        runner = FakeRunner()
        runner.release.clear()
        jobs = _manager(runner=runner)

        async def body():
            inflight = asyncio.ensure_future(jobs.submit(_cell()))
            await asyncio.sleep(0.01)
            clean = await jobs.drain(timeout_s=0.02)
            runner.release.set()
            await inflight
            return clean

        assert run(body()) is False


class TestEventBus:
    def test_lifecycle_events_ride_the_obs_bus(self, cache_dir):
        from repro.serve.metrics import SV_EXEC, SV_HIT, SV_SUBMIT

        from repro.analysis.parallel import _run_cell

        stats = _run_cell(_cell())
        jobs = JobManager(_config(), runner=FakeRunner(result=stats),
                          cache=ResultCache())
        kinds = []
        jobs.metrics.bus.subscribe(lambda event: kinds.append(event.kind))
        run(jobs.submit(_cell()))
        run(jobs.submit(_cell()))
        assert kinds == [SV_SUBMIT, SV_EXEC, SV_SUBMIT, SV_HIT]
