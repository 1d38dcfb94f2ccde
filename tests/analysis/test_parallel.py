"""Parallel sweeps are bit-identical to serial ones, and fail loudly."""

import pytest

from repro.analysis.experiments import (ExperimentConfig,
                                        directory_occupancy, directory_sweep,
                                        message_breakdown, performance,
                                        stack_only_ablation,
                                        useful_coherence_ops)
from repro.analysis.parallel import (Cell, Sweep, run_cells, run_sweeps,
                                     stderr_progress)
from repro.errors import SimulationError
from repro.pool import parse_jobs, resolve_jobs

TINY = ExperimentConfig(n_clusters=2, scale=0.12)
KERNELS = ("gjk", "mri")


@pytest.fixture(autouse=True)
def _cache_off(monkeypatch):
    """These tests pin the *execution* paths (pool scheduling, failure
    attribution, progress accounting), so the result cache must not
    short-circuit any cell; tests/cache covers the cached paths."""
    monkeypatch.setenv("REPRO_CACHE", "0")

DRIVERS = [
    pytest.param(message_breakdown(TINY, KERNELS), id="message_breakdown"),
    pytest.param(useful_coherence_ops(TINY, KERNELS, (8 * 1024, 16 * 1024)),
                 id="useful_coherence_ops"),
    pytest.param(directory_sweep(TINY, KERNELS, (256, 1024)),
                 id="directory_sweep"),
    pytest.param(directory_occupancy(TINY, KERNELS),
                 id="directory_occupancy"),
    pytest.param(performance(TINY, KERNELS), id="performance"),
    pytest.param(stack_only_ablation(TINY, KERNELS),
                 id="stack_only_ablation"),
]


class TestDeterminism:
    """Every declaration reduces identically at jobs=1 and jobs=4.

    Identity covers contents *and* iteration order of the result dicts
    (reducers read their cells in declaration order), so downstream
    table rendering cannot observe how the cells were scheduled.
    """

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_parallel_matches_serial(self, driver):
        serial = run_sweeps([driver], jobs=1)[0]
        parallel = run_sweeps([driver], jobs=4)[0]
        assert serial == parallel
        assert _key_order(serial) == _key_order(parallel)


def _key_order(tree):
    if not isinstance(tree, dict):
        return tree if not hasattr(tree, "cycles") else None
    return [(key, _key_order(value)) for key, value in tree.items()]


class TestJobResolution:
    def test_explicit_wins(self):
        assert resolve_jobs(3) == 3

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5

    def test_zero_means_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(SimulationError, match="jobs must be"):
            resolve_jobs(-1)

    @pytest.mark.parametrize("raw", ["", "x", "1.5", "-2"])
    def test_bad_env_named_in_error(self, raw):
        with pytest.raises(SimulationError, match="REPRO_JOBS"):
            parse_jobs(raw)


class TestWorkerFailure:
    """A failing cell surfaces its original exception, serial or pooled."""

    def test_serial_raises_original(self):
        with pytest.raises(KeyError, match="no-such-kernel"):
            run_cells([_bad_cell()], jobs=1)

    def test_pool_raises_original(self):
        good = Cell.make("gjk", _swcc(), TINY)
        with pytest.raises(KeyError, match="no-such-kernel"):
            run_cells([good, _bad_cell(), good], jobs=4)

    def test_pool_names_failing_cell(self, capsys):
        good = Cell.make("gjk", _swcc(), TINY)
        with pytest.raises(KeyError):
            run_cells([good, _bad_cell()], jobs=2)
        assert "no-such-kernel" in capsys.readouterr().err


def _bad_cell():
    return Cell.make("no-such-kernel", _swcc(), TINY)


def _swcc():
    from repro.config import Policy
    return Policy.swcc()


class TestProgress:
    def test_serial_progress_reports_each_cell(self):
        seen = []
        cells = [Cell.make("gjk", _swcc(), TINY, label=f"cell{i}")
                 for i in range(2)]
        run_cells(cells, jobs=1,
                  progress=lambda done, total, label, elapsed:
                  seen.append((done, total, label)))
        assert seen == [(1, 2, "cell0"), (2, 2, "cell1")]

    def test_stderr_progress_format(self, capsys):
        stderr_progress("sweep")(3, 10, "kmeans/SWcc", 6.0)
        err = capsys.readouterr().err
        assert "sweep: cell 3/10 (kmeans/SWcc)" in err
        assert "elapsed 6.0s" in err and "ETA 14.0s" in err


def _carry_worker(cell):
    """Pool-crash choreography, keyed by label (module-level: picklable).

    ``good`` logs one execution record and returns. ``poison`` waits for
    a marker that the *parent* drops once it has retrieved ``good``'s
    result (the progress callback fires after retrieval), then
    hard-kills its worker process -- breaking the pool strictly after
    ``good``'s completion was observed, and breaking the rebuilt pool
    again. Run in the parent instead (the in-process fallback),
    ``poison`` computes normally.
    """
    import multiprocessing
    import os
    import pathlib
    import time
    import uuid

    base = pathlib.Path(dict(cell.config_extra)["_dir"])
    if cell.label == "good":
        (base / f"exec-{uuid.uuid4().hex}").write_text("1")
        return "good-result"
    deadline = time.monotonic() + 30
    while not (base / "good-retrieved").exists():
        if time.monotonic() > deadline:  # pragma: no cover - hang guard
            raise RuntimeError("marker never appeared")
        time.sleep(0.01)
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return "poison-serial"


class TestBrokenPoolCarry:
    """A mid-run pool crash keeps every already-completed result: the
    pool is rebuilt once for the unfinished cell, which breaks it again
    and finishes in-process -- no finished cell is re-simulated and no
    progress is double-emitted."""

    def _cells(self, tmp_path):
        return [Cell.make("gjk", _swcc(), TINY, label=label,
                          _dir=str(tmp_path))
                for label in ("good", "poison")]

    def _run(self, tmp_path):
        seen = []

        def progress(done, total, label, elapsed):
            seen.append((done, total, label))
            if label == "good":
                (tmp_path / "good-retrieved").write_text("1")

        results = run_cells(self._cells(tmp_path), jobs=2,
                            worker=_carry_worker, cache=False,
                            progress=progress)
        return results, seen

    def test_completed_results_carry_over(self, tmp_path, capsys):
        results, _seen = self._run(tmp_path)
        assert results == ["good-result", "poison-serial"]
        executions = list(tmp_path.glob("exec-*"))
        assert len(executions) == 1, "completed cell was re-run"
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if "worker pool broke" in line]
        assert len(lines) == 2, lines
        assert lines[0].endswith("rebuilding it")
        assert lines[1].endswith("finishing in-process")

    def test_progress_resumes_not_restarts(self, tmp_path):
        _results, seen = self._run(tmp_path)
        dones = [done for done, _total, _label in seen]
        assert dones == sorted(set(dones)), f"progress double-emitted: {seen}"
        assert seen == [(1, 2, "good"), (2, 2, "poison")]

    def test_crash_before_any_completion_restarts_cleanly(self, tmp_path):
        # Marker pre-dropped: poison dies immediately, good's result may
        # or may not survive the broken pool -- either way every result
        # must land exactly once at its position.
        (tmp_path / "good-retrieved").write_text("1")
        results = run_cells(self._cells(tmp_path), jobs=2,
                            worker=_carry_worker, cache=False)
        assert results == ["good-result", "poison-serial"]


def _label_worker(cell):
    return cell.label


class TestNoPool:
    def test_unbuildable_pool_runs_in_process(self, monkeypatch, capsys):
        import concurrent.futures

        def refuse(*args, **kwargs):
            raise OSError("no semaphores")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            refuse)
        cells = [Cell.make("gjk", _swcc(), TINY, label=f"c{i}")
                 for i in range(3)]
        assert run_cells(cells, jobs=2, worker=_label_worker,
                         cache=False) == ["c0", "c1", "c2"]
        err = capsys.readouterr().err
        assert ("worker pool unavailable (no semaphores); running "
                "in-process") in err


class TestRunSweeps:
    def test_reduce_sees_declaration_order(self):
        cells = tuple((i, Cell.make("gjk", _swcc(), TINY,
                                    l2_bytes=size * 1024))
                      for i, size in enumerate((64, 8, 32, 16), start=1))
        sweep = Sweep(cells, lambda stats: list(stats))
        assert run_sweeps([sweep], jobs=4) == [[1, 2, 3, 4]]

    def test_shared_cells_run_once(self):
        """Two sweeps declaring one cell (under different keys and
        labels) get that cell's single result object."""
        shared = Cell.make("gjk", _swcc(), TINY, label="first")
        same = Cell.make("gjk", _swcc(), TINY, label="second")
        other = Cell.make("mri", _swcc(), TINY)
        seen = []
        first, second = run_sweeps(
            [Sweep((("a", shared), ("b", other)), dict),
             Sweep((("c", same),), dict)],
            progress=lambda done, total, label, elapsed:
            seen.append((total, label)))
        assert seen == [(2, "first"), (2, "mri")]
        assert second["c"] is first["a"]
        assert first["b"] is not first["a"]
