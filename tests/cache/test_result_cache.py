"""The content-addressed result cache (level 2) and its knobs."""

import json

import pytest

from repro import Policy
from repro.analysis.parallel import Cell, run_cells
from repro.cache import (RESULT_STATS, ResultCache, cache_enabled,
                         cell_key, decode_stats, encode_stats)
from repro.errors import SimulationError


def _cell(label="gjk", **extra):
    from repro.analysis.experiments import ExperimentConfig

    exp = ExperimentConfig(n_clusters=2, scale=0.12)
    return Cell.make("gjk", Policy.swcc(), exp, label=label, **extra)


class TestKnobs:
    @pytest.mark.parametrize("raw,expected", [
        (None, True), ("", True), ("1", True), ("0", False)])
    def test_repro_cache_values(self, monkeypatch, raw, expected):
        if raw is None:
            monkeypatch.delenv("REPRO_CACHE", raising=False)
        else:
            monkeypatch.setenv("REPRO_CACHE", raw)
        assert cache_enabled() is expected

    def test_bad_repro_cache_named_in_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "maybe")
        with pytest.raises(SimulationError, match="REPRO_CACHE"):
            cache_enabled()

    def test_cache_dir_knob_wins(self, monkeypatch, tmp_path):
        from repro.cache import cache_root

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "somewhere"))
        assert cache_root() == tmp_path / "somewhere"


class TestFingerprint:
    def test_label_is_excluded(self, cache_dir):
        assert cell_key(_cell(label="a")) == cell_key(_cell(label="b"))

    def test_config_change_changes_key(self, cache_dir):
        assert (cell_key(_cell(l2_bytes=8 * 1024))
                != cell_key(_cell(l2_bytes=16 * 1024)))

    def test_source_hash_changes_key(self, cache_dir, monkeypatch):
        from repro.cache import srchash

        before = cell_key(_cell())
        monkeypatch.setattr(srchash, "source_tree_hash",
                            lambda: "someothertree")
        assert cell_key(_cell()) != before

    def test_unkeyable_cell_has_no_fingerprint(self, cache_dir):
        bad = _cell(no_such_machine_knob=1)
        assert ResultCache().fingerprint(bad) is None


class TestRoundTrip:
    def test_encode_decode_equals_original(self, cache_dir):
        from repro.analysis.parallel import _run_cell

        stats = _run_cell(_cell())
        decoded = decode_stats(encode_stats(stats))
        assert decoded.as_dict() == stats.as_dict()
        assert decoded == stats

    def test_put_get_round_trip(self, cache_dir):
        from repro.analysis.parallel import _run_cell

        cell = _cell()
        stats = _run_cell(cell)
        rcache = ResultCache()
        assert rcache.put(cell, stats)
        got = ResultCache().get(cell)
        assert got is not None and got.as_dict() == stats.as_dict()


class TestCorruption:
    def _populate(self, cache_dir):
        run_cells([_cell()], jobs=1)
        entries = list((cache_dir / "results").rglob("*.json"))
        assert entries
        return entries

    @pytest.mark.parametrize("damage", [
        pytest.param(lambda p: p.write_text("{not json"), id="garbage"),
        pytest.param(lambda p: p.write_text(p.read_text()[:40]),
                     id="truncated"),
        pytest.param(lambda p: p.write_text(json.dumps({"schema": 999})),
                     id="wrong-schema"),
        pytest.param(lambda p: p.write_text(
            p.read_text().replace('"cycles"', '"cycle_z"', 1)),
            id="field-renamed"),
    ])
    def test_damaged_entry_is_a_miss_not_an_error(self, cache_dir, damage):
        for path in self._populate(cache_dir):
            damage(path)
        RESULT_STATS.reset()
        results = run_cells([_cell()], jobs=1)
        assert RESULT_STATS.hits == 0 and RESULT_STATS.misses >= 1
        assert results[0].tasks_executed > 0


class TestRunCells:
    def test_hit_skips_worker_and_matches_fresh(self, cache_dir, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        fresh = run_cells([_cell()], jobs=1)
        monkeypatch.delenv("REPRO_CACHE")
        cold = run_cells([_cell()], jobs=1)
        RESULT_STATS.reset()
        warm = run_cells([_cell()], jobs=1)
        assert RESULT_STATS.hits == 1 and RESULT_STATS.misses == 0
        assert (fresh[0].as_dict() == cold[0].as_dict()
                == warm[0].as_dict())

    def test_jobs4_hits_cache_populated_by_jobs1(self, cache_dir):
        cells = [_cell(label=f"c{i}", l2_bytes=size * 1024)
                 for i, size in enumerate((8, 16, 32, 64))]
        serial = run_cells(cells, jobs=1)
        RESULT_STATS.reset()
        parallel = run_cells(cells, jobs=4)
        assert RESULT_STATS.hits == len(cells)
        assert ([s.as_dict() for s in serial]
                == [s.as_dict() for s in parallel])

    def test_progress_sees_every_cell_once(self, cache_dir):
        cells = [_cell(label=f"c{i}", l2_bytes=size * 1024)
                 for i, size in enumerate((8, 16))]
        run_cells(cells, jobs=1)  # populate
        seen = []
        run_cells(cells, jobs=1,
                  progress=lambda done, total, label, elapsed:
                  seen.append((done, total, label)))
        assert seen == [(1, 2, "c0"), (2, 2, "c1")]

    def test_partial_hits_merge_in_position_order(self, cache_dir):
        known = _cell(label="known")
        run_cells([known], jobs=1)  # populate only this one
        novel = _cell(label="novel", l2_bytes=8 * 1024)
        RESULT_STATS.reset()
        results = run_cells([novel, known], jobs=1)
        assert RESULT_STATS.hits == 1 and RESULT_STATS.misses == 1
        # Position order survives the hit completing first: the known
        # cell's result sits at index 1, where the caller put the cell.
        assert (results[1].as_dict()
                == run_cells([known], jobs=1)[0].as_dict())

    def test_cache_false_bypasses(self, cache_dir):
        run_cells([_cell()], jobs=1)  # populate
        RESULT_STATS.reset()
        run_cells([_cell()], jobs=1, cache=False)
        assert RESULT_STATS.lookups == 0

    def test_custom_worker_not_cached_by_default(self, cache_dir):
        run_cells([_cell()], jobs=1, worker=_touch_worker)
        assert not (cache_dir / "results").exists()


def _touch_worker(cell):
    return "not-run-stats"
