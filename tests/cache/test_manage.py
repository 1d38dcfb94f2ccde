"""``repro cache verify``/``clear``: corrupt vs unreadable discrimination.

Regression suite for the bugfix where both maintenance entry points
swallowed bare ``Exception``: a permission error, an I/O failure, or a
directory squatting on an entry path was indistinguishable from garbage
bytes -- the audit reported "corrupt" and exited as if the scan had
covered the whole store. Content damage and access failure now land in
separate buckets with separate exit codes (1 vs 2).

These tests run as root in CI, so "unreadable" is provoked with a
*directory* named like an entry (``IsADirectoryError`` on read), not
with chmod -- root ignores file modes.
"""

import json

import pytest

from repro import Policy
from repro.analysis.parallel import Cell, run_cells
from repro.cache import ResultCache, clear_cache, verify_cache
from repro.cache.manage import VerifyReport
from repro.cli import main
from repro.errors import CacheAccessError


def _cell(label="gjk", **extra):
    from repro.analysis.experiments import ExperimentConfig

    exp = ExperimentConfig(n_clusters=2, scale=0.12)
    return Cell.make("gjk", Policy.swcc(), exp, label=label, **extra)


@pytest.fixture
def populated(cache_dir):
    """A cache holding one real result (and its frozen program)."""
    run_cells([_cell()], jobs=1)
    assert list((cache_dir / "results").rglob("*.json"))
    return cache_dir


class TestVerifyClassification:
    def test_clean_cache_is_empty_report(self, populated):
        report = verify_cache(populated)
        assert not report
        assert report.corrupt == [] and report.unreadable == []

    def test_garbage_bytes_are_corrupt_not_unreadable(self, populated):
        entry = next((populated / "results").rglob("*.json"))
        entry.write_text("{definitely not json")
        report = verify_cache(populated)
        assert len(report.corrupt) == 1 and not report.unreadable
        assert "corrupt JSON" in report.corrupt[0]

    def test_digest_mismatch_is_corrupt(self, populated):
        entry = next((populated / "results").rglob("*.json"))
        moved = entry.with_name("0" * 64 + ".json")
        moved.write_text(entry.read_text())
        entry.unlink()
        report = verify_cache(populated)
        assert any("digest" in p for p in report.corrupt)

    def test_stray_tmp_file_is_corrupt_debris(self, populated):
        shard = next((populated / "results").rglob("*.json")).parent
        (shard / "entry.json.tmp1234").write_text("half a write")
        report = verify_cache(populated)
        assert any("stray file" in p for p in report.corrupt)

    def test_directory_squatting_on_entry_is_unreadable(self, populated):
        shard = next((populated / "results").rglob("*.json")).parent
        (shard / ("e" * 64 + ".json")).mkdir()
        report = verify_cache(populated)
        assert len(report.unreadable) == 1 and not report.corrupt
        assert "directory" in report.unreadable[0]

    def test_oserror_while_reading_is_unreadable(self, populated,
                                                 monkeypatch):
        import pathlib

        real = pathlib.Path.read_bytes

        def flaky(self):
            if self.suffix == ".json":
                raise OSError("simulated I/O error")
            return real(self)

        monkeypatch.setattr(pathlib.Path, "read_bytes", flaky)
        report = verify_cache(populated)
        assert any("simulated I/O error" in p for p in report.unreadable)
        assert not report.corrupt

    def _rewrite_program(self, root, mutate):
        import pickle

        [path] = (root / "programs").rglob("*.pkl")
        payload = pickle.loads(path.read_bytes())
        mutate(payload)
        path.write_bytes(pickle.dumps(payload))
        return payload["key"]

    def test_wrong_program_schema_is_corrupt(self, populated):
        # verify must agree with the store: an entry load() would treat
        # as a miss is never used, so it is not healthy.
        from repro.cache.programs import PROGRAM_SCHEMA, ProgramStore

        key = self._rewrite_program(
            populated, lambda p: p.update(schema=PROGRAM_SCHEMA + 1))
        assert ProgramStore(populated).load(key) is None
        report = verify_cache(populated)
        assert len(report.corrupt) == 1 and not report.unreadable
        assert f"schema is not {PROGRAM_SCHEMA}" in report.corrupt[0]

    def test_older_frozen_format_is_corrupt(self, populated):
        from repro.cache.programs import ProgramStore
        from repro.runtime.program import FROZEN_FORMAT

        def downgrade(payload):
            payload["frozen"].format = FROZEN_FORMAT - 1

        key = self._rewrite_program(populated, downgrade)
        assert ProgramStore(populated).load(key) is None
        report = verify_cache(populated)
        assert len(report.corrupt) == 1 and not report.unreadable
        assert (f"frozen format {FROZEN_FORMAT - 1} is not {FROZEN_FORMAT}"
                in report.corrupt[0])

    def test_problems_lists_unreadable_first(self):
        report = VerifyReport(corrupt=["c"], unreadable=["u"])
        assert report.problems == ["u", "c"]
        assert len(report) == 2 and bool(report)
        assert report.as_dict() == {"corrupt": ["c"], "unreadable": ["u"]}


class TestVerifyExitCodes:
    """The CLI grades the two buckets differently: findings exit 1,
    an incomplete audit exits 2 (analyze-style environment failure)."""

    @pytest.fixture(autouse=True)
    def _own_cache(self, cache_dir):
        pass

    def _populate(self):
        run_cells([_cell()], jobs=1)

    def test_corrupt_exits_1(self, cache_dir, capsys):
        self._populate()
        next((cache_dir / "results").rglob("*.json")).write_text("{broken")
        assert main(["cache", "verify"]) == 1
        out = capsys.readouterr().out
        assert "corrupt" in out and "1 corrupt, 0 unreadable" in out

    def test_unreadable_exits_2_even_with_corrupt_present(self, cache_dir,
                                                          capsys):
        self._populate()
        entry = next((cache_dir / "results").rglob("*.json"))
        entry.write_text("{broken")
        (entry.parent / ("f" * 64 + ".json")).mkdir()
        assert main(["cache", "verify"]) == 2
        out = capsys.readouterr().out
        assert "UNREADABLE" in out and "1 corrupt, 1 unreadable" in out

    def test_json_report_carries_both_buckets(self, cache_dir, capsys):
        self._populate()
        entry = next((cache_dir / "results").rglob("*.json"))
        entry.write_text("{broken")
        assert main(["cache", "verify", "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"corrupt", "unreadable"}
        assert len(doc["corrupt"]) == 1 and doc["unreadable"] == []


class TestClear:
    def test_clear_failure_raises_cache_access_error(self, populated,
                                                     monkeypatch):
        import shutil

        def fake_rmtree(path, onerror=None, **kwargs):
            onerror(None, str(path) + "/stuck.json",
                    (OSError, OSError("device busy"), None))

        monkeypatch.setattr(shutil, "rmtree", fake_rmtree)
        with pytest.raises(CacheAccessError, match="device busy"):
            clear_cache(populated)

    def test_clear_failure_is_usage_error_at_cli(self, populated,
                                                 monkeypatch, capsys):
        import shutil

        def fake_rmtree(path, onerror=None, **kwargs):
            onerror(None, str(path), (OSError, OSError("nope"), None))

        monkeypatch.setattr(shutil, "rmtree", fake_rmtree)
        assert main(["cache", "clear"]) == 2
        assert "could not remove" in capsys.readouterr().err


class TestSessionAccounting:
    """Regression: unkeyable lookups and failed stores were invisible --
    ``get()`` returned early without counting anything and ``put()``
    failures vanished, so a sweep full of unkeyable cells reported a
    clean 0/0 cache line."""

    def test_unkeyable_get_counts_skipped_not_miss(self, cache_dir):
        from repro.cache import RESULT_STATS

        bad = _cell(no_such_machine_knob=1)
        rcache = ResultCache()
        assert rcache.get(bad) is None
        assert rcache.skipped == 1 and rcache.misses == 0
        assert RESULT_STATS.skipped == 1 and RESULT_STATS.misses == 0
        assert RESULT_STATS.lookups == 1
        assert RESULT_STATS.hit_rate == 0.0

    def test_unkeyable_put_counts_failure(self, cache_dir):
        from repro.analysis.parallel import _run_cell
        from repro.cache import RESULT_STATS

        stats = _run_cell(_cell())
        rcache = ResultCache()
        assert rcache.put(_cell(no_such_machine_knob=1), stats) is False
        assert rcache.put_failures == 1
        assert RESULT_STATS.put_failures == 1
        assert RESULT_STATS.stores == 0

    def test_non_runstats_put_counts_failure(self, cache_dir):
        rcache = ResultCache()
        assert rcache.put(_cell(), "not-run-stats") is False
        assert rcache.put_failures == 1

    def test_write_error_put_counts_failure(self, cache_dir, monkeypatch):
        import os

        from repro.analysis.parallel import _run_cell
        from repro.cache import RESULT_STATS

        stats = _run_cell(_cell())
        RESULT_STATS.reset()

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", broken_replace)
        rcache = ResultCache()
        assert rcache.put(_cell(), stats) is False
        assert rcache.put_failures == 1 and rcache.stores == 0
        assert RESULT_STATS.put_failures == 1

    def test_cache_stats_cli_surfaces_session_counters(self, cache_dir,
                                                       capsys):
        from repro.cache import RESULT_STATS

        ResultCache().get(_cell(no_such_machine_knob=1))
        assert RESULT_STATS.skipped == 1
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "skipped=1" in out and "put_failures=0" in out

    def test_stats_as_dict_shape(self):
        from repro.cache.results import ReuseStats

        stats = ReuseStats(hits=3, misses=1, skipped=2, stores=3,
                           put_failures=1)
        doc = stats.as_dict()
        assert doc["hit_rate"] == pytest.approx(0.5)
        assert doc["skipped"] == 2 and doc["put_failures"] == 1
        stats.reset()
        assert stats.lookups == 0 and stats.as_dict()["hit_rate"] == 0.0
