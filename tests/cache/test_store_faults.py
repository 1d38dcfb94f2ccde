"""Fault injection for both disk stores: a full disk and a truncated file.

Each store writes through a temp file and a rename. A write that fails
halfway (``ENOSPC``) must report failure, count it, leave no ``*.tmp*``
file under the cache root, and leave the next lookup a clean miss. A
truncated file on disk must be a miss too, never a wrong answer.
"""

import errno

import pytest

from repro import Policy
from repro.analysis.parallel import Cell, _run_cell
from repro.cache import PROGRAM_STATS, RESULT_STATS, ProgramStore, ResultCache
from repro.runtime.program import Phase, Program, Task
from repro.types import OP_LOAD, OP_STORE

HEAP = 0x2000_0000


def _cell():
    from repro.analysis.experiments import ExperimentConfig

    exp = ExperimentConfig(n_clusters=2, scale=0.12)
    return Cell.make("gjk", Policy.swcc(), exp, label="gjk")


def _frozen():
    tasks = [Task(ops=[(OP_LOAD, HEAP + 0x100 * t), (OP_STORE, HEAP)],
                  stack_words=2) for t in range(3)]
    return Program("p", [Phase("ph0", tasks, code_addr=0x10000,
                               code_lines=2)]).freeze()


class _HalfWrite:
    """A file whose first write lands half its bytes, then hits ENOSPC."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[:len(data) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()
        return False


@pytest.fixture
def disk_full(monkeypatch):
    """Make every cache-store write fail halfway through."""
    import repro.cache.keys as keys

    def half_open(path, mode="r", *args, **kwargs):
        return _HalfWrite(open(path, mode, *args, **kwargs))

    monkeypatch.setattr(keys, "open", half_open, raising=False)


def _leftovers(root):
    return sorted(p.name for p in root.rglob("*.tmp*"))


class TestResultCacheFaults:
    def test_enospc_mid_write_is_a_clean_failure(self, cache_dir, request):
        stats = _run_cell(_cell())
        RESULT_STATS.reset()
        request.getfixturevalue("disk_full")
        rcache = ResultCache()
        assert rcache.put(_cell(), stats) is False
        assert rcache.put_failures == 1 and rcache.stores == 0
        assert RESULT_STATS.put_failures == 1
        assert _leftovers(cache_dir) == []
        assert rcache.get(_cell()) is None
        assert rcache.misses == 1

    def test_truncated_entry_is_a_miss(self, cache_dir):
        stats = _run_cell(_cell())
        rcache = ResultCache()
        assert rcache.put(_cell(), stats) is True
        [path] = (cache_dir / "results").rglob("*.json")
        text = path.read_text()
        path.write_text(text[:len(text) // 2])
        assert rcache.get(_cell()) is None
        assert rcache.misses == 1 and rcache.hits == 0


class TestProgramStoreFaults:
    KEY = {"workload": "p", "seed": 1}

    def test_enospc_mid_write_is_a_clean_failure(self, cache_dir, disk_full):
        store = ProgramStore()
        assert store.save(self.KEY, _frozen()) is False
        assert PROGRAM_STATS.put_failures == 1
        assert PROGRAM_STATS.stores == 0
        assert _leftovers(cache_dir) == []
        assert store.load(self.KEY) is None

    def test_truncated_pickle_is_a_miss(self, cache_dir):
        store = ProgramStore()
        assert store.save(self.KEY, _frozen()) is True
        assert PROGRAM_STATS.stores == 1
        assert store.load(self.KEY) is not None
        [path] = (cache_dir / "programs").rglob("*.pkl")
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        assert store.load(self.KEY) is None
