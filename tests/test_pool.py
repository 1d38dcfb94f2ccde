"""WorkerPool's failure rule, driven through a scripted executor."""

import concurrent.futures
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.pool import WorkerPool

#: The item whose submission finds the first pool broken.
BREAK_AT = 5


class _LazyFuture(concurrent.futures.Future):
    """A future its executor computes only when someone waits on it."""

    def __init__(self, executor) -> None:
        super().__init__()
        self._executor = executor

    def result(self, timeout=None):
        self._executor.run_until(self)
        return super().result(timeout)


class ScriptedExecutor:
    """A process pool stand-in that computes submitted items lazily, in
    submission order. The first one built breaks when ``BREAK_AT`` is
    submitted to it, failing every item it had not computed, the way a
    worker dying while the parent is busy shows up at the next submit."""

    built: list = []

    def __init__(self, max_workers) -> None:
        self.submitted = []
        self.pending = []
        self.broken = False
        self.built.append(self)

    def submit(self, fn, item):
        if item == BREAK_AT and self is self.built[0]:
            self.broken = True
            for future, _fn, _item in self.pending:
                future.set_exception(BrokenProcessPool("a worker died"))
            self.pending = []
        if self.broken:
            raise BrokenProcessPool("a worker died")
        future = _LazyFuture(self)
        self.submitted.append(item)
        self.pending.append((future, fn, item))
        return future

    def run_until(self, target) -> None:
        while not target.done():
            future, fn, item = self.pending.pop(0)
            future.set_result(fn(item))

    def shutdown(self, wait=True, cancel_futures=False) -> None:
        pass


@pytest.mark.parametrize("window", [None, 3], ids=["all-in-flight", "window"])
def test_break_at_submit_moves_unfinished_items_first(monkeypatch, capsys,
                                                      window):
    monkeypatch.setattr(ScriptedExecutor, "built", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        ScriptedExecutor)
    calls = []

    def tenfold(item):
        calls.append(item)
        return item * 10

    with WorkerPool(2) as pool:
        results = list(pool.map(tenfold, range(8), window=window))
    assert results == [(i, i * 10) for i in range(8)]
    assert sorted(calls) == list(range(8)), "an item was computed twice"
    _first, rebuilt = ScriptedExecutor.built
    # The rebuilt pool gets the broken pool's unfinished items before
    # the one whose submit found it broken: item order, no gaps.
    assert rebuilt.submitted == list(range(rebuilt.submitted[0], 8))
    assert pool.as_dict() == {"jobs": 2, "rebuilds": 1, "in_process": 0}
    assert capsys.readouterr().err.count("rebuilding it") == 1
