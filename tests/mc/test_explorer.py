"""Exploration: exhaustiveness, determinism, caps, action enumeration."""

import multiprocessing
import os
import time

from repro.mc import PRESETS, build_machine, enumerate_actions, explore
from repro.mc import explorer
from repro.mc.state import SpecState


class TestSmokeExploration:
    def test_smoke_is_clean_and_exhaustive(self):
        result = explore(PRESETS["smoke"])
        assert result.ok
        assert result.exhaustive
        assert result.truncated_by is None
        assert result.trace is None
        assert result.states > 100          # known universe size: 137
        assert result.races > 0             # Case 5b does arise and is legal

    def test_deterministic(self):
        a = explore(PRESETS["smoke"])
        b = explore(PRESETS["smoke"])
        assert (a.states, a.transitions, a.races) == \
               (b.states, b.transitions, b.races)

    def test_state_cap_truncates(self):
        result = explore(PRESETS["smoke"], max_states=20)
        assert result.truncated_by == "max-states"
        assert not result.exhaustive
        assert result.ok                    # truncated, but nothing broke

    def test_depth_cap_truncates(self):
        result = explore(PRESETS["smoke"], max_depth=2)
        assert result.truncated_by == "max-depth"
        assert not result.exhaustive

    def test_progress_callback_fires(self):
        calls = []
        explore(PRESETS["smoke"],
                progress=lambda s, t: calls.append((s, t)),
                progress_every=50)
        assert calls
        assert all(s <= t for s, t in calls)

    def test_as_dict_is_json_shaped(self):
        import json
        result = explore(PRESETS["smoke"], max_states=50)
        payload = json.loads(json.dumps(result.as_dict()))
        assert payload["preset"] == "smoke"
        assert payload["ok"] is True
        assert payload["states"] == result.states


class TestActionEnumeration:
    def test_initial_actions(self):
        model = PRESETS["smoke"]
        machine = build_machine(model)
        actions = list(enumerate_actions(machine, model))
        kinds = {a.kind for a in actions}
        # Nothing is resident yet, so residency-gated ops are absent...
        assert not kinds & {"wb", "inv", "evict"}
        # ...and the line starts SWcc, so only the HWcc transition is on.
        assert "to_hwcc" in kinds and "to_swcc" not in kinds
        assert {"load", "store", "atomic"} <= kinds

    def test_atomic_symmetric_initiator(self):
        model = PRESETS["smoke"]
        machine = build_machine(model)
        atomics = [a for a in enumerate_actions(machine, model)
                   if a.kind == "atomic"]
        assert {a.cluster for a in atomics} == {0}

    def test_load_store_per_cluster(self):
        model = PRESETS["smoke"]
        machine = build_machine(model)
        loads = [a for a in enumerate_actions(machine, model)
                 if a.kind == "load"]
        assert {a.cluster for a in loads} == {0, 1}


class TestExhaustiveCounts:
    """Reduced runs close at pinned universe sizes: a change to the
    protocol, the state key or the reductions that merges or splits
    states shows up here, not only in CI's full-size runs."""

    def test_smoke_counts(self):
        result = explore(PRESETS["smoke"], reduce=True)
        assert result.ok and result.exhaustive
        assert (result.states, result.transitions, result.races) == \
               (137, 1524, 20)

    def test_direvict_counts(self):
        result = explore(PRESETS["direvict"], reduce=True)
        assert result.ok and result.exhaustive
        assert result.violations == []
        assert (result.states, result.transitions,
                result.represented_states, result.races) == \
               (4675, 62636, 9300, 1462)


_REAL_EXPAND = explorer._expand_chunk


def _crashing_expand(payload):
    """Pool entry point that kills every worker process running it."""
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return _REAL_EXPAND(payload)


class TestBrokenPool:
    def test_killed_worker_restarts_in_process(self, monkeypatch, capsys):
        serial = explore(PRESETS["smoke"], jobs=1)
        monkeypatch.setattr(explorer, "_expand_chunk", _crashing_expand)
        result = explore(PRESETS["smoke"], jobs=2)
        err = capsys.readouterr().err
        # Every level breaks its pool, rebuilds it once, breaks it again
        # and finishes in-process; the next level starts on a fresh pool.
        assert err.count("rebuilding it") == len(result.levels)
        assert err.count("finishing in-process") == len(result.levels)
        assert (result.states, result.transitions, result.exhaustive) == \
               (serial.states, serial.transitions, serial.exhaustive)
        assert _comparable(result) == _comparable(serial)

    def test_one_worker_dying_mid_level_matches_serial(self, tmp_path,
                                                        monkeypatch, capsys):
        # While the parent merges the first chunk of an eight-chunk
        # level, it arms the crasher and waits: the next worker to finish
        # a chunk dies instead of answering, once, so the parent meets
        # the broken pool when it submits its next chunk, with older
        # chunks unfinished. The rebuilt pool must take those first and
        # in their order, so no worker withholds a snapshot the merge
        # has not seen yet.
        serial = explore(PRESETS["direvict"], reduce=True, max_states=1500,
                         jobs=1)
        monkeypatch.setenv("REPRO_TEST_DIE_DIR", str(tmp_path))
        monkeypatch.setattr(explorer, "_expand_chunk", _die_once_when_armed)
        armed = tmp_path / "armed"

        def arm(states, _transitions):
            if states >= 920 and not armed.exists():
                armed.write_text("1")
                time.sleep(0.5)

        result = explore(PRESETS["direvict"], reduce=True, max_states=1500,
                         jobs=2, progress=arm, progress_every=50)
        err = capsys.readouterr().err
        assert (tmp_path / "died").exists()
        assert err.count("rebuilding it") == 1
        assert "finishing in-process" not in err
        assert result.jobs == 2
        assert _comparable(result) == _comparable(serial)


def _die_once_when_armed(payload):
    """Pool entry point: the first worker process to finish a chunk
    after the parent drops the ``armed`` marker dies instead of
    answering; every other call expands normally."""
    records = _REAL_EXPAND(payload)
    base = os.environ["REPRO_TEST_DIE_DIR"]
    if (multiprocessing.parent_process() is not None
            and os.path.exists(os.path.join(base, "armed"))):
        try:
            os.close(os.open(os.path.join(base, "died"),
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            pass
        else:
            os._exit(1)
    return records


def _comparable(result):
    """``McResult.as_dict()`` without wall times and the job count."""
    doc = result.as_dict()
    del doc["elapsed_seconds"], doc["jobs"]
    for level in doc["levels"]:
        del level["elapsed_seconds"]
    return doc


class TestDirectoryPressure:
    def test_direvict_clean_under_cap(self):
        result = explore(PRESETS["direvict"], max_states=3000)
        assert result.ok

    def test_broken_root_is_reported(self):
        model = PRESETS["smoke"]
        machine = build_machine(model)
        # Corrupt the initial state: a coherent L2 line with no directory
        # entry violates inclusion before any action runs.
        machine.clusters[0].l2.allocate(model.lines[0].line)
        result = explore(model, machine=machine)
        assert not result.ok
        assert result.trace == []


def test_spec_gc_drops_settled_entries():
    model = PRESETS["smoke"]
    machine = build_machine(model)
    spec = SpecState()
    spec.stale.add((0, model.word_addrs()[0]))  # no such copy exists
    spec.gc(machine)
    assert spec.stale == set()
