"""Exploration: exhaustiveness, determinism, caps, action enumeration."""

from repro.mc import PRESETS, build_machine, enumerate_actions, explore
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
