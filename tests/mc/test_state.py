"""Canonical keys: symmetry reduction, renaming, snapshot stability."""

from repro.mc import (Action, PRESETS, SpecState, apply_action, build_machine,
                      canonical_key)
from repro.mc.presets import INCOHERENT_HEAP
from repro.mc.state import digest, extract_state, semi_key


def fresh(preset="smoke"):
    model = PRESETS[preset]
    return model, build_machine(model), SpecState()


def run(machine, model, spec, actions):
    for action in actions:
        apply_action(machine, model, spec, action)
        machine.restore(machine.snapshot())


class TestCanonicalKey:
    def test_snapshot_restore_round_trip(self):
        model, machine, spec = fresh()
        line = model.lines[0].line
        run(machine, model, spec, [
            Action("store", 0, line, 0),
            Action("load", 1, line, 0),
        ])
        key = canonical_key(machine, model, spec)
        msnap, ssnap = machine.snapshot(), spec.snapshot()
        run(machine, model, spec, [Action("store", 1, line, 0)])
        machine.restore(msnap)
        spec.restore(ssnap)
        assert canonical_key(machine, model, spec) == key

    def test_cluster_symmetry(self):
        """Mirrored interleavings collapse onto one canonical state."""
        model, m1, s1 = fresh()
        _, m2, s2 = fresh()
        line = model.lines[0].line
        run(m1, model, s1, [Action("store", 0, line, 0),
                            Action("load", 1, line, 0)])
        run(m2, model, s2, [Action("store", 1, line, 0),
                            Action("load", 0, line, 0)])
        assert canonical_key(m1, model, s1) == canonical_key(m2, model, s2)
        # ...even though the concrete (identity-order) states differ.
        assert (semi_key(extract_state(m1, model, s1))
                != semi_key(extract_state(m2, model, s2)))

    def test_value_renaming(self):
        """Write counters are opaque: burning extra counters on a word
        that ends in the same abstract shape does not split the state."""
        model, m1, s1 = fresh()
        _, m2, s2 = fresh()
        line = model.lines[0].line
        run(m1, model, s1, [Action("store", 0, line, 0)])
        run(m2, model, s2, [Action("store", 0, line, 0),
                            Action("store", 0, line, 0)])
        assert canonical_key(m1, model, s1) == canonical_key(m2, model, s2)

    def test_distinct_states_distinct_keys(self):
        model, m1, s1 = fresh()
        _, m2, s2 = fresh()
        line = model.lines[0].line
        run(m1, model, s1, [Action("store", 0, line, 0)])
        run(m2, model, s2, [Action("load", 0, line, 0)])
        assert canonical_key(m1, model, s1) != canonical_key(m2, model, s2)

    def test_domain_transition_changes_key(self):
        model, machine, spec = fresh()
        line = model.lines[0].line
        before = canonical_key(machine, model, spec)
        run(machine, model, spec, [Action("to_hwcc", 0, line, 0)])
        assert canonical_key(machine, model, spec) != before


class TestHistoryIndependence:
    """Extracted parts and digests depend on the state, not on how the
    checker got there."""

    def test_write_counter_history_does_not_show(self):
        model, m1, s1 = fresh()
        _, m2, s2 = fresh()
        for _ in range(5):  # burn counters: every later value differs
            s2.fresh()
        line = model.lines[0].line
        actions = [Action("store", 0, line, 0), Action("wb", 0, line, 0),
                   Action("load", 1, line, 0)]
        run(m1, model, s1, actions)
        run(m2, model, s2, actions)
        assert s1.mem != s2.mem
        raw1 = extract_state(m1, model, s1)
        raw2 = extract_state(m2, model, s2)
        assert raw1 == raw2
        assert digest(raw1) == digest(raw2)
        assert semi_key(raw1) == semi_key(raw2)

    def test_stale_insertion_order_does_not_show(self):
        model, machine, s1 = fresh("deep")
        s2 = SpecState()
        word = model.word_addrs()[0]
        entries = [(cid, word) for cid in range(model.n_clusters)]
        for entry in entries:
            s1.stale.add(entry)
        for entry in reversed(entries):
            s2.stale.add(entry)
        assert list(s1.stale) != list(s2.stale)  # iteration orders differ
        raw1 = extract_state(machine, model, s1)
        raw2 = extract_state(machine, model, s2)
        assert raw1 == raw2
        assert digest(raw1) == digest(raw2)

    def test_digest_ignores_object_identity(self):
        big = 2 ** 80
        shared = (big, (big, 7), None)
        distinct = (2 ** 80, (int(str(2 ** 80)), 7), None)
        assert shared[0] is shared[1][0]
        assert distinct[0] is not distinct[1][0]
        assert shared == distinct
        assert digest(shared) == digest(distinct)
        assert len(digest(shared)) == 16


class TestSpecState:
    def test_fresh_values_never_repeat(self):
        spec = SpecState()
        values = {spec.fresh() for _ in range(100)}
        assert len(values) == 100

    def test_expected_defaults_to_zero(self):
        assert SpecState().expected(INCOHERENT_HEAP) == 0

    def test_snapshot_isolates(self):
        spec = SpecState()
        snap = spec.snapshot()
        spec.mem[INCOHERENT_HEAP] = spec.fresh()
        spec.stale.add((0, INCOHERENT_HEAP))
        spec.restore(snap)
        assert spec.mem == {}
        assert spec.stale == set()
