"""Restore consistency: a rewind leaves exactly the snapshot behind.

The explorer applies every enabled action to a restored state and
restores again before the next. These tests check that such a restore
puts back the snapshot's protocol state, forgets every timing
reservation the action made, rebuilds the directory occupancy trackers
in place, and that the extraction plan belongs to its machine.
"""

import gc
import weakref
from collections import Counter

import pytest

from repro.mc import (Action, PRESETS, SpecState, apply_action,
                      build_machine, reduction_context)
from repro.mc.actions import guard_enabled
from repro.mc.state import extract_state, semi_key

#: Root plus this many further reachable states, breadth first.
STATES = 6

#: Machines built and collected in turn by the plan-lifetime test.
MACHINES = 12


def _reachable(machine, model, ctx):
    """Snapshots of the root and the first states a BFS reaches."""
    spec = SpecState()
    states = [(machine.snapshot(), spec.snapshot())]
    seen = {semi_key(extract_state(machine, model, spec))}
    index = 0
    while index < len(states) and len(states) <= STATES:
        msnap, ssnap = states[index]
        index += 1
        for cand in ctx.candidates:
            machine.restore(msnap)
            spec.restore(ssnap)
            if not guard_enabled(machine, cand):
                continue
            apply_action(machine, model, spec, cand.action)
            key = semi_key(extract_state(machine, model, spec))
            if key not in seen:
                seen.add(key)
                states.append((machine.snapshot(), spec.snapshot()))
    return states


def _resources(machine):
    """Every timing resource of the machine, named."""
    ms = machine.memsys
    named = [(f"bank port {b}", r)
             for b, r in enumerate(ms.bank_ports.members)]
    named += [(f"up link {t}", r) for t, r in enumerate(ms.net.up_links.members)]
    named += [(f"down link {t}", r)
              for t, r in enumerate(ms.net.down_links.members)]
    named.append(("crossbar", ms.net.crossbar))
    named += [(f"dram channel {c}", r)
              for c, r in enumerate(ms.dram.channels.members)]
    named += [(f"cluster {c.id} port", c.port) for c in machine.clusters]
    return named


def _assert_rewound(machine, snap):
    assert machine.snapshot() == snap
    for name, resource in _resources(machine):
        assert not resource._used, f"{name} still holds a reservation"
        assert not resource._full_next, f"{name} kept its skip table"
        assert resource._min_occ == float("inf"), name
    assert machine.core_clocks == [0.0] * len(machine.core_clocks)
    ms = machine.memsys
    total = ms.dir_occupancy
    assert all(d.global_occupancy is total for d in ms.dirs)
    assert total.count == sum(d.occupancy.count for d in ms.dirs)
    assert total.max_count == total.count
    for klass, count in total.count_by_class.items():
        assert count == sum(d.occupancy.count_by_class[klass]
                            for d in ms.dirs)
    for bank_dir in ms.dirs:
        assert bank_dir.occupancy.count == len(bank_dir)
        held = Counter(entry.klass for entry in bank_dir.entries())
        for klass, count in bank_dir.occupancy.count_by_class.items():
            assert count == held[klass], klass


@pytest.mark.parametrize("preset", ["direvict", "default"])
def test_restore_undoes_every_enabled_action(preset):
    model = PRESETS[preset]
    machine = build_machine(model)
    ctx = reduction_context(model)
    spec = SpecState()
    states = _reachable(machine, model, ctx)
    assert len(states) > STATES
    applied = 0
    for msnap, ssnap in states:
        for cand in ctx.candidates:
            machine.restore(msnap)
            spec.restore(ssnap)
            if not guard_enabled(machine, cand):
                continue
            apply_action(machine, model, spec, cand.action)
            machine.restore(msnap)
            _assert_rewound(machine, msnap)
            applied += 1
    assert applied > 2 * len(states)


def test_actions_reserve_what_restore_must_forget():
    """Guard against a vacuous pass: an action does reserve capacity."""
    model = PRESETS["direvict"]
    machine = build_machine(model)
    line = model.lines[0].line
    apply_action(machine, model, SpecState(), Action("load", 0, line, 0))
    assert any(r._used for _name, r in _resources(machine))
    assert machine.memsys.dir_occupancy.count == 1


def _l2_part(raw, cluster, slot=0):
    """The extracted L2 entry of ``slot`` in ``cluster`` (None: absent).

    Entries follow the extraction walk: every line's L3 entry, then per
    cluster and line its L2 and L1D entries.
    """
    _lines, entries, _ranks, mem, _stale = raw
    n_lines = len(mem)
    return entries[n_lines + 2 * n_lines * cluster + 2 * slot]


def test_extract_plan_belongs_to_its_machine():
    """Each fresh machine is read through its own plan, never an old one.

    Machines are built and collected in turn, so a new machine may reuse
    a collected one's ``id()``; a plan cached by identity would then
    read the old machine's caches.
    """
    model = PRESETS["direvict"]
    line = model.lines[0].line
    for round_ in range(MACHINES):
        machine = build_machine(model)
        spec = SpecState()
        root = extract_state(machine, model, spec)
        assert all(entry is None for entry in root[1])
        writer = round_ % 2
        apply_action(machine, model, spec, Action("store", writer, line, 0))
        raw = extract_state(machine, model, spec)
        assert _l2_part(raw, writer) is not None
        assert _l2_part(raw, 1 - writer) is None
        del machine
        gc.collect()


def test_extract_plan_dies_with_its_machine():
    model = PRESETS["direvict"]
    # With the collector paused, only reference counting can free them.
    gc.disable()
    try:
        machine = build_machine(model)
        assert machine.extract_plan is None  # built lazily, not with it
        extract_state(machine, model, SpecState())
        plan = weakref.ref(machine.extract_plan)
        assert plan().model is model
        del machine
        assert plan() is None
    finally:
        gc.enable()
