"""Reduction engine: symmetry, sleep sets, parallelism, the gate."""

import pytest

from repro.mc import (PRESETS, LineSpec, ModelConfig, build_machine,
                      equality_gate, explore, line_symmetry,
                      reduction_context, verify_independence)
from repro.mc.presets import INCOHERENT_HEAP


def two_line_model(n_lines=2, actions=("load", "store"), cap=200_000):
    lines = tuple(LineSpec.at(INCOHERENT_HEAP + 0x20 * i, actions=actions)
                  for i in range(n_lines))
    return ModelConfig(name=f"sym{n_lines}", description="reduction test",
                       n_clusters=2, lines=lines, max_states=cap)


class TestLineSymmetry:
    def test_single_line_has_identity_only(self):
        model = PRESETS["smoke"]
        perms = line_symmetry(model, build_machine(model))
        assert perms == ((0,),)

    def test_interchangeable_lines_swap(self):
        model = two_line_model()
        perms = line_symmetry(model, build_machine(model))
        assert perms == ((0, 1), (1, 0))

    def test_differing_alphabets_break_symmetry(self):
        model = ModelConfig(
            name="asym", description="x", n_clusters=2,
            lines=(LineSpec.at(INCOHERENT_HEAP, actions=("load", "store")),
                   LineSpec.at(INCOHERENT_HEAP + 0x20, actions=("load",))))
        perms = line_symmetry(model, build_machine(model))
        assert perms == ((0, 1),)

    def test_default_preset_mixed_domains_stay_fixed(self):
        model = PRESETS["default"]
        perms = line_symmetry(model, build_machine(model))
        assert perms == ((0, 1),)


class TestSleepMapping:
    def test_action_mapping_round_trips(self):
        ctx = reduction_context(two_line_model())
        for lam in ctx.line_perms:
            for order in ctx.cluster_orders:
                perm = (order, lam)
                for cand in ctx.candidates:
                    canon = ctx.to_canonical_action(cand.index, perm)
                    assert ctx.to_concrete_action(canon, perm) == cand.index

    def test_successor_sleep_is_monotone(self):
        ctx = reduction_context(two_line_model())
        everything = frozenset(c.index for c in ctx.candidates)
        for cand in ctx.candidates:
            inherited = ctx.successor_sleep(cand.index, everything)
            assert inherited <= everything
            assert cand.index not in inherited  # never independent of self


class TestIndependenceVerification:
    @pytest.mark.parametrize("preset", ["smoke", "default", "direvict"])
    def test_preset_declarations_hold(self, preset):
        assert verify_independence(PRESETS[preset]) == []

    def test_symmetric_model_declarations_hold(self):
        assert verify_independence(two_line_model(), max_states=250) == []


class TestReducedExploration:
    def test_orbit_accounting_is_exact(self):
        model = two_line_model()
        unreduced = explore(model)
        reduced = explore(model, reduce=True)
        assert unreduced.ok and reduced.ok
        assert unreduced.exhaustive and reduced.exhaustive
        assert reduced.represented_states == unreduced.states
        assert reduced.states < unreduced.states
        assert reduced.reduction_factor > 1.5
        assert reduced.transitions < unreduced.transitions

    def test_equality_gate_smoke(self):
        report = equality_gate(PRESETS["smoke"])
        assert report["ok"], report["checks"]
        assert all(report["checks"].values())

    def test_reduced_fields_in_dict(self):
        result = explore(PRESETS["smoke"], reduce=True)
        payload = result.as_dict()
        assert payload["reduced"] is True
        assert payload["represented_states"] == result.states
        assert payload["reduction_factor"] == 1.0
        assert "sleep_pruned" in payload

    def test_levels_trajectory_recorded(self):
        result = explore(PRESETS["smoke"])
        assert result.levels
        assert result.levels[0]["depth"] == 0
        assert result.levels[-1]["states"] == result.states
        assert [lv["depth"] for lv in result.levels] == \
               list(range(len(result.levels)))


class TestParallelAndSpill:
    def test_two_workers_match_serial(self):
        serial = explore(PRESETS["smoke"])
        parallel = explore(PRESETS["smoke"], jobs=2)
        assert (serial.states, serial.transitions, serial.races) == \
               (parallel.states, parallel.transitions, parallel.races)

    def test_parallel_reduced_mutation_still_caught(self):
        result = explore(PRESETS["smoke"], mutation="skip-2a-invalidate",
                         reduce=True, jobs=2, max_states=20_000)
        assert not result.ok
        assert result.trace
