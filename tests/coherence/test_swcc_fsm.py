"""The software-protocol state machine (Figure 6, left half)."""

import pytest

from repro.mem.cache import CacheLine
from repro.types import SWState

from tests.coherence.swcc import (GLOBALLY_VISIBLE_AFTER, SW_TRANSITIONS,
                                  classify_sw_state, is_legal, next_state)


class TestTransitions:
    def test_write_allocate_from_invalid(self):
        assert next_state(SWState.INVALID, "ST") is SWState.PRIVATE_DIRTY

    def test_first_touch_loads(self):
        assert next_state(SWState.INVALID, "LD") is SWState.CLEAN
        assert next_state(SWState.INVALID, "LD_PRIVATE") is SWState.PRIVATE_CLEAN
        assert next_state(SWState.INVALID, "LD_IMMUTABLE") is SWState.IMMUTABLE

    def test_writeback_cleans_dirty(self):
        assert next_state(SWState.PRIVATE_DIRTY, "WB") is SWState.CLEAN

    def test_clean_states_drop_silently(self):
        for state in (SWState.CLEAN, SWState.PRIVATE_CLEAN, SWState.IMMUTABLE):
            assert next_state(state, "EVICT") is SWState.INVALID
            assert next_state(state, "INV") is SWState.INVALID

    def test_loads_are_self_loops(self):
        for state in (SWState.CLEAN, SWState.PRIVATE_CLEAN,
                      SWState.PRIVATE_DIRTY, SWState.IMMUTABLE):
            assert next_state(state, "LD") is state

    def test_immutable_rejects_stores(self):
        assert not is_legal(SWState.IMMUTABLE, "ST")
        with pytest.raises(KeyError):
            next_state(SWState.IMMUTABLE, "ST")

    def test_clean_states_have_no_writeback(self):
        for state in (SWState.CLEAN, SWState.PRIVATE_CLEAN, SWState.IMMUTABLE):
            assert not is_legal(state, "WB")

    def test_only_dirty_owes_visibility(self):
        assert set(GLOBALLY_VISIBLE_AFTER) == {"WB", "EVICT"}

    def test_every_state_reachable(self):
        reachable = {SWState.INVALID}
        frontier = [SWState.INVALID]
        while frontier:
            state = frontier.pop()
            for (src, _event), dst in SW_TRANSITIONS.items():
                if src is state and dst not in reachable:
                    reachable.add(dst)
                    frontier.append(dst)
        assert reachable == set(SWState)

    def test_every_state_can_reach_invalid(self):
        for state in SWState:
            if state is SWState.INVALID:
                continue
            outs = {dst for (src, _e), dst in SW_TRANSITIONS.items()
                    if src is state}
            assert SWState.INVALID in outs


class TestClassification:
    def test_absent_is_invalid(self):
        assert classify_sw_state(None) is SWState.INVALID

    def test_dirty_dominates(self):
        entry = CacheLine(1, dirty_mask=0b1)
        assert classify_sw_state(entry, private=True,
                                 immutable=True) is SWState.PRIVATE_DIRTY

    def test_immutable_clean(self):
        entry = CacheLine(1)
        assert classify_sw_state(entry, immutable=True) is SWState.IMMUTABLE

    def test_private_clean(self):
        entry = CacheLine(1)
        assert classify_sw_state(entry, private=True) is SWState.PRIVATE_CLEAN

    def test_shared_clean(self):
        entry = CacheLine(1)
        assert classify_sw_state(entry) is SWState.CLEAN


class TestClusterFollowsTheFsm:
    """A real cluster's L2 entry classifies as the FSM's state after
    every event of ST -> WB -> INV/EVICT on an SWcc line."""

    ADDR = 0x4000_0000  # incoherent heap

    def _apply(self, cluster, event, t):
        line = self.ADDR >> 5
        if event == "ST":
            cluster.store(0, self.ADDR, 7, t)
        elif event == "WB":
            cluster.flush_line(0, line, t)
        elif event == "INV":
            cluster.invalidate_line(0, line, t)
        else:  # EVICT: stream conflicting lines through the L2
            for i in range(1, cluster.l2.capacity_lines + 64):
                t, _ = cluster.load(0, self.ADDR + 32 * i, t)
        return t + 100.0

    @pytest.mark.parametrize("last", ["INV", "EVICT"])
    def test_store_writeback_then_drop(self, swcc_machine, last):
        cluster = swcc_machine.clusters[0]
        line = self.ADDR >> 5
        state, t = SWState.INVALID, 0.0
        assert classify_sw_state(cluster.l2.peek(line)) is state
        for event in ("ST", "WB", last):
            t = self._apply(cluster, event, t)
            state = next_state(state, event)
            assert classify_sw_state(cluster.l2.peek(line)) is state, event
        assert state is SWState.INVALID
