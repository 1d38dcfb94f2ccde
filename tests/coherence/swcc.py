"""Software-managed coherence: the Task-Centric Memory Model side.

The left half of Figure 6 gives the per-line states software reasons
about when a line is in the SWcc domain. The *mechanism* (write-allocate
without directory involvement, silent clean drops, explicit WB/INV
instructions) is implemented by the cluster cache controller
(:mod:`repro.sim.cluster`); this test-side module holds the formal state
machine, plus the classification helper that derives a line's SWcc state
from cache metadata and region attributes, so ``test_swcc_fsm.py`` can
check the controller's observable behaviour against the paper's
protocol.

Protocol facts encoded here (Sections 2.1 and 3.3):

* SWcc is a *push* model -- modified data becomes visible to other
  sharers only via explicit writebacks (``WB``) to the globally visible
  L3/memory.
* Reads of shared data are invalidated *lazily*, en masse, at barriers;
  output data is written back *eagerly* at task end.
* Writes allocate in the L2 without waiting for any directory response,
  validating only the written words (per-word dirty/valid bits).
* Clean SWcc lines are dropped silently on eviction or invalidation; no
  message reaches the L3.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.mem.cache import CacheLine
from repro.types import SWState

#: Legal transitions of the software protocol, Figure 6 (left).
#: Keyed by (state, event); events are the instruction mnemonics of the
#: figure plus "EVICT" (an implicit hardware action software must
#: tolerate). Missing keys are protocol violations for SWcc data.
SW_TRANSITIONS: Dict[Tuple[SWState, str], SWState] = {
    # Invalid: first touch.
    (SWState.INVALID, "LD"): SWState.CLEAN,
    (SWState.INVALID, "LD_PRIVATE"): SWState.PRIVATE_CLEAN,
    (SWState.INVALID, "LD_IMMUTABLE"): SWState.IMMUTABLE,
    (SWState.INVALID, "ST"): SWState.PRIVATE_DIRTY,   # write-allocate
    # Clean shared data: read freely, invalidate lazily; a store takes
    # ownership locally (software must know it is the only writer).
    (SWState.CLEAN, "LD"): SWState.CLEAN,
    (SWState.CLEAN, "ST"): SWState.PRIVATE_DIRTY,
    (SWState.CLEAN, "INV"): SWState.INVALID,
    (SWState.CLEAN, "EVICT"): SWState.INVALID,        # silent drop
    # Private clean (e.g. stack lines faulted in by a read).
    (SWState.PRIVATE_CLEAN, "LD"): SWState.PRIVATE_CLEAN,
    (SWState.PRIVATE_CLEAN, "ST"): SWState.PRIVATE_DIRTY,
    (SWState.PRIVATE_CLEAN, "INV"): SWState.INVALID,
    (SWState.PRIVATE_CLEAN, "EVICT"): SWState.INVALID,
    # Private dirty: the only state that owes a writeback.
    (SWState.PRIVATE_DIRTY, "LD"): SWState.PRIVATE_DIRTY,
    (SWState.PRIVATE_DIRTY, "ST"): SWState.PRIVATE_DIRTY,
    (SWState.PRIVATE_DIRTY, "WB"): SWState.CLEAN,
    (SWState.PRIVATE_DIRTY, "EVICT"): SWState.INVALID,  # implicit writeback
    (SWState.PRIVATE_DIRTY, "INV"): SWState.INVALID,    # discard local writes
    # Immutable: read-only for the program's lifetime.
    (SWState.IMMUTABLE, "LD"): SWState.IMMUTABLE,
    (SWState.IMMUTABLE, "INV"): SWState.INVALID,        # e.g. at free()
    (SWState.IMMUTABLE, "EVICT"): SWState.INVALID,
}

#: Events after which the line's current value must be visible at the L3
#: (the globally visible point) -- used by data-correctness tests.
GLOBALLY_VISIBLE_AFTER = ("WB", "EVICT")


def next_state(state: SWState, event: str) -> SWState:
    """Apply one protocol event; raises ``KeyError`` on illegal moves."""
    return SW_TRANSITIONS[(state, event)]


def is_legal(state: SWState, event: str) -> bool:
    return (state, event) in SW_TRANSITIONS


def classify_sw_state(entry: CacheLine, private: bool = False,
                      immutable: bool = False) -> SWState:
    """Derive the Figure 6 state of a resident SWcc line.

    ``entry`` is the L2 tag-array entry; ``private``/``immutable`` come
    from the region attributes the runtime established (stack and code /
    constant segments respectively).
    """
    if entry is None:
        return SWState.INVALID
    if entry.dirty_mask:
        return SWState.PRIVATE_DIRTY
    if immutable:
        return SWState.IMMUTABLE
    if private:
        return SWState.PRIVATE_CLEAN
    return SWState.CLEAN
