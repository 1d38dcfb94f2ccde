"""Safety invariants evaluated at every explored state.

Three layers, all pure observers (no timing, no mutation):

1. the structural protocol invariants already shipped in
   :class:`repro.debug.checker.InvariantChecker` (single writer,
   directory inclusion, domain agreement, SWcc purity, L1 inclusion,
   stale sharers) -- reused verbatim;
2. **global-view**: for every modeled word, the value the hierarchy
   would globally resolve (first coherent dirty L2 copy, else the L3,
   else the backing store) must equal the spec oracle's committed
   value;
3. **coherent-copy**: every valid word of every hardware-coherent L2
   copy must equal the committed value, unless the (cluster, word) pair
   is on the spec's legal-stale whitelist (clean copies carried across
   an SWcc=>HWcc transition).

Software-managed (incoherent) copies are exempt from the value checks
by design: divergence there is the SWcc contract, and the flush/
invalidate obligations it creates are ``repro analyze``'s department.
"""

from __future__ import annotations

from typing import List

from repro.debug.checker import InvariantChecker
from repro.mc.presets import ModelConfig
from repro.mc.state import SpecState
from repro.mem.address import WORD_BYTES, line_base


def global_view(machine, line: int, word: int) -> int:
    """The value the memory model promises ``word`` globally holds."""
    bit = 1 << word
    for cluster in machine.clusters:
        entry = cluster.l2.peek(line)
        if (entry is not None and not entry.incoherent
                and entry.dirty_mask & bit and entry.data is not None):
            return entry.data[word]
    ms = machine.memsys
    bank = ms.map.bank_of_line(line)
    l3_entry = ms.l3[bank].peek(line)
    if (l3_entry is not None and l3_entry.valid_mask & bit
            and l3_entry.data is not None):
        return l3_entry.data[word]
    return ms.backing.read_line_word(line, word)


def check_state(machine, model: ModelConfig, spec: SpecState) -> List[str]:
    """All invariant violations in the machine's current state."""
    problems = [str(v) for v in InvariantChecker(machine).check()]
    for ls in model.lines:
        base = line_base(ls.line)
        for word in ls.words:
            addr = base + WORD_BYTES * word
            want = spec.expected(addr)
            got = global_view(machine, ls.line, word)
            if got != want:
                problems.append(
                    f"global-view: word {addr:#x} resolves to {got}, the "
                    f"committed value is {want}")
    for cid, cluster in enumerate(machine.clusters):
        for ls in model.lines:
            entry = cluster.l2.peek(ls.line)
            if entry is None or entry.incoherent or entry.data is None:
                continue
            base = line_base(ls.line)
            for word in ls.words:
                if not entry.valid_mask & (1 << word):
                    continue
                addr = base + WORD_BYTES * word
                if (cid, addr) in spec.stale:
                    continue
                if entry.data[word] != spec.expected(addr):
                    problems.append(
                        f"coherent-copy: cluster {cid} holds {addr:#x} "
                        f"coherently as {entry.data[word]}, the committed "
                        f"value is {spec.expected(addr)}")
    return problems
