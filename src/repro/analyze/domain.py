"""The boot-time coherence domain of every cache line.

:class:`DomainModel` resolves domains exactly the way the memory system
would at boot: pure SWcc machines treat everything as software-managed,
pure HWcc machines everything as hardware-coherent, and Cohesion
machines consult the coarse region table and then the fine-grain table
defaults.
"""

from __future__ import annotations

from repro.types import PolicyKind


class DomainModel:
    """Predicts the boot-time coherence domain of every cache line."""

    def __init__(self, kind: PolicyKind, coarse=None, fine=None) -> None:
        self.kind = kind
        self._coarse = coarse
        self._fine = fine

    @classmethod
    def of_layout(cls, kind: PolicyKind, layout=None) -> "DomainModel":
        """Resolve boot-time domains from an address layout alone.

        Rebuilds exactly the region-table state ``Runtime._boot_regions``
        installs at application load -- the three standing coarse SWcc
        regions (code, globals, stacks) and the fine table's default-SWcc
        slice over the incoherent heap -- without constructing a machine.
        This is what lets frozen artifacts be analysed in a process that
        never builds the workload: allocation addresses are already baked
        into the ops, and the shipped allocation paths never flip fine
        bits away from the boot defaults (``coh_malloc`` carves from the
        default-SWcc incoherent heap, ``malloc`` from the HWcc coherent
        heap). Runtime ``to_hwcc``/``to_swcc`` transitions are *not*
        modelled.
        """
        from repro.core.region_table import (CoarseRegionTable,
                                             FineRegionTable)
        from repro.runtime.layout import AddressLayout

        if layout is None:
            layout = AddressLayout()
        coarse = CoarseRegionTable()
        coarse.add(layout.code_base, layout.code_size, name="code")
        coarse.add(layout.globals_base, layout.globals_size, name="globals")
        coarse.add(layout.stack_base, layout.stacks_size, name="stacks")
        fine = FineRegionTable(layout.fine_table_base)
        fine.add_default_swcc_range(layout.incoherent_heap_base,
                                    layout.incoherent_heap_size)
        return cls(kind, coarse=coarse, fine=fine)

    def is_swcc(self, line: int) -> bool:
        if self.kind is PolicyKind.SWCC:
            return True
        if self.kind is PolicyKind.HWCC:
            return False
        return self._coarse.lookup_line(line) or self._fine.is_swcc(line)
