"""Runtime bring-up: segments, coarse regions, queue/barrier plumbing.

When an application loads, the runtime initialises Cohesion's tables
(Section 3.5): the coarse-grain SWcc regions are pointed at the code
segment, the constant/immutable globals, and the fixed-size per-core
stack segment (the ranges a real system would read from the ELF header),
and the 16 MB fine-grain region table is reserved in high memory and
zeroed (all of memory starts hardware-coherent).

The runtime also owns the shared work-queue and barrier cells used by
the BSP executor and a bump allocator for immutable static data.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.config import MachineConfig
from repro.core.api import CohesionAPI
from repro.errors import AllocationError
from repro.mem.address import align_up

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cohesion import MemorySystem

#: Task descriptors live in a fixed coherent-heap array this many entries
#: long; larger phases wrap around it (descriptors are read-only, so reuse
#: only makes the sharing pattern slightly more favourable).
DESC_CAPACITY = 16 * 1024


class Runtime:
    """Per-application runtime state for one machine.

    Built from the parts of the machine it uses, not the machine, so the
    machine stays free of reference cycles (see DESIGN.md).
    """

    def __init__(self, config: MachineConfig, memsys: "MemorySystem",
                 core_clocks: List[float]) -> None:
        self.layout = memsys.layout
        self.api = CohesionAPI(config, memsys, core_clocks)
        self._static_ptr = self.layout.globals_base
        self._boot_regions(memsys)
        # Shared cells for the task queue and barrier; each on its own
        # line so atomic traffic to them does not false-share.
        self.queue_addr = self.api.malloc(32)
        self.barrier_addr = self.api.malloc(32)
        self.desc_base = self.api.malloc(8 * DESC_CAPACITY)
        self.desc_capacity = DESC_CAPACITY

    def _boot_regions(self, memsys: "MemorySystem") -> None:
        """Install the three standing coarse-grain SWcc regions."""
        layout = self.layout
        coarse = memsys.coarse
        coarse.add(layout.code_base, layout.code_size, name="code")
        coarse.add(layout.globals_base, layout.globals_size, name="globals")
        coarse.add(layout.stack_base, layout.stacks_size, name="stacks")
        # While zeroing the fine-grain table the runtime initialises the
        # slice covering the incoherent heap to ones: lines allocated
        # there start in the SWcc domain (Sections 3.5-3.6).
        memsys.fine.add_default_swcc_range(
            layout.incoherent_heap_base, layout.incoherent_heap_size)

    # -- immutable static data --------------------------------------------
    def static_alloc(self, size: int, align: int = 32) -> int:
        """Allocate immutable data in the globals segment (SWcc coarse).

        Used for constant inputs (matrices, images, lookup tables): under
        Cohesion these are covered by the coarse region table at zero
        table cost; under pure HWcc they are hardware-tracked like
        everything else.
        """
        if size <= 0:
            raise AllocationError("static allocation must be positive")
        addr = align_up(self._static_ptr, align)
        end = addr + size
        limit = self.layout.globals_base + self.layout.globals_size
        if end > limit:
            raise AllocationError("globals segment exhausted")
        self._static_ptr = end
        return addr

    @property
    def static_bytes_used(self) -> int:
        return self._static_ptr - self.layout.globals_base
