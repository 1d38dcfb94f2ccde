"""The programmer-visible Cohesion API (Table 2 of the paper).

Six calls: the two standard libc heap entry points (``malloc``/``free``,
always hardware-coherent), the incoherent-heap pair (``coh_malloc``/
``coh_free``, data allowed to transition domains, initially SWcc, 64-byte
minimum allocation so allocator metadata stays coherent), and the two
region calls (``coh_SWcc_region``/``coh_HWcc_region``) that move an
arbitrary range between domains through the fine-grain region table.

API calls are *host/runtime* actions: they execute on an issuing core
(core 0 by default), issue the real table atomics, and advance that
core's clock, so Cohesion pays its setup and transition costs in every
measured run. Under the non-hybrid policies (pure SWcc / pure HWcc) the
domain-changing calls degrade to plain allocation: there are no tables
to update and no domains to move between.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.config import MachineConfig
from repro.core.heap import make_coherent_heap, make_incoherent_heap
from repro.errors import AllocationError
from repro.mem.address import align_up
from repro.types import Domain

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cohesion import MemorySystem


class CohesionAPI:
    """Table 2's software interface, bound to one machine.

    It holds the machine's configuration, memory system and core-clock
    list (which the machine rewinds in place), not the machine itself.
    """

    def __init__(self, config: MachineConfig, memsys: "MemorySystem",
                 core_clocks: List[float]) -> None:
        self.config = config
        self.memsys = memsys
        self.core_clocks = core_clocks
        layout = memsys.layout
        self.coherent_heap = make_coherent_heap(
            layout.coherent_heap_base, layout.coherent_heap_size)
        self.incoherent_heap = make_incoherent_heap(
            layout.incoherent_heap_base, layout.incoherent_heap_size)
        self.issuing_core = 0

    # -- timing plumbing -----------------------------------------------------
    @property
    def _cluster_of_issuer(self) -> int:
        return self.issuing_core // self.config.cores_per_cluster

    def _now(self) -> float:
        return self.core_clocks[self.issuing_core]

    def _advance(self, finish: float) -> None:
        clocks = self.core_clocks
        if finish > clocks[self.issuing_core]:
            clocks[self.issuing_core] = finish

    def _convert(self, addr: int, size: int, domain: Domain) -> None:
        memsys = self.memsys
        if not memsys.policy.hybrid:
            return
        finish = memsys.transitions.convert_region(
            addr, size, domain, self._cluster_of_issuer, self._now())
        self._advance(finish)

    # == Table 2 ==============================================================

    def malloc(self, size: int) -> int:
        """Allocate on the coherent heap; data is always HWcc."""
        return self.coherent_heap.alloc(size)

    def free(self, ptr: int) -> None:
        """Deallocate a coherent-heap object."""
        self.coherent_heap.free(ptr)

    def coh_malloc(self, size: int) -> int:
        """Allocate on the incoherent heap.

        The allocation may transition coherence domains during its
        lifetime; its initial state is SWcc and it is present in no
        private cache. Minimum size/alignment is 64 bytes (two lines).
        """
        addr = self.incoherent_heap.alloc(size)
        rounded = align_up(max(size, 64), 64)
        self._convert(addr, rounded, Domain.SWCC)
        return addr

    def coh_free(self, ptr: int) -> None:
        """Deallocate an incoherent-heap object.

        The lines keep their current domain bits; ``coh_malloc`` restores
        the initial-SWcc guarantee on reuse (already-SWcc lines cost no
        table traffic).
        """
        self.incoherent_heap.free(ptr)

    def coh_SWcc_region(self, ptr: int, size: int) -> None:
        """Move ``[ptr, ptr+size)`` into the SWcc domain.

        The region may currently hold HWcc or SWcc lines; each HWcc line
        is flushed out of the directory per Figure 7a before its table
        bit is set.
        """
        self._check_range(ptr, size)
        self._convert(ptr, size, Domain.SWCC)

    def coh_HWcc_region(self, ptr: int, size: int) -> None:
        """Move ``[ptr, ptr+size)`` into the HWcc domain (Figure 7b)."""
        self._check_range(ptr, size)
        self._convert(ptr, size, Domain.HWCC)

    # -- helpers ---------------------------------------------------------------
    def _check_range(self, ptr: int, size: int) -> None:
        if size <= 0:
            raise AllocationError("region size must be positive")
        if ptr < 0 or ptr + size > (1 << 32):
            raise AllocationError("region exceeds the 32-bit address space")
