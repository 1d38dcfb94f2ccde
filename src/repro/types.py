"""Shared enums and integer constants.

Hot-path code (the per-memory-op simulator loop) uses plain ``int``
constants for operation kinds because IntEnum attribute access is several
times slower in CPython. Everything reported to users goes through the
proper enums below.
"""

from __future__ import annotations

import enum

# ---------------------------------------------------------------------------
# Memory-operation kinds (hot path: plain ints).
# ---------------------------------------------------------------------------
# A task is a sequence of (kind, arg) pairs. For memory ops ``arg`` is a
# byte address; for OP_COMPUTE it is a cycle count; OP_BARRIER takes 0.

OP_LOAD = 0      #: data load (word)
OP_STORE = 1     #: data store (word)
OP_ATOMIC = 2    #: uncached atomic read-modify-write, performed at the L3
OP_IFETCH = 3    #: instruction fetch (through L1I)
OP_WB = 4        #: software flush (writeback) instruction for one line
OP_INV = 5       #: software invalidate instruction for one line
OP_COMPUTE = 6   #: spend ``arg`` cycles of pure computation
OP_BARRIER = 7   #: global barrier (only emitted by the runtime)

OP_NAMES = {
    OP_LOAD: "load",
    OP_STORE: "store",
    OP_ATOMIC: "atomic",
    OP_IFETCH: "ifetch",
    OP_WB: "wb",
    OP_INV: "inv",
    OP_COMPUTE: "compute",
    OP_BARRIER: "barrier",
}


class MessageType(enum.Enum):
    """The eight L2 -> L3 message categories of Figures 2 and 8.

    Only messages travelling from a cluster cache (L2) toward the global
    shared last-level cache (L3) / directory are classified; probes sent
    by the directory to L2s are not counted (their *responses* are, as
    ``PROBE_RESPONSE``).
    """

    READ_REQUEST = "read_request"
    WRITE_REQUEST = "write_request"
    INSTRUCTION_REQUEST = "instruction_request"
    UNCACHED_ATOMIC = "uncached_atomic"
    CACHE_EVICTION = "cache_eviction"       # dirty writeback on eviction
    SOFTWARE_FLUSH = "software_flush"       # writeback from an explicit WB op
    READ_RELEASE = "read_release"           # clean-eviction notification (HWcc)
    PROBE_RESPONSE = "probe_response"       # ack/data reply to a directory probe


#: Stacking order used when rendering Figure 2/8 style breakdowns.
MESSAGE_STACK_ORDER = (
    MessageType.READ_REQUEST,
    MessageType.WRITE_REQUEST,
    MessageType.INSTRUCTION_REQUEST,
    MessageType.UNCACHED_ATOMIC,
    MessageType.CACHE_EVICTION,
    MessageType.SOFTWARE_FLUSH,
    MessageType.READ_RELEASE,
    MessageType.PROBE_RESPONSE,
)


class Domain(enum.Enum):
    """Coherence domain of a line or region."""

    HWCC = "hwcc"
    SWCC = "swcc"


class SegmentClass(enum.Enum):
    """Classification of addresses for Figure 9c's occupancy breakdown."""

    CODE = "code"
    STACK = "stack"
    HEAP_GLOBAL = "heap_global"

    # Members are singletons, so identity hashing is exact. It runs in C,
    # where Enum's own ``hash(self._name_)`` is a Python call: directory
    # occupancy keys its per-class counts by member on every alloc/free.
    __hash__ = object.__hash__


class DirState(enum.Enum):
    """MSI directory entry states (no E or O, per Section 3.2)."""

    SHARED = "S"
    MODIFIED = "M"


class SWState(enum.Enum):
    """Software-protocol line states (left half of Figure 6).

    These are the states of the Task-Centric Memory Model as observed for
    a line in one L2 cache. ``INVALID`` is the implicit absent state.
    """

    INVALID = "I"
    CLEAN = "SWCL"            # fetched, unmodified, globally backed
    PRIVATE_CLEAN = "SWPC"    # private data, unmodified
    PRIVATE_DIRTY = "SWPD"    # locally modified (per-word dirty bits)
    IMMUTABLE = "SWIM"        # read-only for the program's lifetime


class PolicyKind(enum.Enum):
    """Top-level memory-model design points evaluated in Section 4."""

    SWCC = "swcc"
    HWCC = "hwcc"
    COHESION = "cohesion"


class DirectoryKind(enum.Enum):
    """Directory organisations from Sections 3.2 and 4.4."""

    INFINITE = "infinite"     # optimistic: full-map, unbounded, zero cost
    SPARSE = "sparse"         # set-associative sparse full-map directory
    DIR4B = "dir4b"           # limited 4-pointer scheme, broadcast on overflow
