"""Exception hierarchy for the Cohesion reproduction.

All library errors derive from :class:`ReproError` so callers can catch one
type. The most interesting subclass is :class:`CoherenceRaceError`, raised
when a SWcc => HWcc transition discovers overlapping dirty words in two L2
caches (Case 5b of Figure 7 in the paper) -- a software bug that the
directory can optionally surface as an exception.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """A machine or policy configuration is inconsistent or unsupported."""


class AllocationError(ReproError):
    """A heap allocation could not be satisfied or a free was invalid."""


class RegionError(ReproError):
    """A region-table operation was malformed (bad range, overlap, ...)."""


class ProtocolError(ReproError):
    """An internal coherence-protocol invariant was violated.

    This indicates a bug in the simulator (or a deliberately corrupted
    state in a test), never a legal program behaviour.
    """


class CoherenceRaceError(ReproError):
    """Two caches hold overlapping dirty words of one SWcc line.

    Corresponds to Case 5b of Figure 7: buggy software modified the same
    words of a line in two L2 caches while the line was software-managed.
    The directory detects the overlap during a SWcc => HWcc transition.
    """

    def __init__(self, line_addr: int, clusters: "tuple[int, ...]", overlap_mask: int):
        self.line_addr = line_addr
        self.clusters = tuple(clusters)
        self.overlap_mask = overlap_mask
        super().__init__(
            f"SWcc write race on line {line_addr:#x}: clusters {self.clusters} "
            f"hold overlapping dirty words (mask {overlap_mask:#04x})"
        )


class SimulationError(ReproError):
    """The simulation engine reached an impossible state (e.g. deadlock)."""


class FreezeError(ReproError):
    """A :class:`~repro.runtime.program.Program` cannot be frozen.

    Raised when the program carries state that has no compact on-disk
    form -- currently only ``Phase.after`` host callbacks, which are
    arbitrary Python callables."""


class ScheduleError(ReproError):
    """A transition schedule names an action, size or barrier that the
    COH010 audit cannot check (it would otherwise skip it silently)."""


class CacheAccessError(ReproError):
    """The on-disk experiment cache could not be accessed.

    Raised by maintenance operations (``repro cache clear``) when the
    store itself is unreachable -- permission problems, live I/O errors
    -- as opposed to *corrupt entries*, which reads tolerate as misses
    and ``verify`` merely reports."""


class StaleArtifactError(ReproError):
    """A cached program artifact no longer matches the live machine.

    Replaying the artifact's allocation log produced different addresses
    than the ones recorded at build time. The caller must discard the
    artifact and rebuild from source on a *fresh* machine (the failed
    replay may have part-allocated this one)."""
