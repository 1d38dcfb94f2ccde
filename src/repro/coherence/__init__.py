"""Coherence protocols: message taxonomy, directories and MSI."""

from repro.coherence.messages import MessageCounters
from repro.coherence.directory import (
    DirectoryEntry,
    InfiniteDirectory,
    SparseDirectory,
    LimitedPointerDirectory,
    build_directory,
)

__all__ = [
    "DirectoryEntry",
    "InfiniteDirectory",
    "LimitedPointerDirectory",
    "MessageCounters",
    "SparseDirectory",
    "build_directory",
]
