"""GDDR memory-channel timing model.

The paper used a cycle-accurate GDDR5 model; the relevant behaviour for
every reported result is aggregate bandwidth and per-channel queuing, so
we model each of the eight channels as a :class:`~repro.timing.Resource`
with a fixed access latency plus a bandwidth-derived occupancy per line
transferred (see DESIGN.md, substitutions table).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.bus import EV_DRAM, ObsEvent
from repro.timing import ResourceGroup

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import MachineConfig


class DramModel:
    """Per-channel bandwidth/latency model."""

    __slots__ = ("latency", "occupancy_per_line", "channels", "accesses",
                 "obs")

    def __init__(self, config: "MachineConfig") -> None:
        self.latency = config.dram_latency
        self.occupancy_per_line = (config.line_bytes
                                   / config.dram_bytes_per_cycle_per_channel)
        self.channels = ResourceGroup(config.dram_channels)
        self.accesses = [0] * config.dram_channels
        # Observability bus, wired by the owning MemorySystem.
        self.obs = None

    def access(self, channel: int, now: float, lines: int = 1) -> float:
        """Issue a ``lines``-line transfer on ``channel`` at time ``now``.

        Returns the completion time: queueing delay behind earlier
        transfers, plus the fixed access latency, plus transfer time.
        """
        occupancy = self.occupancy_per_line * lines
        start = self.channels.members[channel].acquire(now, occupancy)
        self.accesses[channel] += 1
        finish = start + self.latency + occupancy
        obs = self.obs
        if obs is not None and obs.active:
            obs.emit(ObsEvent(now, EV_DRAM, value=channel,
                              dur=finish - now, detail=f"lines={lines}"))
        return finish

    @property
    def total_accesses(self) -> int:
        return sum(self.accesses)
