"""End-of-run statistics collection.

A :class:`RunStats` snapshot gathers everything the paper's figures need
from one simulation: the L2->L3 message breakdown (Figures 2 and 8), the
time-averaged and maximum directory occupancy with its per-segment
classification (Figure 9c), runtime in cycles (Figures 9a/9b/10), and the
software coherence-instruction efficiency counters (Figure 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.coherence.messages import MessageCounters
from repro.types import MessageType, SegmentClass


@dataclass
class RunStats:
    """Aggregated results of one simulated run."""

    cycles: float = 0.0
    messages: MessageCounters = field(default_factory=MessageCounters)
    tasks_executed: int = 0
    ops_executed: int = 0
    barriers: int = 0

    # directory occupancy (Figure 9c)
    dir_avg_entries: float = 0.0
    dir_max_entries: int = 0
    dir_avg_by_class: Dict[SegmentClass, float] = field(
        default_factory=lambda: {klass: 0.0 for klass in SegmentClass})
    dir_avg_entries_per_bank: list = field(default_factory=list)
    dir_evictions: int = 0

    # substrate counters
    l3_hits: int = 0
    l3_misses: int = 0
    dram_accesses: int = 0
    network_messages: int = 0
    fine_table_lookups: int = 0
    swcc_races: int = 0
    transitions_to_swcc: int = 0
    transitions_to_hwcc: int = 0
    load_mismatches: list = field(default_factory=list)
    """(addr, expected, observed) triples from checked loads; empty on a
    correct protocol run (only populated on track_data machines)."""

    @property
    def total_messages(self) -> int:
        return self.messages.total()

    def message_breakdown(self) -> Dict[MessageType, int]:
        return self.messages.as_dict()

    def summary_lines(self) -> "list[str]":
        """Human-readable one-stat-per-line summary."""
        lines = [
            f"cycles:              {self.cycles:,.0f}",
            f"tasks executed:      {self.tasks_executed:,}",
            f"ops executed:        {self.ops_executed:,}",
            f"total L2->L3 msgs:   {self.total_messages:,}",
        ]
        for mtype, count in self.message_breakdown().items():
            if count:
                lines.append(f"  {mtype.value:<22s}{count:,}")
        lines.append(f"dir entries (avg):   {self.dir_avg_entries:,.1f}")
        lines.append(f"dir entries (max):   {self.dir_max_entries:,}")
        lines.append(f"dir evictions:       {self.dir_evictions:,}")
        if self.messages.wb_issued or self.messages.inv_issued:
            lines.append(
                f"useful WB fraction:  {self.messages.useful_wb_fraction:.3f}")
            lines.append(
                f"useful INV fraction: {self.messages.useful_inv_fraction:.3f}")
        if self.swcc_races:
            lines.append(f"SWcc races detected: {self.swcc_races}")
        return lines

    def as_dict(self) -> dict:
        """Plain-JSON rendering of every reported statistic."""
        return {
            "cycles": self.cycles,
            "tasks_executed": self.tasks_executed,
            "ops_executed": self.ops_executed,
            "barriers": self.barriers,
            "total_messages": self.total_messages,
            "messages": {mtype.value: count for mtype, count
                         in self.message_breakdown().items()},
            "dir_avg_entries": self.dir_avg_entries,
            "dir_max_entries": self.dir_max_entries,
            "dir_avg_by_class": {klass.value: avg for klass, avg
                                 in self.dir_avg_by_class.items()},
            "dir_avg_entries_per_bank": list(self.dir_avg_entries_per_bank),
            "dir_evictions": self.dir_evictions,
            "l3_hits": self.l3_hits,
            "l3_misses": self.l3_misses,
            "dram_accesses": self.dram_accesses,
            "network_messages": self.network_messages,
            "fine_table_lookups": self.fine_table_lookups,
            "swcc_races": self.swcc_races,
            "transitions_to_swcc": self.transitions_to_swcc,
            "transitions_to_hwcc": self.transitions_to_hwcc,
            "wb_issued": self.messages.wb_issued,
            "inv_issued": self.messages.inv_issued,
            "useful_wb_fraction": self.messages.useful_wb_fraction,
            "useful_inv_fraction": self.messages.useful_inv_fraction,
            "load_mismatches": len(self.load_mismatches),
        }


def collect_stats(machine, end_time: float) -> RunStats:
    """Snapshot every counter of ``machine`` at ``end_time``."""
    ms = machine.memsys
    stats = RunStats(cycles=end_time)
    stats.messages = ms.counters.merged_with(MessageCounters())
    stats.l3_hits = sum(bank.hits for bank in ms.l3)
    stats.l3_misses = sum(bank.misses for bank in ms.l3)
    stats.dram_accesses = ms.dram.total_accesses
    stats.network_messages = ms.net.messages
    stats.fine_table_lookups = ms.fine_lookups
    stats.swcc_races = ms.swcc_races
    stats.transitions_to_swcc = ms.transitions.to_swcc_count
    stats.transitions_to_hwcc = ms.transitions.to_hwcc_count
    stats.dir_evictions = sum(d.evictions for d in ms.dirs)
    if ms.dir_occupancy is not None and end_time > 0:
        occ = ms.dir_occupancy
        stats.dir_avg_entries = occ.average(end_time)
        stats.dir_max_entries = occ.max_count
        stats.dir_avg_by_class = occ.average_by_class(end_time)
        # Fold each bank's final interval too (the same end-of-run
        # truncation fix, applied per bank).
        stats.dir_avg_entries_per_bank = [
            bank_dir.occupancy.average(end_time) for bank_dir in ms.dirs]
    return stats
