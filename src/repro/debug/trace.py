"""Per-line protocol event tracing.

A :class:`LineTracer` records every operation that touches a watched set
of cache lines -- loads, stores, atomics, software flush/invalidate
instructions, directory probes, and domain transitions -- with
timestamps and the values involved. It is the tool to reach for when a
verification check reports a stale value: the trace shows exactly which
core wrote what, when it was flushed, and who invalidated it.

The tracer subscribes to the machine's observability bus
(:mod:`repro.obs`) rather than wrapping methods: every executed op
reaches the :class:`Cluster` method that emits its event, so an
attached tracer sees each op once. Detach is idempotent, and
because nothing is monkey-patched there is no stale-restore hazard when
other tools (e.g. the model checker's mutation harness) replace methods
while a tracer is attached.

Example::

    tracer = LineTracer(watch={line_of(0x40000000)})
    tracer.attach(machine)
    machine.run(program)
    tracer.detach()
    print(tracer.format())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Set

from repro.mem.address import lines_in_range
from repro.obs.bus import (EV_ATOMIC, EV_FLUSH, EV_INV, EV_LOAD,
                           EV_PROBE_CLEAN, EV_PROBE_DOWN, EV_PROBE_INV,
                           EV_STORE, EV_TO_HWCC, EV_TO_SWCC, ObsEvent,
                           Subscription)


@dataclass(frozen=True)
class TraceEvent:
    """One recorded protocol event."""

    time: float
    kind: str          # load/store/atomic/flush/inv/probe_inv/...
    cluster: int
    core: Optional[int]
    line: int
    addr: Optional[int] = None
    value: Optional[int] = None
    detail: str = ""

    def __str__(self) -> str:
        where = f"cluster {self.cluster}"
        if self.core is not None:
            where += f".{self.core}"
        addr = f" addr={self.addr:#x}" if self.addr is not None else ""
        value = f" value={self.value}" if self.value is not None else ""
        detail = f" ({self.detail})" if self.detail else ""
        return (f"[{self.time:12.1f}] {self.kind:<12s} line {self.line:#x}"
                f"{addr}{value} by {where}{detail}")


class LineTracer:
    """Records events on a watched set of lines (or on every line)."""

    #: The event kinds a line trace is made of. Instruction fetches,
    #: directory bookkeeping, and interconnect/DRAM events are bus-only:
    #: they are not part of a line's protocol story.
    KINDS = (EV_LOAD, EV_STORE, EV_ATOMIC, EV_FLUSH, EV_INV,
             EV_PROBE_INV, EV_PROBE_DOWN, EV_PROBE_CLEAN,
             EV_TO_SWCC, EV_TO_HWCC)

    def __init__(self, watch: Optional[Iterable[int]] = None,
                 max_events: int = 100_000) -> None:
        self.watch: Optional[Set[int]] = set(watch) if watch is not None else None
        self.max_events = max_events
        self.events: List[TraceEvent] = []
        self._subscription: Optional[Subscription] = None
        self.dropped = 0

    # -- recording ----------------------------------------------------------
    def _wants(self, line: int) -> bool:
        return self.watch is None or line in self.watch

    def _record(self, event: TraceEvent) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)

    def _on_event(self, event: ObsEvent) -> None:
        if not self._wants(event.line):
            return
        self._record(TraceEvent(event.time, event.kind, event.cluster,
                                event.core, event.line, event.addr,
                                event.value, event.detail))

    def watch_region(self, base: int, size: int) -> None:
        """Add every line of ``[base, base+size)`` to the watch set."""
        if self.watch is None:
            self.watch = set()
        self.watch.update(lines_in_range(base, size))

    # -- attachment --------------------------------------------------------------
    def attach(self, machine) -> "LineTracer":
        """Start tracing ``machine``; returns self for chaining."""
        if self._subscription is not None:
            raise RuntimeError("tracer is already attached")
        self._subscription = machine.obs.subscribe(self._on_event, self.KINDS)
        return self

    def detach(self) -> None:
        """Stop tracing; idempotent (a second detach is a no-op)."""
        if self._subscription is not None:
            self._subscription.cancel()
            self._subscription = None

    def __enter__(self) -> "LineTracer":
        return self

    def __exit__(self, *exc) -> None:
        self.detach()

    # -- reporting -------------------------------------------------------------------
    def events_for(self, line: int) -> List[TraceEvent]:
        return [event for event in self.events if event.line == line]

    def format(self, line: Optional[int] = None) -> str:
        events = self.events if line is None else self.events_for(line)
        chronological = sorted(events, key=lambda e: e.time)
        lines = [str(event) for event in chronological]
        if self.dropped:
            lines.append(f"... {self.dropped} events dropped "
                         f"(max_events={self.max_events})")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.events)
