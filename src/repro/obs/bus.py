"""The central observability event bus.

Every protocol-visible action in the simulator -- core memory
operations (each announced by the ``Cluster`` method that runs it),
directory allocations and evictions, coherence-domain transitions,
network sends, DRAM accesses, and phase barriers -- is announced on one
machine-wide :class:`EventBus` through an *explicit* ``emit`` hook at
the site where the action happens. Observation tools (the
:class:`~repro.debug.trace.LineTracer`, the barrier invariant checker,
metrics samplers, the Chrome-trace exporter) subscribe to the bus
instead of wrapping methods; tests/obs/test_emit_hooks.py pins one
event per executed op.

Hot-path contract
-----------------
Emit sites MUST guard with the bus's ``active`` flag and only build the
:class:`ObsEvent` behind it::

    obs = self.obs
    if obs.active:
        obs.emit(ObsEvent(now, EV_LOAD, self.id, core, line, addr, value))

``active`` is a plain attribute flipped by subscribe/unsubscribe, so a
disabled bus costs one attribute load and one branch per hook point
(see docs/observability.md).
Because hooks only *observe*, an enabled bus never changes simulated
timing or protocol state: runs are bit-identical with any subscriber
set, including none.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Tuple

# -- event taxonomy ----------------------------------------------------------
# Core-visible memory operations (cluster = issuing cluster, core = the
# cluster-local core index, time = the op's start time at the core).
EV_LOAD = "load"
EV_STORE = "store"
EV_IFETCH = "ifetch"
EV_ATOMIC = "atomic"
EV_FLUSH = "flush"
EV_INV = "inv"
# Directory-initiated probes arriving at a cluster (core is None).
EV_PROBE_INV = "probe_inv"
EV_PROBE_DOWN = "probe_down"
EV_PROBE_CLEAN = "probe_clean"
# Directory bank bookkeeping (core carries the bank index).
EV_DIR_ALLOC = "dir_alloc"
EV_DIR_FREE = "dir_free"
EV_DIR_EVICT = "dir_evict"
# Coherence-domain transitions (directory-side, cluster = -1).
EV_TO_SWCC = "to_swcc"
EV_TO_HWCC = "to_hwcc"
# One L2<->L3 protocol message classified by MessageType (detail field).
EV_MSG = "msg"
# Interconnect sends (detail "up" = toward L3, "down" = toward cluster).
EV_NET = "net"
# One DRAM channel transfer (value = channel index).
EV_DRAM = "dram"
# Phase barrier release (detail = phase name, time = release time).
EV_BARRIER = "barrier"

#: Every kind the simulator emits, in documentation order.
ALL_KINDS: Tuple[str, ...] = (
    EV_LOAD, EV_STORE, EV_IFETCH, EV_ATOMIC, EV_FLUSH, EV_INV,
    EV_PROBE_INV, EV_PROBE_DOWN, EV_PROBE_CLEAN,
    EV_DIR_ALLOC, EV_DIR_FREE, EV_DIR_EVICT,
    EV_TO_SWCC, EV_TO_HWCC, EV_MSG, EV_NET, EV_DRAM, EV_BARRIER)

_EMPTY: tuple = ()


class ObsEvent:
    """One observed simulator action.

    A single record shape serves every kind; unused fields stay at their
    defaults. ``dur`` is the simulated duration of the action where one
    is meaningful (e.g. a load's finish minus start), so exporters can
    render spans without re-deriving timing.
    """

    __slots__ = ("time", "kind", "cluster", "core", "line", "addr",
                 "value", "dur", "detail")

    def __init__(self, time: float, kind: str, cluster: int = -1,
                 core: Optional[int] = None, line: int = -1,
                 addr: Optional[int] = None, value: Optional[int] = None,
                 dur: float = 0.0, detail: str = "") -> None:
        self.time = time
        self.kind = kind
        self.cluster = cluster
        self.core = core
        self.line = line
        self.addr = addr
        self.value = value
        self.dur = dur
        self.detail = detail

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ObsEvent({self.time:.1f}, {self.kind!r}, "
                f"cluster={self.cluster}, core={self.core}, "
                f"line={self.line:#x}, addr={self.addr}, "
                f"value={self.value}, detail={self.detail!r})")


class Subscription:
    """Handle returned by :meth:`EventBus.subscribe`; cancel to detach."""

    __slots__ = ("bus", "callback", "kinds", "active")

    def __init__(self, bus: "EventBus", callback: Callable[[ObsEvent], None],
                 kinds: Optional[Tuple[str, ...]]) -> None:
        self.bus = bus
        self.callback = callback
        self.kinds = kinds
        self.active = True

    def cancel(self) -> None:
        """Detach from the bus; safe to call more than once."""
        self.bus.unsubscribe(self)


class EventBus:
    """Machine-wide dispatch point for :class:`ObsEvent` records.

    One bus is created per :class:`~repro.core.cohesion.MemorySystem`
    (reachable as ``machine.obs``) and shared by every component of that
    machine. Subscriptions are per-kind; a subscription with
    ``kinds=None`` receives everything.
    """

    __slots__ = ("active", "emitted", "_subs")

    def __init__(self) -> None:
        #: True while at least one subscription is attached. Emit sites
        #: read this (and nothing else) on their disabled fast path.
        self.active = False
        #: Total events dispatched since construction.
        self.emitted = 0
        self._subs: dict = {}  # kind (or None = wildcard) -> [callback]

    # -- subscription management -------------------------------------------
    def subscribe(self, callback: Callable[[ObsEvent], None],
                  kinds: Optional[Iterable[str]] = None) -> Subscription:
        """Attach ``callback`` for ``kinds`` (None = every kind)."""
        keys: List[Optional[str]]
        if kinds is None:
            keys = [None]
        else:
            keys = list(dict.fromkeys(kinds))  # dedupe, keep order
            if not keys:
                raise ValueError("kinds must be None or non-empty")
        sub = Subscription(self, callback, None if kinds is None
                           else tuple(keys))
        for key in keys:
            self._subs.setdefault(key, []).append(callback)
        self.active = True
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        """Detach ``sub``; idempotent (a second call is a no-op)."""
        if not sub.active:
            return
        sub.active = False
        keys = [None] if sub.kinds is None else list(sub.kinds)
        for key in keys:
            callbacks = self._subs.get(key)
            if callbacks is None:
                continue
            try:
                callbacks.remove(sub.callback)
            except ValueError:
                pass
            if not callbacks:
                del self._subs[key]
        self.active = bool(self._subs)

    # -- dispatch -----------------------------------------------------------
    def emit(self, event: ObsEvent) -> None:
        """Deliver ``event`` to every matching subscriber.

        Callers guard with ``active`` first; calling emit on an inactive
        bus is harmless but wastes the event construction.
        """
        self.emitted += 1
        subs = self._subs
        for callback in subs.get(event.kind, _EMPTY):
            callback(event)
        for callback in subs.get(None, _EMPTY):
            callback(event)
