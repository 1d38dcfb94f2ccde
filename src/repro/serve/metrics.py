"""Server-side observability: counters, gauges, latency histogram, bus.

The job server reuses the simulator's :class:`~repro.obs.bus.EventBus`
as its announcement channel -- the bus is deliberately generic (kind
strings + one record shape), so server lifecycle events ride the same
subscribe/unsubscribe machinery tests and tools already know. Server
kinds are namespaced ``serve_*`` and never appear on a machine's bus.

Event fields repurposed for the server: ``time`` is wall-clock seconds
(``time.time()`` -- this is host tooling, not simulated state), ``dur``
is the job latency in milliseconds where meaningful, and ``detail``
carries the cell fingerprint (or the failure reason for error kinds).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.obs.bus import EventBus, ObsEvent

# -- server event taxonomy ---------------------------------------------------
SV_SUBMIT = "serve_submit"        # a cell submission was accepted for triage
SV_HIT = "serve_hit"              # answered from the warm result cache
SV_COALESCED = "serve_coalesced"  # joined an identical in-flight job
SV_EXEC = "serve_exec"            # a leader finished a real execution
SV_SHED = "serve_shed"            # admission queue full; job rejected
SV_TIMEOUT = "serve_timeout"      # per-job timeout elapsed
SV_FAIL = "serve_fail"            # job raised (simulation/worker error)
SV_DRAIN = "serve_drain"          # drain started (SIGTERM / stop)

ALL_SERVE_KINDS: Tuple[str, ...] = (
    SV_SUBMIT, SV_HIT, SV_COALESCED, SV_EXEC, SV_SHED, SV_TIMEOUT,
    SV_FAIL, SV_DRAIN)

#: Upper bucket bounds of the latency histogram, in milliseconds. The
#: first buckets are tight because warm hits are specified in single
#: milliseconds; the tail covers real simulations.
LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 30000,
    float("inf"))


class LatencyHistogram:
    """Fixed-bucket latency histogram (cumulative-free, per-bucket)."""

    def __init__(self,
                 buckets_ms: Tuple[float, ...] = LATENCY_BUCKETS_MS) -> None:
        self.bounds = tuple(buckets_ms)
        self.counts: List[int] = [0] * len(self.bounds)
        self.total = 0
        self.sum_ms = 0.0
        self.max_ms = 0.0

    def observe(self, latency_ms: float) -> None:
        self.total += 1
        self.sum_ms += latency_ms
        if latency_ms > self.max_ms:
            self.max_ms = latency_ms
        for index, bound in enumerate(self.bounds):
            if latency_ms <= bound:
                self.counts[index] += 1
                return

    def as_dict(self) -> dict:
        return {
            "buckets_ms": [b if b != float("inf") else "inf"
                           for b in self.bounds],
            "counts": list(self.counts),
            "total": self.total,
            "mean_ms": round(self.sum_ms / self.total, 3) if self.total
            else 0.0,
            "max_ms": round(self.max_ms, 3),
        }


class ServeMetrics:
    """Live counters + gauges of one server instance, bus included."""

    def __init__(self, bus: Optional[EventBus] = None) -> None:
        self.bus = bus if bus is not None else EventBus()
        self.started_at = time.time()
        self.counters: Dict[str, int] = {
            "submitted": 0, "hits": 0, "coalesced": 0, "executed": 0,
            "failed": 0, "timeouts": 0, "shed": 0,
            "drained": 0, "cache_stores": 0, "cache_store_failures": 0,
        }
        # Gauges: jobs admitted but unfinished, and the subset actually
        # occupying a worker right now. queued = active - running.
        self.active = 0
        self.running = 0
        # Separate histograms: warm hits answer in single milliseconds,
        # executions in seconds -- one mixed histogram would hide both.
        self.hit_latency = LatencyHistogram()
        self.exec_latency = LatencyHistogram()

    def count(self, name: str, kind: str, fingerprint: Optional[str] = None,
              latency_ms: float = 0.0, detail: str = "") -> None:
        """Bump ``name`` and announce ``kind`` on the bus."""
        self.counters[name] += 1
        bus = self.bus
        if bus.active:
            bus.emit(ObsEvent(time.time(), kind, dur=latency_ms,
                              detail=detail or (fingerprint or "")))

    @property
    def hit_rate(self) -> float:
        served = (self.counters["hits"] + self.counters["coalesced"]
                  + self.counters["executed"])
        return ((self.counters["hits"] + self.counters["coalesced"]) / served
                if served else 0.0)

    def as_dict(self) -> dict:
        return {
            "uptime_s": round(time.time() - self.started_at, 3),
            "counters": dict(self.counters),
            "queue": {
                "active": self.active,
                "running": self.running,
                "queued": self.active - self.running,
            },
            "hit_rate": round(self.hit_rate, 4),
            "latency": {
                "hit": self.hit_latency.as_dict(),
                "exec": self.exec_latency.as_dict(),
            },
        }
