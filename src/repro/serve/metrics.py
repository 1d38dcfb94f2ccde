"""Server-side observability: counters, gauges, latency histograms.

``GET /stats`` serves :meth:`ServeMetrics.as_dict`; uptime is
wall-clock seconds (``time.time()`` -- this is host tooling, not
simulated state).
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

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
    """Live counters + gauges of one server instance."""

    def __init__(self) -> None:
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
