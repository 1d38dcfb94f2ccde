"""Metrics registry: time-series samplers fed by the event bus.

A :class:`MetricsRegistry` attaches a standard set of samplers to one
machine's bus and renders everything as a plain-JSON dict:

* :class:`DirectoryOccupancySampler` -- the directory entry-count
  timeline (global gauge, per-interval last + max) plus per-bank final
  counts; the exact-event companion of the Figure 9c time-weighted
  averages in :class:`~repro.sim.stats.RunStats`.
* :class:`MessageRateSampler` -- per-:class:`~repro.types.MessageType`
  message counts and per-interval rate timelines.
* :class:`PortUtilizationSampler` -- busy-fraction of the L2 ports, L3
  bank ports, tree links/crossbar, and DRAM channels per barrier-to-
  barrier window (the access-driven model's proxy for queue depth: a
  window utilisation near 1.0 means requests were spilling into later
  capacity buckets, i.e. queueing).
* :class:`FlushUsefulnessSampler` -- useful vs. useless WB/INV
  instructions (Figure 3's efficiency metric) as counters and a
  per-interval timeline.

Samplers only subscribe; they never touch simulated state, so an
attached registry changes nothing but adds observation cost. For the
zero-simulation-cost variant used by ``repro run --json``, see
:func:`stats_metrics`, which derives a metrics block from a finished
:class:`~repro.sim.stats.RunStats` instead of live events.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.bus import (EV_BARRIER, EV_DIR_ALLOC, EV_DIR_EVICT,
                           EV_DIR_FREE, EV_FLUSH, EV_INV, EV_MSG, EventBus,
                           ObsEvent)

#: Default width of one timeline bucket, in simulated cycles.
DEFAULT_INTERVAL = 1024.0


class CounterSeries:
    """Events-per-interval accumulator (a rate timeline)."""

    __slots__ = ("interval", "buckets")

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.buckets: Dict[int, float] = {}

    def add(self, time: float, weight: float = 1.0) -> None:
        bucket = int(time / self.interval)
        self.buckets[bucket] = self.buckets.get(bucket, 0.0) + weight

    def as_dict(self) -> dict:
        indices = sorted(self.buckets)
        return {
            "interval": self.interval,
            "t": [index * self.interval for index in indices],
            "count": [self.buckets[index] for index in indices],
        }


class GaugeSeries:
    """Level-per-interval sampler: last value and maximum per bucket."""

    __slots__ = ("interval", "last", "peak", "max_value")

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.last: Dict[int, float] = {}
        self.peak: Dict[int, float] = {}
        self.max_value = 0.0

    def sample(self, time: float, value: float) -> None:
        bucket = int(time / self.interval)
        self.last[bucket] = value
        if value > self.peak.get(bucket, float("-inf")):
            self.peak[bucket] = value
        if value > self.max_value:
            self.max_value = value

    def as_dict(self) -> dict:
        indices = sorted(self.last)
        return {
            "interval": self.interval,
            "t": [index * self.interval for index in indices],
            "value": [self.last[index] for index in indices],
            "peak": [self.peak[index] for index in indices],
            "max": self.max_value,
        }


class Sampler:
    """Base class: one bus subscription plus a JSON rendering."""

    name = "sampler"
    kinds: tuple = ()

    def attach(self, machine) -> "Sampler":
        self._subscription = machine.obs.subscribe(self.on_event, self.kinds)
        return self

    def detach(self) -> None:
        sub = getattr(self, "_subscription", None)
        if sub is not None:
            sub.cancel()
            self._subscription = None

    def on_event(self, event: ObsEvent) -> None:  # pragma: no cover
        raise NotImplementedError

    def as_dict(self) -> dict:  # pragma: no cover
        raise NotImplementedError


class DirectoryOccupancySampler(Sampler):
    """Directory entry-count timeline from dir_alloc/dir_free/dir_evict."""

    name = "dir_occupancy"
    kinds = (EV_DIR_ALLOC, EV_DIR_FREE, EV_DIR_EVICT)

    def __init__(self, interval: float = DEFAULT_INTERVAL) -> None:
        self.series = GaugeSeries(interval)
        self.per_bank: Dict[int, int] = {}
        self.total = 0
        self.allocs = 0
        self.frees = 0
        self.evictions = 0

    def on_event(self, event: ObsEvent) -> None:
        # Directory events carry the bank's post-update entry count in
        # ``value`` and the bank index in ``core``.
        bank = event.core or 0
        new_count = int(event.value or 0)
        self.total += new_count - self.per_bank.get(bank, 0)
        self.per_bank[bank] = new_count
        if event.kind == EV_DIR_ALLOC:
            self.allocs += 1
        elif event.kind == EV_DIR_FREE:
            self.frees += 1
        else:
            self.evictions += 1
        self.series.sample(event.time, float(self.total))

    def as_dict(self) -> dict:
        return {
            "allocs": self.allocs,
            "frees": self.frees,
            "evictions": self.evictions,
            "final_total": self.total,
            "per_bank_final": {str(b): c
                               for b, c in sorted(self.per_bank.items())},
            "timeline": self.series.as_dict(),
        }


class MessageRateSampler(Sampler):
    """Counts and rate timelines per protocol message type."""

    name = "message_rates"
    kinds = (EV_MSG,)

    def __init__(self, interval: float = DEFAULT_INTERVAL) -> None:
        self.interval = interval
        self.totals: Dict[str, float] = {}
        self.series: Dict[str, CounterSeries] = {}

    def on_event(self, event: ObsEvent) -> None:
        mtype = event.detail
        # Aggregated emits (e.g. a clean-request broadcast) weight one
        # event by the number of messages it stands for.
        weight = 1.0 if event.value is None else float(event.value)
        self.totals[mtype] = self.totals.get(mtype, 0.0) + weight
        series = self.series.get(mtype)
        if series is None:
            series = self.series[mtype] = CounterSeries(self.interval)
        series.add(event.time, weight)

    def as_dict(self) -> dict:
        return {
            "totals": {k: self.totals[k] for k in sorted(self.totals)},
            "timelines": {k: self.series[k].as_dict()
                          for k in sorted(self.series)},
        }


class PortUtilizationSampler(Sampler):
    """Busy-fraction of shared ports/links per barrier-to-barrier window.

    At every phase barrier the sampler reads the monotonic ``total_busy``
    counter of each tracked :class:`~repro.timing.Resource` and records
    ``(busy delta) / (window length)``. In the bucketed-capacity timing
    model a window utilisation approaching 1.0 is queueing: later
    requests are being pushed into later capacity buckets.
    """

    name = "port_utilization"
    kinds = (EV_BARRIER,)

    def __init__(self) -> None:
        self.windows: List[dict] = []
        self._machine = None
        self._last_time = 0.0
        self._last_busy: Dict[str, float] = {}

    def attach(self, machine) -> "PortUtilizationSampler":
        self._machine = machine
        self._last_busy = self._read_busy()
        return super().attach(machine)

    def _read_busy(self) -> Dict[str, float]:
        machine = self._machine
        ms = machine.memsys
        busy = {f"l2_port[{c.id}]": c.port.total_busy
                for c in machine.clusters}
        for bank, port in enumerate(ms.bank_ports.members):
            busy[f"l3_bank[{bank}]"] = port.total_busy
        for tree, link in enumerate(ms.net.up_links.members):
            busy[f"net_up[{tree}]"] = link.total_busy
        for tree, link in enumerate(ms.net.down_links.members):
            busy[f"net_down[{tree}]"] = link.total_busy
        busy["net_crossbar"] = ms.net.crossbar.total_busy
        for chan, res in enumerate(ms.dram.channels.members):
            busy[f"dram[{chan}]"] = res.total_busy
        return busy

    def on_event(self, event: ObsEvent) -> None:
        now = event.time
        span = now - self._last_time
        busy = self._read_busy()
        if span > 0:
            self.windows.append({
                "t0": self._last_time,
                "t1": now,
                "phase": event.detail,
                "utilization": {
                    key: (busy[key] - self._last_busy.get(key, 0.0)) / span
                    for key in busy},
            })
        self._last_time = now
        self._last_busy = busy

    def as_dict(self) -> dict:
        return {"windows": self.windows}


class FlushUsefulnessSampler(Sampler):
    """Useful vs. useless software WB/INV instructions (Figure 3).

    A WB is *useful* when it finds its line resident with dirty words,
    *clean* when resident but with nothing to push, and *wasted* when
    the line was already evicted. An INV is useful when the line was
    still resident. Flush/inv events carry the pre-op dirty mask in
    ``value`` (None = line absent).
    """

    name = "flush_usefulness"
    kinds = (EV_FLUSH, EV_INV)

    def __init__(self, interval: float = DEFAULT_INTERVAL) -> None:
        self.wb_issued = 0
        self.wb_dirty = 0
        self.wb_clean = 0
        self.wb_wasted = 0
        self.inv_issued = 0
        self.inv_resident = 0
        self.inv_wasted = 0
        self.useless_series = CounterSeries(interval)

    def on_event(self, event: ObsEvent) -> None:
        useless = False
        if event.kind == EV_FLUSH:
            self.wb_issued += 1
            if event.value is None:
                self.wb_wasted += 1
                useless = True
            elif event.value:
                self.wb_dirty += 1
            else:
                self.wb_clean += 1
                useless = True
        else:
            self.inv_issued += 1
            if event.value is None:
                self.inv_wasted += 1
                useless = True
            else:
                self.inv_resident += 1
        if useless:
            self.useless_series.add(event.time)

    def as_dict(self) -> dict:
        def frac(part: int, whole: int) -> float:
            return part / whole if whole else 0.0
        return {
            "wb_issued": self.wb_issued,
            "wb_dirty": self.wb_dirty,
            "wb_clean": self.wb_clean,
            "wb_wasted": self.wb_wasted,
            "inv_issued": self.inv_issued,
            "inv_resident": self.inv_resident,
            "inv_wasted": self.inv_wasted,
            "useful_wb_fraction": frac(self.wb_dirty, self.wb_issued),
            "useful_inv_fraction": frac(self.inv_resident, self.inv_issued),
            "useless_timeline": self.useless_series.as_dict(),
        }


class MetricsRegistry:
    """The standard sampler set attached to one machine's bus."""

    def __init__(self, machine, interval: float = DEFAULT_INTERVAL) -> None:
        self.machine = machine
        self.interval = interval
        self.samplers: Dict[str, Sampler] = {}
        for sampler in (DirectoryOccupancySampler(interval),
                        MessageRateSampler(interval),
                        PortUtilizationSampler(),
                        FlushUsefulnessSampler(interval)):
            self.samplers[sampler.name] = sampler
            sampler.attach(machine)

    def detach(self) -> None:
        for sampler in self.samplers.values():
            sampler.detach()

    def __enter__(self) -> "MetricsRegistry":
        return self

    def __exit__(self, *exc) -> None:
        self.detach()

    def as_dict(self) -> dict:
        return {"interval": self.interval,
                **{name: sampler.as_dict()
                   for name, sampler in self.samplers.items()}}


def stats_metrics(stats) -> dict:
    """Zero-overhead metrics block derived from a finished run's stats.

    Used for the ``metrics`` block of ``repro run --json`` and the
    ``stats`` block of a ``repro trace`` export: everything here comes
    from counters the simulator maintains anyway, so emitting it costs
    nothing on the hot path (the event bus stays disabled).
    """
    counters = stats.messages
    block = {
        "cycles": stats.cycles,
        "messages": {mtype.value: count
                     for mtype, count in stats.message_breakdown().items()
                     if count},
        "total_messages": stats.total_messages,
        "network_messages": stats.network_messages,
        "dram_accesses": stats.dram_accesses,
        "l3_hits": stats.l3_hits,
        "l3_misses": stats.l3_misses,
        "dir_avg_entries": stats.dir_avg_entries,
        "dir_max_entries": stats.dir_max_entries,
        "dir_avg_entries_per_bank": list(stats.dir_avg_entries_per_bank),
        "dir_evictions": stats.dir_evictions,
        "wb_issued": counters.wb_issued,
        "inv_issued": counters.inv_issued,
        "useful_wb_fraction": counters.useful_wb_fraction,
        "useful_inv_fraction": counters.useful_inv_fraction,
        "transitions_to_swcc": stats.transitions_to_swcc,
        "transitions_to_hwcc": stats.transitions_to_hwcc,
    }
    return block
