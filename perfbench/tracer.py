"""Class-level call tracer for the traced benchmark run.

Each wrapped function is replaced on its class (or module) by a wrapper
that times the call and charges the caller for it: a layer's *self time*
is its calls' duration minus the part covered by wrapped calls made
inside them. Self time and call counts are summed as the calls return
(a record per call would take memory in proportion to the millions of
calls on the larger cells) and read out when the traced pass ends.

Wrappers must be installed before any ``Machine`` is built: machines
and plan tables bind methods at construction, and a method bound before
installation bypasses the wrapper.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

_MISSING = object()

#: layer -> ((import path, attribute owner, attribute names), ...).
#: An owner of ``None`` patches module-level functions; every module
#: that imported the function by name is listed so all call sites see
#: the wrapper.
LAYERS: Dict[str, Tuple[Tuple[str, Optional[str], Tuple[str, ...]], ...]] = {
    "workloads.build": (
        ("repro.cache.programs", None, ("build_program",)),),
    "sim.machine.build": (
        ("repro.sim.machine", "Machine", ("__init__",)),),
    "sim.machine.restore": (
        ("repro.sim.machine", "Machine", ("snapshot", "restore")),),
    "sim.cluster": (
        ("repro.sim.cluster", "Cluster",
         ("load", "store", "ifetch", "atomic", "flush_line",
          "invalidate_line", "evict_line")),),
    "sim.cluster.probe": (
        ("repro.sim.cluster", "Cluster",
         ("probe_invalidate", "probe_downgrade", "probe_clean_query")),),
    "core.cohesion": (
        ("repro.core.cohesion", "MemorySystem",
         ("read_line", "write_line_request", "upgrade_request",
          "writeback", "read_release", "atomic", "table_update")),),
    "core.transitions": (
        ("repro.core.transitions", "TransitionEngine",
         ("to_swcc", "to_hwcc")),),
    "coherence.directory": (
        ("repro.coherence.directory", "BaseDirectory",
         ("allocate", "deallocate")),),
    "interconnect.network": (
        ("repro.interconnect.network", "Network", ("to_l3", "to_cluster")),),
    "mem.dram": (
        ("repro.mem.dram", "DramModel", ("access",)),),
    "sim.stats": (
        ("repro.sim.stats", None, ("collect_stats",)),
        ("repro.runtime.executor", None, ("collect_stats",))),
    "mc.state": tuple(
        (module, None, ("extract_state", "semi_key", "render_signature"))
        for module in ("repro.mc.state", "repro.mc.explorer",
                       "repro.mc.reduce")),
}


class Tracer:
    """Installs timing wrappers and accumulates per-layer totals."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        #: calls per layer, and per ``layer:function`` for identities.
        self.calls: Dict[str, int] = defaultdict(int)
        self._stack: List[float] = []
        self._patches: List[tuple] = []

    # -- installation -----------------------------------------------------
    def install(self, executor_cls) -> None:
        """Wrap every layer in :data:`LAYERS` plus ``executor_cls.run``."""
        for layer, sites in LAYERS.items():
            for module_name, owner_name, names in sites:
                module = importlib.import_module(module_name)
                owner = (module if owner_name is None
                         else getattr(module, owner_name))
                for name in names:
                    self._wrap(owner, name, layer)
        self._wrap(executor_cls, "run", "runtime.executor")

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def _wrap(self, owner, name: str, layer: str) -> None:
        original = vars(owner).get(name, _MISSING)
        target = getattr(owner, name)
        key = f"{layer}:{name}"
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return target(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                self_s[layer] += elapsed - inner
                calls[layer] += 1
                calls[key] += 1
                if stack:
                    stack[-1] += elapsed

        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))
