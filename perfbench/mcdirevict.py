"""The ``mc-direvict`` workload: exhaustive model checking of ``direvict``.

One pass is one complete breadth-first exploration of the ``direvict``
preset (two clusters, two coherent lines contending for one directory
entry) with the symmetry and sleep-set reductions on and one job -- the
configuration ``repro mc`` runs. Model-checker machines interpret the
protocol (plans off), so this is the only workload that times the
interpreted miss path. The exploration takes no seed: every seed runs
the same universe and must reach the same state and transition counts.

The exploration reports progress every :data:`CHUNK_STATES` states; at
each report the host's speed is sampled, and the time that takes is
left out of the pass's wall and CPU time.
"""

from __future__ import annotations

import pathlib
import time
from typing import List

from perfbench.common import (HostClock, median, peak_rss_mb, probe_setup,
                              run_passes)

PRESET = "direvict"
#: States between host-speed samples (about 18 chunks an exploration).
CHUNK_STATES = 250

SETUP_CODE = ("from repro.mc import PRESETS, build_machine; "
              f"build_machine(PRESETS[{PRESET!r}])")


class McRun:
    """One benchmark run of ``mc-direvict``."""

    def __init__(self, seed: int, tmp: pathlib.Path, expected: dict) -> None:
        self.seed = seed
        self.tmp = tmp
        self.expected = expected.get("mc-direvict", {})
        self.attempted = 0
        self.failures: List[str] = []
        self.clock = HostClock()

    def close(self) -> None:
        self.clock.close()

    def setup(self) -> float:
        return probe_setup(SETUP_CODE, self.tmp / "probe", self.clock)

    def run_pass(self) -> dict:
        from repro.mc import PRESETS, build_machine, explore

        model = PRESETS[PRESET]
        # The machine is built outside the timed region (set-up covers
        # it); the exploration itself is what a user of ``repro mc`` waits
        # on.
        machine = build_machine(model)
        self.attempted += 1
        # Time and host-speed samples spent in progress reports are
        # taken out of the pass's wall and CPU time.
        spent = {"wall": 0.0, "cpu": 0.0}
        wall0, cpu0 = time.perf_counter(), time.process_time()

        def sample(_states=0, _transitions=0) -> None:
            now, cpu_now = time.perf_counter(), time.process_time()
            self.clock.sample()
            spent["wall"] += time.perf_counter() - now
            spent["cpu"] += time.process_time() - cpu_now

        try:
            result = explore(model, machine=machine, reduce=True, jobs=1,
                             progress=sample,
                             progress_every=CHUNK_STATES)
        except Exception as err:  # a failed exploration is a counted result
            self.failures.append(f"explore: {type(err).__name__}: {err}")
            return {"wall_s": time.perf_counter() - wall0,
                    "cpu_s": time.process_time() - cpu0,
                    "states": 0, "transitions": 0, "replayed": 0}
        wall = time.perf_counter() - wall0 - spent["wall"]
        cpu = time.process_time() - cpu0 - spent["cpu"]
        self.clock.sample()
        plans = getattr(machine.memsys, "_plans", None)
        replayed = plans.stats()["replayed"] if plans is not None else 0
        if result.violations or not result.exhaustive:
            self.failures.append(
                f"exhaustive={result.exhaustive} "
                f"violations={result.violations[:3]}")
        for key in ("states", "transitions"):
            want = self.expected.get(key)
            if want is not None and getattr(result, key) != want:
                self.failures.append(
                    f"{key} {getattr(result, key)} != expected {want}")
        return {"wall_s": wall, "cpu_s": cpu, "states": result.states,
                "transitions": result.transitions, "replayed": replayed}

    def measure(self, seconds: float) -> dict:
        passes = run_passes(self.run_pass, seconds)
        factor = self.clock.factor()
        # Every transition applies one simulated protocol action (load,
        # store, eviction, domain transition) to the machine.
        ops_per_s = median(p["transitions"] / p["wall_s"] for p in passes)
        return {
            "passes": [round(p["wall_s"], 4) for p in passes],
            "adj_wall_s": median(p["wall_s"] for p in passes) * factor,
            "adj_sim_ops_per_s": ops_per_s / factor,
            "host_ref_ms": self.clock.ref_ms(),
            "wall_s": median(p["wall_s"] for p in passes),
            "cpu_s": median(p["cpu_s"] for p in passes),
            "sim_ops_per_s": ops_per_s,
            "mc_states_per_s": median(p["states"] / p["wall_s"]
                                      for p in passes),
            "peak_rss_mb": peak_rss_mb(),
        }

    def trace(self, seconds: float) -> dict:
        """One untraced exploration, then one traced (``seconds`` unused)."""
        from perfbench.tracer import Tracer
        from repro.runtime.executor import BspExecutor

        untraced = self.run_pass()
        tracer = Tracer()
        # The explorer never runs an executor; wrapping it keeps the
        # layer table identical across workloads (and shows zero).
        tracer.install(BspExecutor)
        try:
            traced = self.run_pass()
        finally:
            tracer.uninstall()
        s, c = tracer.self_s, tracer.calls
        return {
            "trace.wall_s": traced["wall_s"],
            "trace.untraced_wall_s": untraced["wall_s"],
            "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
            "trace.other_s": traced["wall_s"] - sum(s.values()),
            "sim.cluster.self_s": s["sim.cluster"],
            "sim.cluster.calls": c["sim.cluster"],
            "sim.cluster.probe_s": s["sim.cluster.probe"],
            "sim.cluster.probe_calls": c["sim.cluster.probe"],
            "core.cohesion.self_s": s["core.cohesion"],
            "core.cohesion.calls": c["core.cohesion"],
            "core.cohesion.l2_miss_ratio": (c["core.cohesion"]
                                            / max(1, c["sim.cluster"])),
            "core.transitions.self_s": s["core.transitions"],
            "core.transitions.calls": c["core.transitions"],
            "coherence.directory.self_s": s["coherence.directory"],
            "coherence.directory.allocs": c["coherence.directory:allocate"],
            "interconnect.network.self_s": s["interconnect.network"],
            "mem.dram.self_s": s["mem.dram"],
            "sim.machine.build_s": s["sim.machine.build"],
            "runtime.plans.replayed": traced["replayed"],
            "mc.explorer.states": traced["states"],
            "mc.explorer.transitions": traced["transitions"],
            "mc.state.canon_s": s["mc.state"],
            "sim.machine.restore_s": s["sim.machine.restore"],
        }
