"""The in-process simulation workloads: ``dirsweep`` and ``fullchip``.

A *pass* runs a workload's fixed list of cells serially through
:func:`repro.analysis.experiments.run_workload`, each on a fresh machine,
with a fresh private ``REPRO_CACHE_DIR`` so every pass pays its program
builds the way a fresh sweep does. (Plan bytecode is cached per process,
so only the first pass compiles plan source from scratch.) A run repeats
passes until its time is up and reports medians over passes.

The benchmark seed reaches the simulator only as the kernels' RNG seeds;
machine shape, scale and policies are fixed. ``heat`` and ``dmm`` draw
only data values from their seed, so ``dirsweep`` simulates the same
work on every seed and its expected digests are checked on every seed.
The ``fullchip`` kernels' statistics depend on the seed, so their
digests are checked on the default seed only.
"""

from __future__ import annotations

import os
import pathlib
import random
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional

from perfbench.common import (DEFAULT_SEED, SEED_FREE_KERNELS, HostClock,
                              backend, median, peak_rss_mb, probe_setup,
                              run_passes, stats_digest)

#: Workload scale of the directory sweep: large enough that the 256-entry
#: directories evict constantly on ``heat``, small enough for several
#: passes per run.
DIRSWEEP_SCALE = 0.1
#: Workload scale of the 128-cluster cells (the paper machine runs the
#: full-scale kernels for 8-20 s a cell; this keeps several passes per run).
FULLCHIP_SCALE = 0.2


@dataclass(frozen=True)
class SimCell:
    """One simulated point: kernel, policy name, machine shape."""

    label: str
    workload: str
    policy: str            # hwcc-ideal | hwcc-real | cohesion
    clusters: int
    scale: float
    entries: Optional[int] = None  # fully associative directory size


def _dirsweep() -> List[SimCell]:
    cells = []
    for kernel in ("heat", "dmm"):
        cells.append(SimCell(f"{kernel}/unbounded", kernel, "hwcc-ideal",
                             16, DIRSWEEP_SCALE))
        for entries in (256, 1024):
            cells.append(SimCell(f"{kernel}/dir{entries}", kernel,
                                 "hwcc-real", 16, DIRSWEEP_SCALE, entries))
    return cells


CELLS: Dict[str, List[SimCell]] = {
    "dirsweep": _dirsweep(),
    "fullchip": [SimCell(f"{kernel}/cohesion", kernel, "cohesion", 128,
                         FULLCHIP_SCALE) for kernel in ("kmeans", "gjk")],
}

#: What a fresh interpreter imports before the first cell can start.
SETUP_CODE = ("import repro.analysis.experiments, repro.cache.programs, "
              "repro.sim.machine, repro.runtime.plans")


def kernel_seed(seed: int, kernel: str) -> int:
    """The kernel RNG seed a benchmark seed maps to."""
    return random.Random(f"{seed}:{kernel}").randrange(1, 2 ** 31)


def _policy(cell: SimCell):
    from repro.config import Policy

    if cell.policy == "hwcc-ideal":
        return Policy.hwcc_ideal()
    if cell.policy == "hwcc-real":
        return Policy.hwcc_real(entries_per_bank=cell.entries,
                                assoc=cell.entries)
    return Policy.cohesion()


def run_cell(cell: SimCell, seed: int):
    """Simulate one cell; returns ``(RunStats, Machine)``."""
    from repro.analysis.experiments import ExperimentConfig, run_workload

    exp = ExperimentConfig(n_clusters=cell.clusters, scale=cell.scale,
                           seed=kernel_seed(seed, cell.workload),
                           backend=backend())
    return run_workload(cell.workload, _policy(cell), exp)


def resource_acquisitions(machine) -> int:
    """Sum of ``Resource.acquisitions`` over every timing resource."""
    ms = machine.memsys
    resources = (list(ms.bank_ports.members) + list(ms.net.up_links.members)
                 + list(ms.net.down_links.members) + [ms.net.crossbar]
                 + list(ms.dram.channels.members)
                 + [cluster.port for cluster in machine.clusters])
    return sum(r.acquisitions for r in resources)


#: MemorySystem entry points and the L2->L3 message types each one
#: sends (``table_update`` is the fine-table RMW, an uncached atomic).
IDENTITIES = (
    (("read_line",), ("read_request", "instruction_request")),
    (("write_line_request", "upgrade_request"), ("write_request",)),
    (("writeback",), ("cache_eviction", "software_flush")),
    (("read_release",), ("read_release",)),
    (("atomic", "table_update"), ("uncached_atomic",)),
)


def identity_errors(calls: Dict[str, int], messages: Dict[str, int]
                    ) -> List[str]:
    """Every way the traced MemorySystem calls disagree with the
    simulator's own L2->L3 message counters (empty when complete)."""
    errors = []
    for methods, types in IDENTITIES:
        seen = sum(calls.get(f"core.cohesion:{m}", 0) for m in methods)
        sent = sum(messages.get(t, 0) for t in types)
        if seen != sent:
            errors.append(f"{'+'.join(methods)}={seen} != "
                          f"{'+'.join(types)}={sent}")
    total = sum(calls.get(f"core.cohesion:{m}", 0)
                for methods, _ in IDENTITIES for m in methods)
    expected = sum(messages.values()) - messages.get("probe_response", 0)
    if total != expected:
        errors.append(f"MemorySystem calls {total} != messages minus "
                      f"probe responses {expected}")
    return errors


class SimRun:
    """One benchmark run of a simulation workload."""

    def __init__(self, workload: str, seed: int, tmp: pathlib.Path,
                 expected: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.cells = CELLS[workload]
        self.expected = expected[workload]
        self.attempted = 0
        self.failures: List[str] = []
        #: label -> digest of the first successful run of that cell.
        self.digests: Dict[str, str] = {}
        self._pass_no = 0
        self.clock = HostClock()

    def close(self) -> None:
        self.clock.close()

    def _fail(self, label: str, why: str) -> None:
        self.failures.append(f"{label}: {why}")

    def _check(self, cell: SimCell, stats) -> None:
        """Output checks every run of ``cell`` must pass."""
        digest = stats_digest(stats.as_dict())
        want = self.expected.get(cell.label)
        checked = (self.seed == DEFAULT_SEED
                   or cell.workload in SEED_FREE_KERNELS)
        if checked and want != digest:
            self._fail(cell.label, f"digest {digest} != expected {want}")
        elif stats.load_mismatches:
            self._fail(cell.label, f"{len(stats.load_mismatches)} "
                                   f"load mismatches")
        elif stats.ops_executed <= 0 or stats.cycles <= 0:
            self._fail(cell.label, "no work simulated")
        elif self.digests.setdefault(cell.label, digest) != digest:
            self._fail(cell.label, "stats differ from an earlier run of "
                                   "the same cell")

    def run_pass(self, on_cell=None) -> dict:
        """Run every cell once; returns per-cell wall/cpu times and ops."""
        from repro.cache.programs import PROGRAM_STATS

        self._pass_no += 1
        os.environ["REPRO_CACHE_DIR"] = str(self.tmp / f"pass{self._pass_no}")
        PROGRAM_STATS.reset()
        ops = 0
        times = {}
        for cell in self.cells:
            self.attempted += 1
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                stats, machine = run_cell(cell, self.seed)
            except Exception as err:  # a failed cell is a counted result
                self._fail(cell.label, f"{type(err).__name__}: {err}")
                continue
            times[cell.label] = (time.perf_counter() - wall0,
                                 time.process_time() - cpu0)
            self.clock.sample()
            self._check(cell, stats)
            ops += stats.ops_executed
            if on_cell is not None:
                on_cell(cell, stats, machine)
            del machine
        return {"times": times, "ops": ops,
                "wall_s": sum(wall for wall, _cpu in times.values()),
                "program_hit_rate": PROGRAM_STATS.hit_rate}

    # -- the two kinds of run -------------------------------------------------
    def setup(self) -> float:
        return probe_setup(SETUP_CODE, self.tmp / "probe", self.clock)

    def measure(self, seconds: float) -> dict:
        """Untraced passes until ``seconds`` is used up; end-to-end metrics."""
        passes = run_passes(self.run_pass, seconds)
        # A pass's time is the sum of each cell's median over passes: a
        # slow spell on a shared host then costs one cell's sample, not a
        # whole pass.
        walls, cpus = defaultdict(list), defaultdict(list)
        for p in passes:
            for label, (wall, cpu) in p["times"].items():
                walls[label].append(wall)
                cpus[label].append(cpu)
        wall = sum(median(v) for v in walls.values())
        ops = median(p["ops"] for p in passes)
        adj_wall = wall * self.clock.factor()
        return {
            "passes": [round(p["wall_s"], 4) for p in passes],
            "adj_wall_s": adj_wall,
            "adj_sim_ops_per_s": ops / adj_wall if adj_wall else 0.0,
            "wall_s": wall,
            "cpu_s": sum(median(v) for v in cpus.values()),
            "sim_ops_per_s": ops / wall if wall else 0.0,
            "host_ref_ms": self.clock.ref_ms(),
            "peak_rss_mb": peak_rss_mb(),
        }

    def trace(self, seconds: float) -> dict:
        """One untraced pass, then the same cells traced; per-layer split.

        ``seconds`` is unused: the traced run is always one pass each way.
        """
        from perfbench.tracer import Tracer
        from repro.runtime.backends import resolve_backend

        untraced = self.run_pass()
        tracer = Tracer()
        tracer.install(resolve_backend(backend()))
        totals = {"ops": 0, "tasks": 0, "compiled": 0, "replayed": 0,
                  "interpreted": 0, "acquisitions": 0, "evictions": 0,
                  "messages": 0, "dram": 0}
        previous = dict(tracer.calls)

        def on_cell(cell, stats, machine):
            nonlocal previous
            counts = dict(tracer.calls)
            calls = {k: v - previous.get(k, 0) for k, v in counts.items()}
            previous = counts
            for error in identity_errors(calls, stats.as_dict()["messages"]):
                self._fail(cell.label, f"traced call identity: {error}")
            totals["ops"] += stats.ops_executed
            totals["tasks"] += stats.tasks_executed
            totals["evictions"] += stats.dir_evictions
            totals["messages"] += stats.network_messages
            totals["dram"] += stats.dram_accesses
            totals["acquisitions"] += resource_acquisitions(machine)
            plans = getattr(machine.memsys, "_plans", None)
            if plans is not None:
                plan_stats = plans.stats()
                for key in ("compiled", "replayed", "interpreted"):
                    totals[key] += plan_stats[key]

        try:
            traced = self.run_pass(on_cell)
        finally:
            tracer.uninstall()
        s, c = tracer.self_s, tracer.calls
        ops = max(1, totals["ops"])
        cluster_calls = c["sim.cluster"]
        replays = totals["replayed"] + totals["interpreted"]
        layers = {
            "trace.wall_s": traced["wall_s"],
            "trace.untraced_wall_s": untraced["wall_s"],
            "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
            "trace.other_s": traced["wall_s"] - sum(s.values()),
            "workloads.build_s": s["workloads.build"],
            "workloads.build_calls": c["workloads.build"],
            "cache.programs.hit_rate": traced["program_hit_rate"],
            "sim.machine.build_s": s["sim.machine.build"],
            "runtime.executor.self_s": s["runtime.executor"],
            "runtime.executor.ops": totals["ops"],
            "runtime.executor.tasks": totals["tasks"],
            "sim.cluster.self_s": s["sim.cluster"],
            "sim.cluster.calls": cluster_calls,
            "sim.cluster.l1_exit_ratio": cluster_calls / ops,
            "sim.cluster.probe_s": s["sim.cluster.probe"],
            "sim.cluster.probe_calls": c["sim.cluster.probe"],
            "core.cohesion.self_s": s["core.cohesion"],
            "core.cohesion.calls": c["core.cohesion"],
            "core.cohesion.l2_miss_ratio": (c["core.cohesion"]
                                            / max(1, cluster_calls)),
            "runtime.plans.compiled": totals["compiled"],
            "runtime.plans.replayed": totals["replayed"],
            "runtime.plans.interpreted": totals["interpreted"],
            "runtime.plans.replay_ratio": (totals["replayed"] / replays
                                           if replays else 0.0),
            "core.transitions.self_s": s["core.transitions"],
            "core.transitions.calls": c["core.transitions"],
            "coherence.directory.self_s": s["coherence.directory"],
            "coherence.directory.allocs": c["coherence.directory:allocate"],
            "coherence.directory.evictions": totals["evictions"],
            "interconnect.network.messages": totals["messages"],
            "interconnect.network.self_s": s["interconnect.network"],
            "mem.dram.accesses": totals["dram"],
            "mem.dram.self_s": s["mem.dram"],
            "timing.acquisitions": totals["acquisitions"],
            "sim.stats.collect_s": s["sim.stats"],
            "sim.machine.restore_s": s["sim.machine.restore"],
        }
        return layers
