"""Declarations of every experiment in the evaluation (Section 4).

Each declaration (:func:`message_breakdown`, :func:`directory_sweep`,
...) lists the cells behind one paper figure for a kernel list and an
:class:`ExperimentConfig`, plus a reducer from their stats to the
figure's result; see DESIGN.md's per-experiment index for the mapping.
:func:`~repro.analysis.parallel.run_sweeps` runs any set of them as one
batch, each distinct cell once, on ``jobs`` worker processes, and the
reduced results are bit-identical to a serial run's. The
:class:`ExperimentConfig` fixes the machine scale (clusters) and
workload scale -- defaults are sized for a laptop; set
``REPRO_CLUSTERS`` / ``REPRO_SCALE`` (or ``REPRO_FULL=1`` for the
paper's 128-cluster machine) to run larger. EXPERIMENTS.md records which
scale produced the committed numbers.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Optional, Sequence, Tuple

from repro.analysis.parallel import Cell, Sweep
from repro.config import MachineConfig, Policy
from repro.errors import SimulationError
from repro.sim.machine import Machine
from repro.sim.stats import RunStats
from repro.types import DirectoryKind, SegmentClass
from repro.workloads import ALL_WORKLOADS, get_workload

#: Directory sizes swept in Figures 9a/9b (entries per L3 cache bank).
DIRECTORY_SWEEP_SIZES = (256, 512, 1024, 2048, 4096, 8192, 16384)

#: The four design points of Figures 2 and 8.
def standard_policies() -> Dict[str, Policy]:
    return {
        "SWcc": Policy.swcc(),
        "Cohesion": Policy.cohesion(),
        "HWccIdeal": Policy.hwcc_ideal(),
        "HWccReal": Policy.hwcc_real(),
    }


#: The six configurations of Figure 10 (normalized to the first).
def figure10_policies() -> Dict[str, Policy]:
    return {
        "Cohesion": Policy.cohesion_ideal(),
        "CohesionLimited": Policy.cohesion(directory=DirectoryKind.DIR4B),
        "SWcc": Policy.swcc(),
        "HWccOpt": Policy.hwcc_ideal(),
        "HWccReal": Policy.hwcc_real(),
        "HWccLimited": Policy(kind=Policy.hwcc_real().kind,
                              directory=DirectoryKind.DIR4B),
    }


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise SimulationError(
            f"{name} must be a positive integer (e.g. {name}=8); "
            f"got {raw!r}") from None
    if value <= 0:
        raise SimulationError(
            f"{name} must be a positive integer (e.g. {name}=8); "
            f"got {raw!r}")
    return value


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise SimulationError(
            f"{name} must be a positive number (e.g. {name}=0.5); "
            f"got {raw!r}") from None
    if value <= 0:
        raise SimulationError(
            f"{name} must be a positive number (e.g. {name}=0.5); "
            f"got {raw!r}")
    return value


@dataclass
class ExperimentConfig:
    """Machine/workload scale shared by every experiment driver."""

    n_clusters: int = 4
    scale: float = 1.0
    track_data: bool = False
    seed: int = 1234
    ops_per_slice: int = 8
    backend: str = "interp"
    """Executor name; only ``"interp"`` exists (kept for callers that
    still pass it)."""
    overrides: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        from repro.runtime.backends import resolve_backend

        resolve_backend(self.backend)

    @staticmethod
    def from_env() -> "ExperimentConfig":
        """Build from REPRO_* environment variables.

        ``REPRO_FULL=1`` selects the paper's full 128-cluster machine;
        otherwise ``REPRO_CLUSTERS`` (default 4) and ``REPRO_SCALE``
        (default 1.0) control the scaled run. Malformed values raise a
        :class:`~repro.errors.SimulationError` naming the variable and
        its accepted values instead of a raw parse traceback.
        """
        full = os.environ.get("REPRO_FULL")
        if full not in (None, "", "0", "1"):
            raise SimulationError(
                f"REPRO_FULL must be 0 or 1; got {full!r}")
        if full == "1":
            return ExperimentConfig(n_clusters=128)
        return ExperimentConfig(
            n_clusters=_env_int("REPRO_CLUSTERS", 4),
            scale=_env_float("REPRO_SCALE", 1.0),
        )

    def machine_config(self, **extra) -> MachineConfig:
        base = MachineConfig(track_data=self.track_data)
        config = base.scaled(self.n_clusters) if self.n_clusters < 128 else base
        merged = dict(self.overrides)
        merged.update(extra)
        if merged:
            config = dataclasses.replace(config, **merged)
        return config


def run_workload(name: str, policy: Policy, exp: ExperimentConfig,
                 force_hw_data: bool = False, instrument=None, **config_extra
                 ) -> Tuple[RunStats, Machine]:
    """Build a fresh machine, run one workload, return (stats, machine).

    ``instrument``, if given, is called with the machine after the
    program is built but before it runs -- the hook point for attaching
    debug oracles (invariant checkers, tracers) to the machine's bus.

    The program comes through the compiled-artifact store
    (:func:`repro.cache.programs.build_program`): a store hit replays the
    build's allocation side effects and hands the executor the frozen op
    stream directly, which is bit-identical to a fresh build.
    """
    from repro.cache.programs import build_program
    from repro.errors import StaleArtifactError

    machine = Machine(exp.machine_config(**config_extra), policy)
    workload = get_workload(name, scale=exp.scale, seed=exp.seed)
    if force_hw_data:
        workload.force_hw_data = True
    try:
        program = build_program(name, workload, machine)
    except StaleArtifactError:
        # The failed replay may have part-allocated the machine; rebuild
        # everything from scratch so the run matches a fresh one exactly.
        machine = Machine(exp.machine_config(**config_extra), policy)
        program = workload.build(machine)
    if instrument is not None:
        instrument(machine)
    stats = machine.run(program, ops_per_slice=exp.ops_per_slice)
    return stats, machine


def _policy_cells(exp: ExperimentConfig, workloads: Sequence[str],
                  policies: Dict[str, Policy]
                  ) -> Tuple[Tuple[Hashable, Cell], ...]:
    """One cell per workload and labelled policy, keyed ``(name, label)``."""
    return tuple(((name, label), Cell.make(name, policy, exp,
                                           label=f"{name}/{label}"))
                 for name in workloads for label, policy in policies.items())


def _nested(stats: Dict[Hashable, RunStats], outer: Sequence, inner: Sequence,
            value: Callable[[RunStats], object] = lambda stats: stats
            ) -> Dict:
    """``{o: {i: value(stats[o, i]) for i in inner} for o in outer}``."""
    return {o: {i: value(stats[o, i]) for i in inner} for o in outer}


# -- E1/E3: message breakdowns (Figures 2 and 8) -----------------------------

def message_breakdown(exp: ExperimentConfig,
                      workloads: Sequence[str] = ALL_WORKLOADS,
                      policies: Optional[Dict[str, Policy]] = None) -> Sweep:
    """L2->L3 message counts per workload per design point.

    With ``policies = {SWcc, HWccIdeal}`` this is Figure 2; with all four
    standard policies it is Figure 8. Results are raw
    ``{workload: {label: RunStats}}``; normalize to SWcc for the paper's
    presentation.
    """
    policies = policies or standard_policies()
    return Sweep(_policy_cells(exp, workloads, policies),
                 lambda stats: _nested(stats, workloads, policies))


# -- E2: useful coherence instructions vs L2 size (Figure 3) -------------------

L2_SWEEP_BYTES = (8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024)


def _useful_ops(stats: RunStats) -> Dict[str, float]:
    counters = stats.messages
    return {
        "useful_inv": counters.useful_inv_fraction,
        "useful_wb": counters.useful_wb_fraction,
        "useful_all": counters.useful_coherence_fraction,
        "inv_issued": counters.inv_issued,
        "wb_issued": counters.wb_issued,
    }


def useful_coherence_ops(exp: ExperimentConfig,
                         workloads: Sequence[str] = ALL_WORKLOADS,
                         l2_sizes: Sequence[int] = L2_SWEEP_BYTES) -> Sweep:
    """Fraction of SWcc INV/WB instructions that hit valid L2 lines.

    Runs pure SWcc with the L2 swept from 8 KB to 128 KB. Larger caches
    retain lines until their coherence instruction arrives, so the
    useful fraction rises with capacity (Figure 3).
    """
    return Sweep(
        tuple(((name, l2_bytes),
               Cell.make(name, Policy.swcc(), exp,
                         label=f"{name}/l2={l2_bytes}", l2_bytes=l2_bytes))
              for name in workloads for l2_bytes in l2_sizes),
        lambda stats: _nested(stats, workloads, l2_sizes, _useful_ops))


# -- E4/E5: slowdown vs directory size (Figures 9a and 9b) ---------------------

def directory_sweep(exp: ExperimentConfig,
                    workloads: Sequence[str] = ALL_WORKLOADS,
                    sizes: Sequence[int] = DIRECTORY_SWEEP_SIZES,
                    hybrid: bool = False) -> Sweep:
    """Runtime vs directory entries per bank, normalized to infinite.

    Directories are made fully associative to isolate capacity (as in
    the paper); ``hybrid`` selects Cohesion (Figure 9b) instead of pure
    HWcc (Figure 9a).
    """
    make = Policy.cohesion if hybrid else Policy.hwcc_real
    baseline = Policy.cohesion_ideal() if hybrid else Policy.hwcc_ideal()
    cells = []
    for name in workloads:
        cells.append(((name, "baseline"),
                      Cell.make(name, baseline, exp,
                                label=f"{name}/baseline")))
        cells.extend(((name, entries),
                      Cell.make(name, make(entries_per_bank=entries,
                                           assoc=entries), exp,
                                label=f"{name}/dir={entries}"))
                     for entries in sizes)

    def reduce(stats):
        return {name: {entries: stats[name, entries].cycles
                       / max(1.0, stats[name, "baseline"].cycles)
                       for entries in sizes}
                for name in workloads}
    return Sweep(tuple(cells), reduce)


# -- E6: directory occupancy (Figure 9c) ----------------------------------------

def _occupancy(stats: RunStats) -> dict:
    return {"avg": stats.dir_avg_entries, "max": stats.dir_max_entries,
            "by_class": dict(stats.dir_avg_by_class)}


def directory_occupancy(exp: ExperimentConfig,
                        workloads: Sequence[str] = ALL_WORKLOADS) -> Sweep:
    """Time-average and maximum directory entries, classified by segment.

    Both Cohesion and HWcc run with unbounded directories, mirroring the
    paper's methodology of sampling every 1000 cycles (we integrate the
    exact time-weighted occupancy instead of sampling).
    """
    policies = {"Cohesion": Policy.cohesion_ideal(),
                "HWcc": Policy.hwcc_ideal()}
    return Sweep(_policy_cells(exp, workloads, policies),
                 lambda stats: _nested(stats, workloads, policies,
                                       _occupancy))


# -- E7: relative performance (Figure 10) -----------------------------------------

def performance(exp: ExperimentConfig,
                workloads: Sequence[str] = ALL_WORKLOADS) -> Sweep:
    """Runtime of the six Figure 10 configs, normalized to Cohesion."""
    policies = figure10_policies()

    def reduce(stats):
        return {name: {label: stats[name, label].cycles
                       / max(1.0, stats[name, "Cohesion"].cycles)
                       for label in policies}
                for name in workloads}
    return Sweep(_policy_cells(exp, workloads, policies), reduce)


# -- E10: stack-only ablation (Section 4.3) -----------------------------------------

def stack_only_ablation(exp: ExperimentConfig,
                        workloads: Sequence[str] = ALL_WORKLOADS) -> Sweep:
    """Directory savings from keeping only stacks (and code) incoherent.

    The paper observes that for some benchmarks the stack alone achieves
    much of Cohesion's directory savings, but on average contributes
    only ~15% of HWcc's entries; the bulk of the savings comes from
    moving shared heap/global data to the incoherent heap. This sweep
    reports average entries for pure HWcc, Cohesion with *only* the
    coarse stack/code regions incoherent (all workload data forced onto
    the coherent heap), and full Cohesion.
    """
    configs = (("HWcc", Policy.hwcc_ideal(), False),
               ("StackOnly", Policy.cohesion_ideal(), True),
               ("Cohesion", Policy.cohesion_ideal(), False))

    def reduce(stats):
        results = {}
        for name in workloads:
            hwcc = stats[name, "HWcc"]
            results[name] = {
                "HWcc": hwcc.dir_avg_entries,
                "StackOnly": stats[name, "StackOnly"].dir_avg_entries,
                "Cohesion": stats[name, "Cohesion"].dir_avg_entries,
                "stack_share_of_hwcc": (
                    hwcc.dir_avg_by_class[SegmentClass.STACK]
                    / max(1.0, hwcc.dir_avg_entries)),
            }
        return results
    return Sweep(
        tuple(((name, label), Cell.make(name, policy, exp,
                                        force_hw_data=force,
                                        label=f"{name}/{label}"))
              for name in workloads for label, policy, force in configs),
        reduce)


# -- model-knob ablation (DESIGN.md's substitutions) ---------------------------------

#: Per-cluster write-buffer depths and combining-tree root bandwidths
#: (messages/cycle) swept by :func:`model_knobs`.
BUFFER_DEPTHS = (2, 8, 16, 64)
TREE_BANDWIDTHS = (1.0, 2.0, 4.0, 16.0)


def model_knobs(exp: ExperimentConfig, workload: str = "sobel") -> Sweep:
    """Cohesion on one kernel with the simulator's own timing knobs swept.

    The paper gives neither the write-buffer depth nor the combining-tree
    root bandwidth; sweeping them shows whether the committed defaults
    sit on the flat part of each curve. Result keys are
    ``("write_buffer", depth)`` and ``("tree_bw", bandwidth)``, in sweep
    order, each mapped to its :class:`RunStats`.
    """
    return Sweep(
        tuple(((knob, value),
               Cell.make(workload, Policy.cohesion(), exp,
                         label=f"{workload}/{knob}={value}",
                         **{field_name: value}))
              for knob, field_name, values in (
                  ("write_buffer", "write_buffer_depth", BUFFER_DEPTHS),
                  ("tree_bw", "tree_msgs_per_cycle", TREE_BANDWIDTHS))
              for value in values),
        dict)
