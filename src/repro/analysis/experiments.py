"""Canned drivers for every experiment in the evaluation (Section 4).

Each ``run_*`` function regenerates the data behind one paper figure;
see DESIGN.md's per-experiment index for the mapping. All drivers share
an :class:`ExperimentConfig` that fixes the machine scale (clusters) and
workload scale -- defaults are sized for a laptop; set ``REPRO_CLUSTERS``
/ ``REPRO_SCALE`` (or ``REPRO_FULL=1`` for the paper's 128-cluster
machine) to run larger. EXPERIMENTS.md records which scale produced the
committed numbers.

Every driver sweeps *independent* cells (each builds a fresh machine),
so they all accept ``jobs``/``REPRO_JOBS`` to fan cells across worker
processes and ``progress`` to report completion to stderr; results are
merged in deterministic cell order, so parallel output is bit-identical
to serial output (see :mod:`repro.analysis.parallel`).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.analysis.parallel import Cell, CellSweep, ProgressFn
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


# -- E1/E3: message breakdowns (Figures 2 and 8) -----------------------------

def run_message_breakdown(workloads: Sequence[str] = ALL_WORKLOADS,
                          policies: Optional[Dict[str, Policy]] = None,
                          exp: Optional[ExperimentConfig] = None,
                          jobs: Optional[int] = None,
                          progress: Optional[ProgressFn] = None
                          ) -> Dict[str, Dict[str, RunStats]]:
    """L2->L3 message counts per workload per design point.

    With ``policies = {SWcc, HWccIdeal}`` this is Figure 2; with all four
    standard policies it is Figure 8. Results are raw counts; normalize
    to SWcc for the paper's presentation.
    """
    exp = exp or ExperimentConfig()
    policies = policies or standard_policies()
    sweep = CellSweep(jobs=jobs, progress=progress)
    results: Dict[str, Dict[str, RunStats]] = {}
    for name in workloads:
        results[name] = {}
        for label, policy in policies.items():
            def merge(stats: RunStats, name=name, label=label) -> None:
                results[name][label] = stats
            sweep.add(Cell.make(name, policy, exp,
                                label=f"{name}/{label}"), merge)
    sweep.run()
    return results


# -- E2: useful coherence instructions vs L2 size (Figure 3) -------------------

L2_SWEEP_BYTES = (8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024)


def run_useful_coherence_ops(workloads: Sequence[str] = ALL_WORKLOADS,
                             l2_sizes: Sequence[int] = L2_SWEEP_BYTES,
                             exp: Optional[ExperimentConfig] = None,
                             jobs: Optional[int] = None,
                             progress: Optional[ProgressFn] = None
                             ) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Fraction of SWcc INV/WB instructions that hit valid L2 lines.

    Runs pure SWcc with the L2 swept from 8 KB to 128 KB. Larger caches
    retain lines until their coherence instruction arrives, so the
    useful fraction rises with capacity (Figure 3).
    """
    exp = exp or ExperimentConfig()
    sweep = CellSweep(jobs=jobs, progress=progress)
    results: Dict[str, Dict[int, Dict[str, float]]] = {}
    for name in workloads:
        results[name] = {}
        for l2_bytes in l2_sizes:
            def merge(stats: RunStats, name=name, l2_bytes=l2_bytes) -> None:
                counters = stats.messages
                results[name][l2_bytes] = {
                    "useful_inv": counters.useful_inv_fraction,
                    "useful_wb": counters.useful_wb_fraction,
                    "useful_all": counters.useful_coherence_fraction,
                    "inv_issued": counters.inv_issued,
                    "wb_issued": counters.wb_issued,
                }
            sweep.add(Cell.make(name, Policy.swcc(), exp,
                                label=f"{name}/l2={l2_bytes}",
                                l2_bytes=l2_bytes), merge)
    sweep.run()
    return results


# -- E4/E5: slowdown vs directory size (Figures 9a and 9b) ---------------------

def run_directory_sweep(workloads: Sequence[str] = ALL_WORKLOADS,
                        sizes: Sequence[int] = DIRECTORY_SWEEP_SIZES,
                        hybrid: bool = False,
                        exp: Optional[ExperimentConfig] = None,
                        jobs: Optional[int] = None,
                        progress: Optional[ProgressFn] = None
                        ) -> Dict[str, Dict[int, float]]:
    """Runtime vs directory entries per bank, normalized to infinite.

    Directories are made fully associative to isolate capacity (as in
    the paper); ``hybrid`` selects Cohesion (Figure 9b) instead of pure
    HWcc (Figure 9a).
    """
    exp = exp or ExperimentConfig()
    make = Policy.cohesion if hybrid else Policy.hwcc_real
    baseline_policy = (Policy.cohesion_ideal() if hybrid
                       else Policy.hwcc_ideal())
    sweep = CellSweep(jobs=jobs, progress=progress)
    baselines: Dict[str, float] = {}
    results: Dict[str, Dict[int, float]] = {}
    for name in workloads:
        results[name] = {}

        def merge_base(stats: RunStats, name=name) -> None:
            baselines[name] = max(1.0, stats.cycles)
        sweep.add(Cell.make(name, baseline_policy, exp,
                            label=f"{name}/baseline"), merge_base)
        for entries in sizes:
            policy = make(entries_per_bank=entries, assoc=entries)

            def merge(stats: RunStats, name=name, entries=entries) -> None:
                # Merges replay in append order, so the baseline for
                # this workload is already in place.
                results[name][entries] = stats.cycles / baselines[name]
            sweep.add(Cell.make(name, policy, exp,
                                label=f"{name}/dir={entries}"), merge)
    sweep.run()
    return results


# -- E6: directory occupancy (Figure 9c) ----------------------------------------

def run_directory_occupancy(workloads: Sequence[str] = ALL_WORKLOADS,
                            exp: Optional[ExperimentConfig] = None,
                            jobs: Optional[int] = None,
                            progress: Optional[ProgressFn] = None
                            ) -> Dict[str, Dict[str, dict]]:
    """Time-average and maximum directory entries, classified by segment.

    Both Cohesion and HWcc run with unbounded directories, mirroring the
    paper's methodology of sampling every 1000 cycles (we integrate the
    exact time-weighted occupancy instead of sampling).
    """
    exp = exp or ExperimentConfig()
    sweep = CellSweep(jobs=jobs, progress=progress)
    results: Dict[str, Dict[str, dict]] = {}
    for name in workloads:
        results[name] = {}
        for label, policy in (("Cohesion", Policy.cohesion_ideal()),
                              ("HWcc", Policy.hwcc_ideal())):
            def merge(stats: RunStats, name=name, label=label) -> None:
                results[name][label] = {
                    "avg": stats.dir_avg_entries,
                    "max": stats.dir_max_entries,
                    "by_class": dict(stats.dir_avg_by_class),
                }
            sweep.add(Cell.make(name, policy, exp,
                                label=f"{name}/{label}"), merge)
    sweep.run()
    return results


# -- E7: relative performance (Figure 10) -----------------------------------------

def run_performance(workloads: Sequence[str] = ALL_WORKLOADS,
                    exp: Optional[ExperimentConfig] = None,
                    jobs: Optional[int] = None,
                    progress: Optional[ProgressFn] = None
                    ) -> Dict[str, Dict[str, float]]:
    """Runtime of the six Figure 10 configs, normalized to Cohesion."""
    exp = exp or ExperimentConfig()
    sweep = CellSweep(jobs=jobs, progress=progress)
    raw: Dict[str, Dict[str, float]] = {}
    for name in workloads:
        raw[name] = {}
        for label, policy in figure10_policies().items():
            def merge(stats: RunStats, name=name, label=label) -> None:
                raw[name][label] = stats.cycles
            sweep.add(Cell.make(name, policy, exp,
                                label=f"{name}/{label}"), merge)
    sweep.run()
    results: Dict[str, Dict[str, float]] = {}
    for name, per in raw.items():
        base = max(1.0, per["Cohesion"])
        results[name] = {label: cycles / base for label, cycles in per.items()}
    return results


# -- E10: stack-only ablation (Section 4.3) -----------------------------------------

def run_stack_only_ablation(workloads: Sequence[str] = ALL_WORKLOADS,
                            exp: Optional[ExperimentConfig] = None,
                            jobs: Optional[int] = None,
                            progress: Optional[ProgressFn] = None
                            ) -> Dict[str, Dict[str, float]]:
    """Directory savings from keeping only stacks (and code) incoherent.

    The paper observes that for some benchmarks the stack alone achieves
    much of Cohesion's directory savings, but on average contributes
    only ~15% of HWcc's entries; the bulk of the savings comes from
    moving shared heap/global data to the incoherent heap. This driver
    reports average entries for pure HWcc, Cohesion with *only* the
    coarse stack/code regions incoherent (all workload data forced onto
    the coherent heap), and full Cohesion.
    """
    exp = exp or ExperimentConfig()
    sweep = CellSweep(jobs=jobs, progress=progress)
    raw: Dict[str, Dict[str, RunStats]] = {}
    for name in workloads:
        raw[name] = {}
        for label, policy, force in (
                ("HWcc", Policy.hwcc_ideal(), False),
                ("StackOnly", Policy.cohesion_ideal(), True),
                ("Cohesion", Policy.cohesion_ideal(), False)):
            def merge(stats: RunStats, name=name, label=label) -> None:
                raw[name][label] = stats
            sweep.add(Cell.make(name, policy, exp, force_hw_data=force,
                                label=f"{name}/{label}"), merge)
    sweep.run()
    results: Dict[str, Dict[str, float]] = {}
    for name, per in raw.items():
        hwcc = per["HWcc"]
        results[name] = {
            "HWcc": hwcc.dir_avg_entries,
            "StackOnly": per["StackOnly"].dir_avg_entries,
            "Cohesion": per["Cohesion"].dir_avg_entries,
            "stack_share_of_hwcc": (
                hwcc.dir_avg_by_class[SegmentClass.STACK]
                / max(1.0, hwcc.dir_avg_entries)),
        }
    return results


# -- model-knob ablation (DESIGN.md's substitutions) ---------------------------------

#: Per-cluster write-buffer depths and combining-tree root bandwidths
#: (messages/cycle) swept by :func:`run_model_knobs`.
BUFFER_DEPTHS = (2, 8, 16, 64)
TREE_BANDWIDTHS = (1.0, 2.0, 4.0, 16.0)


def run_model_knobs(workload: str = "sobel",
                    exp: Optional[ExperimentConfig] = None,
                    jobs: Optional[int] = None,
                    progress: Optional[ProgressFn] = None
                    ) -> Dict[Tuple[str, object], RunStats]:
    """Cohesion on one kernel with the simulator's own timing knobs swept.

    The paper gives neither the write-buffer depth nor the combining-tree
    root bandwidth; sweeping them shows whether the committed defaults
    sit on the flat part of each curve. Keys are ``("write_buffer",
    depth)`` and ``("tree_bw", bandwidth)``, in sweep order.
    """
    exp = exp or ExperimentConfig()
    sweep = CellSweep(jobs=jobs, progress=progress)
    results: Dict[Tuple[str, object], RunStats] = {}
    for knob, field_name, values in (
            ("write_buffer", "write_buffer_depth", BUFFER_DEPTHS),
            ("tree_bw", "tree_msgs_per_cycle", TREE_BANDWIDTHS)):
        for value in values:
            def merge(stats: RunStats, key=(knob, value)) -> None:
                results[key] = stats
            sweep.add(Cell.make(workload, Policy.cohesion(), exp,
                                label=f"{workload}/{knob}={value}",
                                **{field_name: value}), merge)
    sweep.run()
    return results
