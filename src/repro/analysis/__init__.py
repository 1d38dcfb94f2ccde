"""Experiment declarations and reporting for the paper's figures and tables."""

from repro.analysis.area import (DirectoryAreaModel, dir4b_overhead,
                                 duplicate_tag_overhead, full_map_overhead)
from repro.analysis.experiments import (ExperimentConfig,
                                        directory_occupancy,
                                        directory_sweep, message_breakdown,
                                        model_knobs, performance,
                                        run_workload, stack_only_ablation,
                                        useful_coherence_ops)
from repro.analysis.parallel import Sweep, run_sweeps
from repro.analysis.report import format_table

__all__ = [
    "DirectoryAreaModel",
    "ExperimentConfig",
    "Sweep",
    "dir4b_overhead",
    "directory_occupancy",
    "directory_sweep",
    "duplicate_tag_overhead",
    "format_table",
    "full_map_overhead",
    "message_breakdown",
    "model_knobs",
    "performance",
    "run_sweeps",
    "run_workload",
    "stack_only_ablation",
    "useful_coherence_ops",
]
