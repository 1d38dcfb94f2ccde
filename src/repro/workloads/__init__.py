"""The eight evaluation kernels of Section 4.1 plus the registry.

Each kernel reproduces the task decomposition and sharing pattern of the
paper's benchmark of the same name; see the per-module docstrings for
exactly which behaviour each one exercises.
"""

from typing import Dict, Type

from repro.workloads.base import Buffer, TaskSketch, Workload
from repro.workloads.cg import ConjugateGradient
from repro.workloads.dmm import DenseMatrixMultiply
from repro.workloads.gjk import GJKCollision
from repro.workloads.heat import Heat2D
from repro.workloads.kmeans import KMeans
from repro.workloads.mri import MRIReconstruction
from repro.workloads.sobel import SobelEdgeDetect
from repro.workloads.stencil import Stencil3D

#: Paper order (Figures 2, 8, 9, 10).
WORKLOADS: Dict[str, Type[Workload]] = {
    "cg": ConjugateGradient,
    "dmm": DenseMatrixMultiply,
    "gjk": GJKCollision,
    "heat": Heat2D,
    "kmeans": KMeans,
    "mri": MRIReconstruction,
    "sobel": SobelEdgeDetect,
    "stencil": Stencil3D,
}

ALL_WORKLOADS = tuple(WORKLOADS)


def get_workload(name: str, scale: float = 1.0, seed: int = 1234,
                 **params) -> Workload:
    """Instantiate a registered workload by its paper name.

    Extra keyword arguments override the workload's class-level knobs
    (e.g. ``get_workload("heat", sweeps=4)`` or
    ``get_workload("kmeans", iterations=3)``); unknown knobs raise
    ``TypeError`` so typos do not silently no-op.
    """
    try:
        cls = WORKLOADS[name]
    except KeyError:
        known = ", ".join(ALL_WORKLOADS)
        raise KeyError(f"unknown workload {name!r}; known: {known}") from None
    workload = cls(scale=scale, seed=seed)
    for key, value in params.items():
        if not hasattr(cls, key):
            raise TypeError(f"{name} has no knob {key!r}")
        setattr(workload, key, value)
    return workload


__all__ = [
    "ALL_WORKLOADS",
    "Buffer",
    "ConjugateGradient",
    "DenseMatrixMultiply",
    "GJKCollision",
    "Heat2D",
    "KMeans",
    "MRIReconstruction",
    "SobelEdgeDetect",
    "Stencil3D",
    "TaskSketch",
    "WORKLOADS",
    "Workload",
    "get_workload",
]
