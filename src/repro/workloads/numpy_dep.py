"""Lazy numpy import for workloads that generate data with it.

dmm and heat evaluate their reference results (matrix product, Jacobi
recurrence) with numpy at build time. numpy is a declared dependency,
but only these two builders need it, so it is imported inside
``build()``: importing :mod:`repro` stays cheap, and a broken install
fails with an actionable error instead of an ImportError at import
time.
"""

from __future__ import annotations

from repro.errors import SimulationError


def require_numpy(workload: str):
    """Return the numpy module, or raise a :class:`SimulationError`."""
    try:
        import numpy
    except ImportError:
        raise SimulationError(
            f"workload {workload!r} generates its dataset with numpy, "
            "which is not installed; numpy is a dependency of repro, so "
            "reinstall it with 'pip install repro' (or plain "
            "'pip install numpy')"
        ) from None
    return numpy
