"""The executor name surface: one executor, ``interp``.

:class:`~repro.runtime.executor.BspExecutor` is the only executor. The
name survives for callers and wire clients that still pass
``backend="interp"``; any other name is an error.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.runtime.executor import BspExecutor

#: Recognised executor names.
BACKENDS = ("interp",)


def resolve_backend(name):
    """Map an executor name to its class.

    ``None``, the empty string and ``"interp"`` select
    :class:`BspExecutor`; anything else raises :class:`SimulationError`.
    """
    if not name or name == "interp":
        return BspExecutor
    raise SimulationError(
        f"unknown backend {name!r}; the only executor is "
        f"{', '.join(BACKENDS)}")
