"""Compatibility stub: compiled miss-path plans were removed.

The interpreter walk in :mod:`repro.core.cohesion` and
:mod:`repro.core.transitions` is the only protocol path. This one-value
surface exists because ``perfbench/`` still imports this module and
records ``plans_enabled()`` in its run configuration; it goes with the
next change to the benchmark, like the ``backend`` surface.
"""


def plans_enabled() -> bool:
    """Always False: there is no compiled plan layer."""
    return False
