"""Cohesion: a hybrid hardware/software coherence memory model (ISCA 2010).

A full reproduction of Kelm et al.'s Cohesion system: a 1024-core,
hierarchically cached accelerator simulator with a single address space
supporting software-enforced coherence (the Task-Centric Memory Model),
a directory-based MSI hardware protocol, and Cohesion's region tables
and transition protocol that migrate data between the two domains at
cache-line granularity without copies.

Quickstart::

    from repro import MachineConfig, Policy, Machine, get_workload

    config = MachineConfig().scaled(n_clusters=8)
    machine = Machine(config, Policy.cohesion())
    program = get_workload("stencil", scale=0.25).build(machine)
    stats = machine.run(program)
    print(stats.total_messages, stats.cycles)
"""

from repro.config import MachineConfig, Policy
from repro.core.adaptive import AdaptiveRemapper, RegionProfiler
from repro.core.api import CohesionAPI
from repro.core.cohesion import MemorySystem
from repro.debug import InvariantChecker, LineTracer
from repro.errors import (AllocationError, CoherenceRaceError, ConfigError,
                          ProtocolError, RegionError, ReproError,
                          SimulationError)
from repro.runtime.layout import AddressLayout
from repro.runtime.program import Phase, Program, Task
from repro.sim.machine import Machine
from repro.sim.stats import RunStats
from repro.types import (DirectoryKind, Domain, MessageType, PolicyKind,
                         SegmentClass)
from repro.workloads import ALL_WORKLOADS, WORKLOADS, Workload, get_workload

__version__ = "1.0.0"

__all__ = [
    "ALL_WORKLOADS",
    "AdaptiveRemapper",
    "AddressLayout",
    "AllocationError",
    "CohesionAPI",
    "InvariantChecker",
    "LineTracer",
    "RegionProfiler",
    "CoherenceRaceError",
    "ConfigError",
    "DirectoryKind",
    "Domain",
    "Machine",
    "MachineConfig",
    "MemorySystem",
    "MessageType",
    "Phase",
    "Policy",
    "PolicyKind",
    "Program",
    "ProtocolError",
    "RegionError",
    "ReproError",
    "RunStats",
    "SegmentClass",
    "SimulationError",
    "Task",
    "WORKLOADS",
    "Workload",
    "get_workload",
]
