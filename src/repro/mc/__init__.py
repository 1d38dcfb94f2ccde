"""Explicit-state model checking of the Cohesion protocol implementation.

``repro.mc`` drives the *real* ``MemorySystem``/``BaseDirectory``/
``TransitionEngine``/``Cluster`` classes as a transition relation: a
preset pins down a tiny universe (2-4 clusters, 1-2 lines), the
explorer enumerates every interleaving of loads, stores, atomics, cache
instructions, evictions and domain transitions breadth-first under
cluster-permutation symmetry -- by default additionally quotiented by
line symmetry and pruned with footprint-derived sleep sets
(:mod:`repro.mc.reduce`), soundness machine-checked by an equality
gate -- and every reached state is checked
against the protocol's safety invariants plus a write-counter value
oracle. Violations come back as a minimal, replayable counterexample
action trace. ``python -m repro mc`` is the command-line front end;
seeded bugs in :mod:`repro.mc.mutations` are the checker's own
acceptance tests.
"""

from repro.mc.actions import (Action, Candidate, apply_action,
                              candidate_actions, enumerate_actions)
from repro.mc.explorer import McResult, explore
from repro.mc.footprints import (LINE_SCOPED_KINDS, FootprintContext,
                                 build_context)
from repro.mc.invariants import check_state, global_view
from repro.mc.mutations import MUTATIONS, Mutation, apply_mutation
from repro.mc.presets import (ACTION_KINDS, PRESETS, LineSpec, ModelConfig,
                              build_machine)
from repro.mc.reduce import (ReductionContext, equality_gate, line_symmetry,
                             reduction_context, verify_independence)
from repro.mc.state import SpecState, canonical_key
from repro.mc.trace import (action_from_dict, action_to_dict, load_trace,
                            replay, trace_payload, write_trace)

__all__ = [
    "ACTION_KINDS",
    "Action",
    "Candidate",
    "FootprintContext",
    "LINE_SCOPED_KINDS",
    "LineSpec",
    "MUTATIONS",
    "McResult",
    "ModelConfig",
    "Mutation",
    "PRESETS",
    "ReductionContext",
    "SpecState",
    "action_from_dict",
    "action_to_dict",
    "apply_action",
    "apply_mutation",
    "build_context",
    "build_machine",
    "candidate_actions",
    "canonical_key",
    "check_state",
    "enumerate_actions",
    "equality_gate",
    "explore",
    "global_view",
    "line_symmetry",
    "load_trace",
    "reduction_context",
    "replay",
    "trace_payload",
    "verify_independence",
    "write_trace",
]
