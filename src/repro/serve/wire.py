"""Wire schema of the ``repro serve`` HTTP/JSON API.

A *submission* is a JSON object with either one ``cell`` or a list of
``cells``; each cell names everything that identifies a simulation
point, mirroring :class:`~repro.analysis.parallel.Cell` +
:class:`~repro.analysis.experiments.ExperimentConfig`::

    {"schema": 1,
     "cells": [{"workload": "kmeans", "policy": "cohesion",
                "clusters": 2, "scale": 0.12, "seed": 1234,
                "config": {"l2_bytes": 16384}, "label": "mine"}]}

Requests are **self-contained**: defaults are fixed constants (the
library defaults), never the server's ``REPRO_*`` environment, so a
cell's cache fingerprint -- and therefore single-flight identity --
depends only on the bytes the client sent, not on which server instance
decoded them.

Responses carry one *record* per submitted cell::

    {"status": "hit" | "executed" | "coalesced" | "shed" | "failed"
               | "timeout" | "draining",
     "fingerprint": "<sha256 or null>", "latency_ms": 1.3,
     "result": {"stats": {...}, "aux": {...}} | null,
     "error": "<message>" | null}

``result`` is exactly the content-addressed cache's lossless entry form
(:func:`repro.cache.results.encode_stats`), so two identical
submissions -- whatever mix of hit/executed/coalesced served them --
compare byte-identical on ``result``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional

from repro.analysis.parallel import Cell
from repro.errors import ConfigError, ReproError

#: Bumped whenever the request/response layout changes incompatibly.
WIRE_SCHEMA = 1

#: Upper bound on cells per submission (a sweep should batch, not DoS).
MAX_CELLS = 256


class WireError(ReproError):
    """A malformed request; ``status`` is the HTTP code to answer with."""

    def __init__(self, message: str, status: int = 400) -> None:
        self.status = status
        super().__init__(message)


def _machine_config_fields() -> frozenset:
    from repro.config import MachineConfig

    return frozenset(f.name for f in dataclasses.fields(MachineConfig))


def _require(obj: dict, key: str, kind, default=None, required: bool = False):
    if key not in obj:
        if required:
            raise WireError(f"cell is missing required field {key!r}")
        return default
    value = obj[key]
    # bool is an int subclass; keep the two apart so "track_data": 1 and
    # "seed": true fail loudly instead of silently coercing.
    if kind is int and isinstance(value, bool):
        raise WireError(f"cell field {key!r} must be an integer")
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if not isinstance(value, kind):
        raise WireError(
            f"cell field {key!r} must be {kind.__name__}; "
            f"got {type(value).__name__}")
    return value


def decode_cell(obj) -> Cell:
    """One wire cell -> a :class:`Cell` (raises :class:`WireError`)."""
    from repro.analysis.experiments import ExperimentConfig
    from repro.cli import POLICY_CHOICES, policy_from_name
    from repro.runtime.backends import BACKENDS
    from repro.workloads import ALL_WORKLOADS

    if not isinstance(obj, dict):
        raise WireError("each cell must be a JSON object")
    known = {"workload", "policy", "dir_entries", "dir_assoc", "clusters",
             "scale", "seed", "ops_per_slice", "backend", "track_data",
             "force_hw_data", "label", "config"}
    unknown = sorted(set(obj) - known)
    if unknown:
        raise WireError(f"unknown cell field(s): {', '.join(unknown)} "
                        f"(known: {', '.join(sorted(known))})")

    workload = _require(obj, "workload", str, required=True)
    if workload not in ALL_WORKLOADS:
        raise WireError(f"unknown workload {workload!r} "
                        f"(have: {', '.join(ALL_WORKLOADS)})")
    policy_name = _require(obj, "policy", str, default="cohesion")
    if policy_name not in POLICY_CHOICES:
        raise WireError(f"unknown policy {policy_name!r} "
                        f"(have: {', '.join(POLICY_CHOICES)})")
    # Accepted for wire compatibility; "interp" is the only executor.
    backend = _require(obj, "backend", str, default="interp")
    if backend not in BACKENDS:
        raise WireError(f"unknown backend {backend!r} "
                        f"(have: {', '.join(BACKENDS)})")
    clusters = _require(obj, "clusters", int, default=4)
    if clusters < 1:
        raise WireError("cell field 'clusters' must be >= 1")
    scale = _require(obj, "scale", float, default=1.0)
    if not 0 < scale < math.inf:
        raise WireError("cell field 'scale' must be finite and > 0")
    ops_per_slice = _require(obj, "ops_per_slice", int, default=8)
    if ops_per_slice < 1:
        raise WireError("cell field 'ops_per_slice' must be >= 1")

    config = obj.get("config", {})
    if not isinstance(config, dict):
        raise WireError("cell field 'config' must be an object")
    allowed = _machine_config_fields()
    extra = {}
    for key, value in config.items():
        if key not in allowed:
            raise WireError(f"unknown machine-config override {key!r}")
        if not isinstance(value, (int, float, bool, str)):
            raise WireError(
                f"machine-config override {key!r} must be a scalar")
        extra[key] = value

    dir_entries = _require(obj, "dir_entries", int, default=16 * 1024)
    dir_assoc = _require(obj, "dir_assoc", int, default=128)
    exp = ExperimentConfig(
        n_clusters=clusters,
        scale=scale,
        track_data=_require(obj, "track_data", bool, default=False),
        seed=_require(obj, "seed", int, default=1234),
        ops_per_slice=ops_per_slice)
    # Build the policy and the machine now: a bad directory size or
    # override is the client's 400 here, not a failed job in the worker.
    # Each step blames only its own fields: the policy the directory
    # fields the cell set (the defaults are valid), the bare machine the
    # cluster count, and the overrides last.
    blamed = ", ".join(repr(name) for name in ("dir_entries", "dir_assoc")
                       if name in obj)
    try:
        policy = policy_from_name(policy_name, dir_entries, dir_assoc)
        blamed = "'clusters'"
        exp.machine_config()
        if extra:
            blamed = ", ".join(map(repr, extra))
            exp.machine_config(**extra)
    except (ConfigError, TypeError, ValueError, ArithmeticError) as exc:
        raise WireError(f"machine config rejected ({blamed}): {exc}") from None
    return Cell.make(workload, policy, exp,
                     force_hw_data=_require(obj, "force_hw_data", bool,
                                            default=False),
                     label=_require(obj, "label", str, default="") or workload,
                     **extra)


def submission_cells(payload) -> List[object]:
    """Envelope checks only: a request body -> its raw cell objects.

    Raises :class:`WireError` for problems with the submission *as a
    whole* (wrong shape, wrong schema, too many cells); the cells
    themselves are not decoded, so a batch with one malformed cell can
    still be answered per-cell.
    """
    if not isinstance(payload, dict):
        raise WireError("request body must be a JSON object")
    schema = payload.get("schema", WIRE_SCHEMA)
    if schema != WIRE_SCHEMA:
        raise WireError(f"unsupported schema {schema!r} "
                        f"(this server speaks {WIRE_SCHEMA})")
    if ("cell" in payload) == ("cells" in payload):
        raise WireError("submit exactly one of 'cell' or 'cells'")
    raw = [payload["cell"]] if "cell" in payload else payload["cells"]
    if not isinstance(raw, list):
        raise WireError("'cells' must be a list")
    if not raw:
        raise WireError("submission contains no cells")
    if len(raw) > MAX_CELLS:
        raise WireError(f"too many cells in one submission "
                        f"({len(raw)} > {MAX_CELLS}); batch your sweep",
                        status=413)
    return raw


def decode_submission(payload) -> List[Cell]:
    """A request body -> the list of cells it submits (all-or-nothing)."""
    return [decode_cell(entry) for entry in submission_cells(payload)]


def encode_record(status: str, fingerprint: Optional[str],
                  latency_ms: float, stats=None,
                  error: Optional[str] = None) -> dict:
    """One per-cell response record (see module docstring)."""
    from repro.cache.results import encode_stats

    return {
        "status": status,
        "fingerprint": fingerprint,
        "latency_ms": round(latency_ms, 3),
        "result": None if stats is None else encode_stats(stats),
        "error": error,
    }
