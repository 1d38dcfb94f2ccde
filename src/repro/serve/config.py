"""Operational knobs of the ``repro serve`` job server.

Every knob has a ``REPRO_SERVE_*`` environment variable and a CLI flag;
flags win. The drain grace period and the request-body cap are fixed
module constants. Malformed values raise a
:class:`~repro.errors.SimulationError` naming the variable and its
accepted range, matching the house style of ``REPRO_JOBS``/``REPRO_*``
validation elsewhere.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import SimulationError

#: Default TCP port (no registered meaning; "ISCA" on a phone keypad
#: would be 4722, but that is reserved -- 8642 is simply memorable).
DEFAULT_PORT = 8642

#: Hard cap on one request body (decoded JSON submissions are small;
#: anything bigger is a client bug or abuse).
MAX_BODY = 1 << 20

#: Grace period, in seconds, for in-flight jobs on SIGTERM.
DRAIN_GRACE_S = 30.0


def _env_int(name: str, default: int, minimum: int = 0) -> int:
    raw = os.environ.get(name)
    if raw in (None, ""):
        return default
    try:
        value = int(raw)
    except ValueError:
        raise SimulationError(
            f"{name} must be an integer >= {minimum}; got {raw!r}") from None
    if value < minimum:
        raise SimulationError(
            f"{name} must be an integer >= {minimum}; got {raw!r}")
    return value


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    if raw in (None, ""):
        return default
    try:
        value = float(raw)
    except ValueError:
        raise SimulationError(
            f"{name} must be a positive number; got {raw!r}") from None
    if value <= 0:
        raise SimulationError(
            f"{name} must be a positive number; got {raw!r}")
    return value


@dataclass
class ServeConfig:
    """Everything the server needs to bind, admit, execute, and drain."""

    #: Bind address (``REPRO_SERVE_HOST``). Loopback by default: the
    #: service trusts its submissions, so exposing it is an explicit act.
    host: str = "127.0.0.1"
    #: Bind port (``REPRO_SERVE_PORT``); 0 = pick a free port.
    port: int = DEFAULT_PORT
    #: Worker processes (``REPRO_SERVE_JOBS``; 0 = one per CPU, the
    #: default -- a service exists to amortize, so it takes the machine).
    jobs: int = 0
    #: Max jobs admitted but not yet finished (``REPRO_SERVE_QUEUE``).
    #: Submissions beyond this are shed with a 429; coalesced duplicates
    #: and cache hits never consume a slot.
    queue_limit: int = 64
    #: Per-job execution timeout in seconds (``REPRO_SERVE_TIMEOUT``).
    timeout_s: float = 300.0

    def validate(self) -> "ServeConfig":
        """Re-check after CLI flag overrides (env values are checked on
        read; flags arrive as raw ints/floats)."""
        if not 0 <= self.port <= 65535:
            raise SimulationError(
                f"serve port must be 0..65535 (0 = pick free); "
                f"got {self.port}")
        if self.jobs < 0:
            raise SimulationError(
                f"serve jobs must be >= 0 (0 = one per CPU); "
                f"got {self.jobs}")
        if self.queue_limit < 1:
            raise SimulationError(
                f"serve queue limit must be >= 1; got {self.queue_limit}")
        if self.timeout_s <= 0:
            raise SimulationError(
                f"serve timeout must be positive seconds; "
                f"got {self.timeout_s}")
        return self

    @staticmethod
    def from_env() -> "ServeConfig":
        return ServeConfig(
            host=os.environ.get("REPRO_SERVE_HOST", "127.0.0.1"),
            port=_env_int("REPRO_SERVE_PORT", DEFAULT_PORT),
            jobs=_env_int("REPRO_SERVE_JOBS", 0),
            queue_limit=_env_int("REPRO_SERVE_QUEUE", 64, minimum=1),
            timeout_s=_env_float("REPRO_SERVE_TIMEOUT", 300.0),
        )
