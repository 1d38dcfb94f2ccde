"""Simulation-as-a-service: the ``repro serve`` async job server.

Layering (each module depends only on those above it)::

    config        REPRO_SERVE_* knobs -> ServeConfig
    wire          JSON request/response schema <-> Cell
    singleflight  digest -> one in-flight computation
    metrics       counters, gauges, latency histograms
    jobs          cache probe -> coalesce -> admit -> pool -> drain
    server        minimal asyncio HTTP/1.1 front end
    client        blocking stdlib client (tests, smoke, tooling)

See docs/serving.md for the API contract and operational notes.
"""

from repro.serve.client import ServeClient, ServeUnreachable
from repro.serve.config import DEFAULT_PORT, ServeConfig
from repro.serve.jobs import (Draining, JobFailed, JobManager, JobOutcome,
                              JobTimeout, Overloaded, ServeError)
from repro.serve.metrics import LatencyHistogram, ServeMetrics
from repro.serve.server import ReproServer, run_server
from repro.serve.singleflight import SingleFlight
from repro.serve.wire import (MAX_CELLS, WIRE_SCHEMA, WireError, decode_cell,
                              decode_submission, encode_record)

__all__ = [
    "DEFAULT_PORT", "Draining", "JobFailed", "JobManager", "JobOutcome",
    "JobTimeout", "LatencyHistogram", "MAX_CELLS", "Overloaded",
    "ReproServer", "ServeClient",
    "ServeConfig", "ServeError", "ServeMetrics", "ServeUnreachable",
    "SingleFlight", "WIRE_SCHEMA", "WireError", "decode_cell",
    "decode_submission", "encode_record", "run_server",
]
