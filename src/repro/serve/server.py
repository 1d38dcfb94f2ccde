"""The asyncio HTTP/1.1 front end of ``repro serve``.

Deliberately minimal and dependency-free: one request per connection
(``Connection: close``), JSON in, JSON out, four routes::

    GET  /healthz   liveness ({"status": "ok" | "draining"})
    GET  /stats     metrics snapshot (queue, counters, latency, cache)
    POST /submit    one cell or a batch of cells (see serve.wire)
    GET  /          API index

HTTP status mapping: 200 answered, 400 malformed, 404/405 bad route or
method, 413 oversized, 429 shed (queue full), 500 job failed, 503
draining, 504 job timeout. A *batch* submission always answers 200 with
per-cell records (partial success is normal there); a *single* cell
answers with that cell's own status so curl-level scripting can branch
on the code alone.

Shutdown: SIGTERM/SIGINT stop the listener, drain in-flight jobs up to
the grace period (:data:`~repro.serve.config.DRAIN_GRACE_S`), then
close. Submissions arriving mid-drain get 503 and a ``Retry-After``
hint.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
from typing import Optional, Tuple

from repro.serve.config import DRAIN_GRACE_S, MAX_BODY, ServeConfig
from repro.serve.jobs import JobManager, ServeError
from repro.serve.wire import (WIRE_SCHEMA, WireError, decode_cell,
                              encode_record, submission_cells)

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Bound on one header line / the whole header block, in bytes.
_MAX_HEADER_LINE = 8 * 1024
_MAX_HEADER_LINES = 100

#: Reading one request (line + headers + body) must finish within this.
_REQUEST_READ_TIMEOUT = 30.0


class _BadRequest(Exception):
    def __init__(self, status: int, message: str) -> None:
        self.status = status
        self.message = message
        super().__init__(message)


class ReproServer:
    """One listening socket + its shared :class:`JobManager`."""

    def __init__(self, config: ServeConfig,
                 jobs: Optional[JobManager] = None) -> None:
        self.config = config
        self.jobs = jobs if jobs is not None else JobManager(config)
        self._server: Optional[asyncio.base_events.Server] = None
        self._closed = asyncio.Event()
        self.host = config.host
        self.port = config.port

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port)
        sockets = self._server.sockets or ()
        for sock in sockets:
            self.host, self.port = sock.getsockname()[:2]
            break

    async def stop(self, drain: bool = True) -> bool:
        """Close the listener, optionally drain, wake serve_forever."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        clean = True
        if drain:
            clean = await self.jobs.drain()
        else:
            self.jobs.runner.close()
        self._closed.set()
        return clean

    async def serve_forever(self) -> None:
        await self._closed.wait()

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, lambda s=signum: asyncio.ensure_future(
                        self._on_signal(s)))
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-unix / nested loops: Ctrl-C falls back to KI

    async def _on_signal(self, signum: int) -> None:
        name = signal.Signals(signum).name
        print(f"serve: {name} received; draining "
              f"(grace {DRAIN_GRACE_S:g}s)", file=sys.stderr,
              flush=True)
        clean = await self.stop(drain=True)
        print(f"serve: drained {'cleanly' if clean else 'with jobs left'}; "
              "bye", file=sys.stderr, flush=True)

    # -- one connection ----------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, body = await asyncio.wait_for(
                    self._read_request(reader), _REQUEST_READ_TIMEOUT)
            except asyncio.TimeoutError:
                await self._respond(writer, 408,
                                    {"error": "request read timed out"})
                return
            except _BadRequest as err:
                await self._respond(writer, err.status,
                                    {"error": err.message})
                return
            except (ConnectionError, asyncio.IncompleteReadError):
                return
            status, payload = await self._route(method, path, body)
            await self._respond(writer, status, payload)
        except ConnectionError:  # pragma: no cover - client went away
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Tuple[str, str, bytes]:
        request_line = await reader.readline()
        if not request_line:
            raise asyncio.IncompleteReadError(b"", None)
        if len(request_line) > _MAX_HEADER_LINE:
            raise _BadRequest(400, "request line too long")
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _BadRequest(400, "malformed request line")
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        for _ in range(_MAX_HEADER_LINES):
            line = await reader.readline()
            if len(line) > _MAX_HEADER_LINE:
                raise _BadRequest(400, "header line too long")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise _BadRequest(400, "bad Content-Length") from None
        else:
            raise _BadRequest(400, "too many headers")
        if content_length < 0:
            raise _BadRequest(400, "bad Content-Length")
        if content_length > MAX_BODY:
            raise _BadRequest(
                413, f"body of {content_length} bytes exceeds the "
                     f"{MAX_BODY}-byte limit")
        body = (await reader.readexactly(content_length)
                if content_length else b"")
        return method, path, body

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: dict) -> None:
        body = (json.dumps(payload) + "\n").encode()
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                + ("Retry-After: 1\r\n" if status in (429, 503) else "")
                + "Connection: close\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # -- routing -----------------------------------------------------------
    async def _route(self, method: str, path: str,
                     body: bytes) -> Tuple[int, dict]:
        path = path.split("?", 1)[0]
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "use GET"}
            return 200, {"status": "draining" if self.jobs.draining
                         else "ok", "schema": WIRE_SCHEMA}
        if path == "/stats":
            if method != "GET":
                return 405, {"error": "use GET"}
            return 200, self._stats()
        if path == "/submit":
            if method != "POST":
                return 405, {"error": "use POST"}
            return await self._submit(body)
        if path == "/":
            return 200, {"service": "repro serve", "schema": WIRE_SCHEMA,
                         "endpoints": ["/healthz", "/stats", "/submit"]}
        return 404, {"error": f"no such endpoint {path!r}"}

    def _stats(self) -> dict:
        from repro.cache.programs import PROGRAM_STATS
        from repro.cache.results import RESULT_STATS

        doc = {"schema": WIRE_SCHEMA, "serve": self.jobs.metrics.as_dict()}
        doc["serve"]["draining"] = self.jobs.draining
        doc["serve"]["singleflight_inflight"] = len(self.jobs.flights)
        doc["serve"]["pool"] = self.jobs.runner.as_dict()
        doc["cache"] = {"results": RESULT_STATS.as_dict(),
                        "programs": PROGRAM_STATS.as_dict()}
        return doc

    async def _submit(self, body: bytes) -> Tuple[int, dict]:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as err:
            return 400, {"error": f"body is not valid JSON ({err})"}
        try:
            raw_cells = submission_cells(payload)
        except WireError as err:
            # Envelope problems (shape/schema/size) fail the request;
            # per-cell problems below fail only that cell's record.
            return err.status, {"error": str(err)}

        async def one(raw):
            import time
            start = time.perf_counter()
            try:
                cell = decode_cell(raw)
            except WireError as err:
                return err.status, encode_record("failed", None, 0.0,
                                                 error=str(err))
            try:
                outcome = await self.jobs.submit(cell)
            except ServeError as err:
                latency = (time.perf_counter() - start) * 1000.0
                return err.status, encode_record(
                    err.wire_status, None, latency, error=str(err))
            return 200, encode_record(outcome.status, outcome.fingerprint,
                                      outcome.latency_ms, outcome.stats)

        answered = await asyncio.gather(*(one(raw) for raw in raw_cells))
        records = [record for _status, record in answered]
        single = len(raw_cells) == 1
        status = answered[0][0] if single else 200
        return status, {"schema": WIRE_SCHEMA, "results": records}


# -- entry point ---------------------------------------------------------------

async def _amain(config: ServeConfig,
                 port_file: Optional[str] = None) -> int:
    server = ReproServer(config)
    await server.start()
    server.install_signal_handlers()
    print(f"serve: listening on http://{server.host}:{server.port} "
          f"(pool: {config.jobs or 'per-CPU'} worker(s), "
          f"queue {config.queue_limit}, timeout {config.timeout_s:g}s)",
          flush=True)
    if port_file:
        import pathlib
        path = pathlib.Path(port_file)
        if path.parent != pathlib.Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(f"{server.port}\n")
    await server.serve_forever()
    return 0


def run_server(config: ServeConfig,
               port_file: Optional[str] = None) -> int:
    """Blocking entry point used by ``repro serve``."""
    try:
        return asyncio.run(_amain(config, port_file))
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        return 0
