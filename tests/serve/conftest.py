"""Fixtures for the job-server tests.

No pytest-asyncio in the toolchain: coroutine tests wrap themselves in
``asyncio.run`` (see the ``run`` helper), and the HTTP integration
tests run the server's event loop on a background thread while the
blocking :class:`~repro.serve.client.ServeClient` talks to it from the
test thread -- exactly how a real client process would.
"""

import asyncio
import threading

import pytest


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """A private, enabled cache root, with global counters zeroed."""
    from repro.cache import PROGRAM_STATS, RESULT_STATS

    root = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    RESULT_STATS.reset()
    PROGRAM_STATS.reset()
    return root


def run(coroutine, timeout_s: float = 60.0):
    """``asyncio.run`` with a hang guard (a stuck test fails, not CI)."""
    async def guarded():
        return await asyncio.wait_for(coroutine, timeout_s)
    return asyncio.run(guarded())


class ServerThread:
    """A live ReproServer on its own event-loop thread."""

    def __init__(self, config, jobs=None) -> None:
        from repro.serve.server import ReproServer

        self.server = ReproServer(config, jobs=jobs)
        self.loop = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._main, daemon=True)

    def _main(self) -> None:
        async def body():
            await self.server.start()
            self.loop = asyncio.get_running_loop()
            self._ready.set()
            await self.server.serve_forever()
        asyncio.run(body())

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(15):  # pragma: no cover - startup hang
            raise RuntimeError("server did not start")
        return self

    def __exit__(self, *exc) -> None:
        # A test that already stopped the server (a drain on SIGTERM)
        # left its thread finishing on its own: a second stop would race
        # the loop's shutdown and be cancelled or refused.
        if not self.server._closed.is_set():
            self.call(self.server.stop(drain=False), timeout_s=15)
        self._thread.join(timeout=15)

    def call(self, coroutine, timeout_s: float = 60.0):
        """Run a coroutine on the server loop from the test thread."""
        future = asyncio.run_coroutine_threadsafe(coroutine, self.loop)
        return future.result(timeout_s)

    def client(self):
        from repro.serve.client import ServeClient

        return ServeClient(self.server.host, self.server.port)


@pytest.fixture
def server_thread():
    return ServerThread
