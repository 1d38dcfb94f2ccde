"""End-to-end HTTP tests: real sockets, real worker pool, real cache.

The server's event loop runs on a background thread
(tests/serve/conftest.ServerThread); the blocking ServeClient talks to
it over loopback exactly as an external submitter would.
"""

import json
import threading
import time

import pytest

from repro.cache import ResultCache
from repro.serve.config import ServeConfig
from repro.serve.jobs import JobManager

TINY = {"workload": "gjk", "clusters": 2, "scale": 0.12}


def _config(**overrides):
    base = dict(port=0, jobs=2, queue_limit=8, timeout_s=60.0, drain_s=10.0)
    base.update(overrides)
    return ServeConfig(**base)


@pytest.fixture
def live(cache_dir, server_thread):
    with server_thread(_config()) as handle:
        yield handle


class TestEndpoints:
    def test_healthz(self, live):
        assert live.client().health() == {"status": "ok", "schema": 1}

    def test_index_lists_endpoints(self, live):
        status, doc = live.client().request("GET", "/")
        assert status == 200 and "/submit" in doc["endpoints"]

    def test_unknown_path_is_404(self, live):
        status, doc = live.client().request("GET", "/nope")
        assert status == 404 and "no such endpoint" in doc["error"]

    def test_wrong_method_is_405(self, live):
        status, _doc = live.client().request("GET", "/submit")
        assert status == 405
        status, _doc = live.client().request("POST", "/stats")
        assert status == 405

    def test_bad_json_is_400(self, live):
        status, doc = live.client().submit_raw({"cells": "not-a-list"})
        assert status == 400 and "must be a list" in doc["error"]

    def test_unknown_workload_is_400(self, live):
        status, record = live.client().submit_cell({"workload": "nope"})
        assert status == 400 and "unknown workload" in record["error"]

    def test_oversized_body_is_413(self, live):
        import http.client

        conn = http.client.HTTPConnection(live.server.host,
                                          live.server.port, timeout=10)
        try:
            conn.request("POST", "/submit", body=b"{}",
                         headers={"Content-Length": str(64 << 20)})
            assert conn.getresponse().status == 413
        finally:
            conn.close()


class TestSubmission:
    def test_duplicate_concurrent_pair_executes_once(self, live):
        client = live.client()
        answers = [None, None]

        def submit(index):
            answers[index] = client.submit_cell(TINY)

        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        statuses = sorted(record["status"] for _s, record in answers)
        assert statuses == ["coalesced", "executed"]
        assert all(status == 200 for status, _r in answers)
        # Both callers got byte-identical results from one execution.
        assert (json.dumps(answers[0][1]["result"], sort_keys=True)
                == json.dumps(answers[1][1]["result"], sort_keys=True))
        counters = client.stats()["serve"]["counters"]
        assert counters["executed"] == 1 and counters["coalesced"] == 1

    def test_warm_hit_is_fast_and_identical(self, live):
        client = live.client()
        _status, cold = client.submit_cell(TINY)
        assert cold["status"] in ("executed", "hit")
        start = time.perf_counter()
        status, warm = client.submit_cell(TINY)
        wall_ms = (time.perf_counter() - start) * 1000.0
        assert status == 200 and warm["status"] == "hit"
        assert warm["latency_ms"] < 10.0, "server-side hit budget blown"
        assert wall_ms < 1000.0
        assert warm["result"] == cold["result"]
        assert warm["fingerprint"] == cold["fingerprint"]

    def test_batch_answers_200_with_per_cell_records(self, live):
        status, records = live.client().submit_cells(
            [TINY, {"workload": "nope"}])
        assert status == 200 and len(records) == 2
        assert records[0]["status"] in ("executed", "hit")
        assert records[1]["status"] == "failed"
        assert "unknown workload" in records[1]["error"]

    def test_bad_directory_fails_only_its_own_record(self, live):
        client = live.client()
        client.timeout_s = 60.0  # the batch must be answered, not hang
        status, records = client.submit_cells(
            [TINY, {**TINY, "dir_assoc": 0}])
        assert status == 200 and len(records) == 2
        assert records[0]["status"] in ("executed", "hit")
        assert records[1]["status"] == "failed"
        assert records[1]["fingerprint"] is None
        assert "'dir_assoc'" in records[1]["error"]
        status, record = client.submit_cell({**TINY, "dir_assoc": 0})
        assert status == 400 and "'dir_assoc'" in record["error"]

    def test_infinite_scale_is_400(self, live):
        # json.dumps writes float("inf") as the bare token Infinity,
        # which the server's json.loads accepts.
        status, record = live.client().submit_cell(
            {**TINY, "scale": float("inf")})
        assert status == 400 and "'scale'" in record["error"]
        assert live.client().stats()["serve"]["counters"]["failed"] == 0

    def test_stats_shape(self, live):
        live.client().submit_cell(TINY)
        doc = live.client().stats()
        serve = doc["serve"]
        assert serve["counters"]["submitted"] >= 1
        assert {"active", "running", "queued"} <= set(serve["queue"])
        assert serve["latency"]["hit"]["buckets_ms"][-1] == "inf"
        assert serve["pool"] == {"jobs": 2, "rebuilds": 0, "in_process": 0}
        assert "results" in doc["cache"]


class TestFailureMapping:
    def test_timeout_maps_to_504(self, cache_dir, server_thread):
        with server_thread(_config(timeout_s=0.005)) as handle:
            status, record = handle.client().submit_cell(TINY)
            assert status == 504 and record["status"] == "timeout"
            assert "exceeded" in record["error"]

    def test_worker_killing_cell_is_500_and_server_stays_up(
            self, cache_dir, server_thread, monkeypatch):
        from repro.serve import jobs as serve_jobs

        real = serve_jobs._run_cell
        monkeypatch.setattr(serve_jobs, "_run_cell", _die_in_worker)
        with server_thread(_config()) as handle:
            client = handle.client()
            status, record = client.submit_cell(TINY)
            assert status == 500 and record["status"] == "failed"
            assert "BrokenProcessPool" in record["error"]
            assert client.health()["status"] == "ok"
            # The next job starts on a fresh pool.
            monkeypatch.setattr(serve_jobs, "_run_cell", real)
            status, record = client.submit_cell(TINY)
            assert status == 200 and record["status"] == "executed"
            assert client.stats()["serve"]["pool"]["in_process"] == 0


def _die_in_worker(cell):
    """Serve's worker entry point, killing every worker process it
    runs in."""
    import multiprocessing
    import os

    if multiprocessing.parent_process() is not None:
        os._exit(1)
    raise AssertionError("a served cell ran inside the server")


class TestDrain:
    def test_drain_flips_health_and_rejects_with_503(self, cache_dir,
                                                     server_thread):
        with server_thread(_config()) as handle:
            jobs = handle.server.jobs
            clean = handle.call(jobs.drain())
            assert clean is True
            # The listener is still up (stop() wasn't called): probes
            # must see "draining" and submissions must bounce with 503.
            client = handle.client()
            assert client.health()["status"] == "draining"
            status, record = client.submit_cell(TINY)
            assert status == 503 and record["status"] == "draining"

    def test_sigterm_drains_without_corrupting_the_cache(self, cache_dir,
                                                         server_thread):
        from repro.cache import verify_cache

        with server_thread(_config()) as handle:
            client = handle.client()
            _status, record = client.submit_cell(TINY)
            assert record["status"] in ("executed", "hit")
            # Deliver the handler's coroutine directly (the test process
            # shares signal state; raising a real SIGTERM would kill
            # pytest's own loop-less main thread handling).
            import signal

            handle.call(handle.server._on_signal(signal.SIGTERM),
                        timeout_s=30)
            report = verify_cache(cache_dir)
            assert not report, report.problems
            entries = list((cache_dir / "results").rglob("*.json"))
            assert entries and not list(
                (cache_dir / "results").rglob("*.tmp*"))
