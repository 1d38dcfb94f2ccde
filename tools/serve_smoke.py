#!/usr/bin/env python3
"""CI smoke test for ``repro serve``: boot, dedup, warm hit, drain.

Boots a real server subprocess on a free port, then asserts the
service-level contract end to end:

1. a *concurrent duplicate pair* of submissions executes exactly once
   (one ``executed`` + one ``coalesced``, byte-identical results, and
   the server's execution counter reads 1);
2. a warm re-submission answers ``hit`` within the 10 ms server-side
   budget;
3. a cell with an invalid machine-config override is a 400 at decode,
   never a failed job (the final ``/stats`` ``failed`` count is 0);
4. SIGTERM drains gracefully (clean exit, "drained cleanly" on stderr).

Writes the final ``/stats`` snapshot to ``--stats-out`` for upload as a
CI artifact. Exits nonzero with a named reason on any violation.

Usage: PYTHONPATH=src python tools/serve_smoke.py [--stats-out FILE]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import signal
import subprocess
import sys
import tempfile
import threading
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

CELL = {"workload": "kmeans", "policy": "cohesion",
        "clusters": 2, "scale": 0.12}
WARM_HIT_BUDGET_MS = 10.0


def fail(reason: str) -> None:
    print(f"serve-smoke: FAIL: {reason}", file=sys.stderr)
    raise SystemExit(1)


def wait_for_port(port_file: pathlib.Path, process: subprocess.Popen,
                  timeout_s: float = 60.0) -> int:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if process.poll() is not None:
            fail(f"server exited early with code {process.returncode}")
        try:
            text = port_file.read_text().strip()
            if text:
                return int(text)
        except (OSError, ValueError):
            pass
        time.sleep(0.05)
    fail("server never wrote its port file")
    raise AssertionError  # unreachable


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--stats-out", default="results/serve-stats.json",
                        metavar="FILE",
                        help="where to write the /stats snapshot")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp:
        port_file = pathlib.Path(tmp) / "port"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "2", "--port-file", str(port_file)],
            cwd=ROOT, stderr=subprocess.PIPE, text=True,
            env={**__import__("os").environ,
                 "PYTHONPATH": "src",
                 "REPRO_CACHE_DIR": tmp + "/cache"})
        try:
            port = wait_for_port(port_file, process)
            from repro.serve.client import ServeClient

            client = ServeClient("127.0.0.1", port)
            health = client.health()
            if health.get("status") != "ok":
                fail(f"health answered {health!r}")
            print(f"serve-smoke: server healthy on port {port}")

            # 1. Duplicate concurrent pair -> exactly one execution.
            answers: list = [None, None]

            def submit(index: int) -> None:
                answers[index] = client.submit_cell(CELL)

            threads = [threading.Thread(target=submit, args=(i,))
                       for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(300)
            if any(answer is None for answer in answers):
                fail("a duplicate submission never answered")
            statuses = sorted(record["status"] for _s, record in answers)
            if statuses != ["coalesced", "executed"]:
                fail(f"expected one executed + one coalesced; got {statuses}")
            blobs = [json.dumps(record["result"], sort_keys=True)
                     for _s, record in answers]
            if blobs[0] != blobs[1]:
                fail("duplicate submissions answered different results")
            counters = client.stats()["serve"]["counters"]
            if counters["executed"] != 1:
                fail(f"execution counter is {counters['executed']}, not 1")
            print("serve-smoke: duplicate pair coalesced onto 1 execution")

            # 2. Warm re-hit under the latency budget.
            status, record = client.submit_cell(CELL)
            if status != 200 or record["status"] != "hit":
                fail(f"warm re-submit answered {status}/{record['status']}")
            if record["result"] != answers[0][1]["result"]:
                fail("warm hit answered a different result")
            if record["latency_ms"] >= WARM_HIT_BUDGET_MS:
                fail(f"warm hit took {record['latency_ms']}ms "
                     f"(budget {WARM_HIT_BUDGET_MS}ms)")
            print(f"serve-smoke: warm hit in {record['latency_ms']}ms")

            # 3. A bad override is rejected at decode, not in a worker.
            status, record = client.submit_cell(
                {**CELL, "config": {"l2_ports": 0}})
            if status != 400 or "l2_ports" not in (record["error"] or ""):
                fail(f"bad override answered {status}/{record!r}")
            print("serve-smoke: bad override rejected with 400")

            # Snapshot /stats for the artifact before shutting down.
            stats = client.stats()
            failed = stats["serve"]["counters"]["failed"]
            if failed != 0:
                fail(f"failed counter is {failed}, not 0")
            out = pathlib.Path(args.stats_out)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(stats, indent=2) + "\n")
            print(f"serve-smoke: stats snapshot written to {out}")

            # 4. SIGTERM drains gracefully.
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(60)
            except subprocess.TimeoutExpired:
                fail("server did not exit within 60s of SIGTERM")
            stderr = process.stderr.read() if process.stderr else ""
            if process.returncode != 0:
                fail(f"server exited {process.returncode} on SIGTERM; "
                     f"stderr:\n{stderr}")
            if "drained cleanly" not in stderr:
                fail(f"no clean-drain message on stderr:\n{stderr}")
            print("serve-smoke: SIGTERM drained cleanly")
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(10)
    print("serve-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
