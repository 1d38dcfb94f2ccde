"""The ``serve-mix`` workload: a ``repro serve`` subprocess under load.

Set-up boots ``repro serve --jobs 1 --port 0 --port-file`` on a private
cache and pre-computes the warm cells. The timed region is a series of
passes; in each, two closed-loop clients (each waits for its reply
before sending again) run a script over HTTP:

* warm hits: cells answered from the cache filled during set-up;
* duplicate pairs: one batch submitting the same fresh cell twice, so
  one copy executes and the other coalesces onto it (single-flight);
* fresh cells: cells the server has not seen, executed by its worker.

Only kernels whose simulated work does not depend on the kernel seed
are sent. A new kernel seed then gives a new fingerprint, so a fresh
cell misses the cache, yet every pass simulates the same work whatever
the seed. The seed orders the submissions, deals them to the clients
and sets the kernel seeds. The mix is chosen, not taken from observed
traffic (see README.md). The server is stopped with SIGTERM; a non-zero
exit or a temporary file left in its cache counts as a failed
operation.
"""

from __future__ import annotations

import json
import pathlib
import random
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from perfbench.common import (SEED_FREE_KERNELS, SETUP_REPEATS, HostClock,
                              backend, child_env, median, percentile,
                              proc_cpu_s, proc_peak_rss_mb, proc_tree,
                              run_passes, stats_digest)

CLUSTERS = 4
SCALE = 0.2
CLIENTS = 2
#: Hits per client per pass: 100 a pass, so that even a one-pass run has
#: 10 hit latencies beyond its p90.
HITS_PER_CLIENT = 50
#: Each pass executes every kernel under every policy once: under
#: ``swcc`` as a duplicate pair, under the other two as a fresh cell.
KERNELS = SEED_FREE_KERNELS
POLICIES = ("cohesion", "swcc", "hwcc-real")
DUP_POLICY = "swcc"
#: Cells executed during set-up and then sent as hits.
WARM = (("heat", "swcc"), ("sobel", "cohesion"), ("stencil", "hwcc-real"),
        ("dmm", "cohesion"), ("mri", "hwcc-real"), ("heat", "cohesion"))

BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0
SUBMIT_TIMEOUT_S = 120.0


def _spec(kernel: str, policy: str, kseed: int) -> dict:
    # The result fingerprint ignores the backend, so the expected digests
    # hold for either; sending it lets a REPRO_BACKEND ablation reach the
    # server's worker.
    return {"workload": kernel, "policy": policy, "clusters": CLUSTERS,
            "scale": SCALE, "seed": kseed, "backend": backend()}


def _kseed(seed: int, pass_no: int, index: int) -> int:
    """A kernel seed no other cell of the run uses (pass 0 is set-up)."""
    return (seed * 100 + pass_no) * 100 + index


def _label(prefix: str, spec: dict) -> str:
    return f"{prefix}/{spec['workload']}/{spec['policy']}/{spec['seed']}"


def expected_key(spec: dict) -> str:
    """The ``expected.json`` entry of a cell: its kernel and policy."""
    return f"{spec['workload']}/{spec['policy']}"


def warm_cells(seed: int) -> List[Tuple[str, dict]]:
    specs = [_spec(kernel, policy, _kseed(seed, 0, index))
             for index, (kernel, policy) in enumerate(WARM)]
    return [(_label("warm", spec), spec) for spec in specs]


def pass_scripts(seed: int, pass_no: int) -> List[List[tuple]]:
    """Each client's submissions for one pass: ``(kind, label, spec)``.

    ``kind`` is ``hit`` (spec is a warm cell), ``dup`` or ``fresh``.
    """
    rng = random.Random(f"{seed}:pass{pass_no}")
    cells = []
    for index, (kernel, policy) in enumerate(
            (k, p) for k in KERNELS for p in POLICIES):
        spec = _spec(kernel, policy, _kseed(seed, pass_no, index))
        kind = "dup" if policy == DUP_POLICY else "fresh"
        cells.append((kind, _label(f"p{pass_no}", spec), spec))
    rng.shuffle(cells)
    warm = warm_cells(seed)
    scripts = []
    for client in range(CLIENTS):
        script = cells[client::CLIENTS]
        for index in range(HITS_PER_CLIENT):
            label, spec = warm[(index + client) % len(warm)]
            script.append(("hit", label, spec))
        rng.shuffle(script)
        scripts.append(script)
    return scripts


def _answer(record: dict) -> str:
    return json.dumps(record.get("result"), sort_keys=True)


class Server:
    """One ``repro serve`` subprocess on a private cache directory."""

    def __init__(self, tmp: pathlib.Path, name: str) -> None:
        from repro.serve.client import ServeClient

        self.cache = tmp / name / "cache"
        self.cache.mkdir(parents=True)
        port_file = tmp / name / "port"
        self.log = open(tmp / name / "server.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--jobs", "1",
             "--port", "0", "--port-file", str(port_file)],
            env=child_env(self.cache), stdout=self.log,
            stderr=subprocess.STDOUT)
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while not port_file.exists() or not port_file.read_text().strip():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"server {name} did not start")
            time.sleep(0.005)
        self.client = ServeClient(port=int(port_file.read_text()),
                                  timeout_s=SUBMIT_TIMEOUT_S)
        try:
            self.client.health()
        except Exception:
            self.stop()
            raise

    def tree(self) -> List[int]:
        return proc_tree(self.proc.pid)

    def stop(self) -> Optional[str]:
        """SIGTERM, wait, and report what went wrong (None if clean)."""
        problem = None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            code = "killed after timeout"
        self.log.close()
        if code != 0:
            problem = f"server exit {code}"
        leftovers = [p.name for p in self.cache.rglob("*.tmp*")]
        if leftovers:
            problem = f"temporary files left in cache: {leftovers[:3]}"
        return problem


class ServeRun:
    """One benchmark run of ``serve-mix``."""

    def __init__(self, seed: int, tmp: pathlib.Path, expected: dict) -> None:
        self.seed = seed
        self.tmp = tmp
        self.expected = expected["serve-mix"]
        self.attempted = 0
        self.failures: List[str] = []
        self._lock = threading.Lock()
        self.server: Optional[Server] = None
        self.warm_answers: Dict[str, str] = {}
        self.samples: Dict[str, List[float]] = {
            "hit": [], "miss": [], "dup": [], "exec": [], "overhead": []}
        self._pass_no = 0
        self.clock = HostClock()

    # -- checks -------------------------------------------------------------
    def _fail(self, label: str, why: str) -> None:
        with self._lock:
            self.failures.append(f"{label}: {why}")

    def _check_stats(self, label: str, spec: dict, record: dict) -> int:
        """Digest/invariant checks of one executed answer; returns ops."""
        stats = (record.get("result") or {}).get("stats")
        if stats is None:
            self._fail(label, f"no result ({record.get('error')})")
            return 0
        want = self.expected.get(expected_key(spec))
        digest = stats_digest(stats)
        if want != digest:
            self._fail(label, f"digest {digest} != expected {want}")
        elif stats["load_mismatches"]:
            self._fail(label, "load mismatches")
        return stats["ops_executed"]

    # -- set-up ---------------------------------------------------------------
    def _boot(self, name: str) -> Server:
        server = Server(self.tmp, name)
        try:
            for label, spec in warm_cells(self.seed):
                self.attempted += 1
                status, record = server.client.submit_cell(spec)
                if status != 200 or record.get("status") != "executed":
                    self._fail(label, f"warm-up answered {status} "
                                      f"{record.get('status')}")
                    continue
                self._check_stats(label, spec, record)
                self.warm_answers[label] = _answer(record)
        except BaseException:
            server.stop()
            raise
        return server

    def _stop(self, server: Server) -> None:
        self.attempted += 1
        problem = server.stop()
        if problem:
            self._fail("shutdown", problem)

    def setup(self) -> float:
        """Boot + warm-up, repeated; the last server stays up."""
        samples = []
        for attempt in range(SETUP_REPEATS):
            start = time.perf_counter()
            server = self._boot(f"serve{attempt}")
            samples.append(time.perf_counter() - start)
            self.clock.sample()
            if attempt + 1 < SETUP_REPEATS:
                self._stop(server)
        self.server = server
        return median(samples)

    def close(self) -> None:
        try:
            if self.server is not None:
                server, self.server = self.server, None
                self._stop(server)
        finally:
            self.clock.close()

    # -- timed region -------------------------------------------------------
    def _client(self, script: List[tuple], out: dict) -> None:
        """One closed-loop client: each submission waits for its reply."""
        for kind, label, spec in script:
            with self._lock:
                self.attempted += 2 if kind == "dup" else 1
            try:
                self._submit(kind, label, spec, out)
            except Exception as err:  # the client must finish its script
                self._fail(label, f"{type(err).__name__}: {err}")

    def _submit(self, kind: str, label: str, spec: dict, out: dict) -> None:
        client = self.server.client
        start = time.perf_counter()
        if kind == "dup":
            status, records = client.submit_cells([spec, spec])
        else:
            status, record = client.submit_cell(spec)
            records = [record]
        latency_ms = (time.perf_counter() - start) * 1000.0
        if status != 200:
            for record in records:
                self._fail(label, f"HTTP {status} {record.get('status')}: "
                                  f"{record.get('error')}")
            return
        if kind == "hit":
            out["hit"].append(latency_ms)
            if records[0].get("status") != "hit":
                self._fail(label, f"expected a hit, got "
                                  f"{records[0].get('status')}")
            elif _answer(records[0]) != self.warm_answers.get(label):
                self._fail(label, "hit answer differs from the executed "
                                  "answer")
        elif kind == "fresh":
            out["miss"].append(latency_ms)
            record = records[0]
            if record.get("status") != "executed":
                self._fail(label, f"expected an execution, got "
                                  f"{record.get('status')}")
            out["ops"] += self._check_stats(label, spec, record)
            out["exec"].append(record["latency_ms"])
            out["overhead"].append(latency_ms - record["latency_ms"])
        else:
            out["dup"].append(latency_ms)
            statuses = sorted(r.get("status") for r in records)
            if statuses != ["coalesced", "executed"]:
                self._fail(label, f"duplicate pair answered {statuses}")
            elif _answer(records[0]) != _answer(records[1]):
                self._fail(label, "coalesced answer differs from the "
                                  "executed answer")
            out["ops"] += self._check_stats(label, spec, records[0])

    def run_pass(self) -> dict:
        self._pass_no += 1
        scripts = pass_scripts(self.seed, self._pass_no)
        outs = [{"hit": [], "miss": [], "dup": [], "exec": [],
                 "overhead": [], "ops": 0} for _ in scripts]
        threads = [threading.Thread(target=self._client, args=(s, o))
                   for s, o in zip(scripts, outs)]
        pids = self.server.tree()
        cpu0 = sum(proc_cpu_s(p) for p in pids)
        wall0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - wall0
        cpu = sum(proc_cpu_s(p) for p in self.server.tree()) - cpu0
        self.clock.sample()
        for out in outs:
            for key, values in self.samples.items():
                values.extend(out[key])
        submissions = sum(len(s) + sum(1 for k, _l, _s in s if k == "dup")
                          for s in scripts)
        return {"wall_s": wall, "cpu_s": cpu,
                "ops": sum(o["ops"] for o in outs),
                "submissions": submissions}

    def measure(self, seconds: float) -> dict:
        passes = run_passes(self.run_pass, seconds)
        total_wall = sum(p["wall_s"] for p in passes)
        hit, miss = self.samples["hit"], self.samples["miss"]
        peak_rss = max(proc_peak_rss_mb(p) for p in self.server.tree())
        self.server_stats = self.server.client.stats()
        factor = self.clock.factor()
        ops_per_s = median(p["ops"] / p["wall_s"] for p in passes)
        return {
            "passes": [round(p["wall_s"], 4) for p in passes],
            "adj_wall_s": median(p["wall_s"] for p in passes) * factor,
            "adj_sim_ops_per_s": ops_per_s / factor,
            "host_ref_ms": self.clock.ref_ms(),
            "wall_s": median(p["wall_s"] for p in passes),
            "cpu_s": median(p["cpu_s"] for p in passes),
            "sim_ops_per_s": ops_per_s,
            "peak_rss_mb": peak_rss,
            "serve_hit_p50_ms": median(hit),
            "serve_hit_p90_ms": percentile(hit, 90),
            "serve_miss_p50_ms": median(miss),
            "serve_submits_per_s": (sum(p["submissions"] for p in passes)
                                    / total_wall),
            "samples": {"hit": len(hit), "miss": len(miss),
                        "dup": len(self.samples["dup"])},
        }

    def trace(self, seconds: float) -> dict:
        """Per-layer readout of a measured run: the server's own counters
        plus the client's split of miss latency into server execution and
        overhead."""
        measured = self.measure(seconds)
        serve = self.server_stats["serve"]
        counters = serve["counters"]
        results = self.server_stats["cache"]["results"]
        return {
            # Nothing is wrapped: the layers live in the server process
            # and are read from its always-on counters.
            "trace.wall_s": measured["wall_s"],
            "trace.untraced_wall_s": measured["wall_s"],
            "trace.overhead_s": 0.0,
            "serve.hits": counters["hits"],
            "serve.coalesced": counters["coalesced"],
            "serve.executed": counters["executed"],
            "serve.shed": counters["shed"],
            "serve.failed": counters["failed"],
            "serve.dedup_ratio": serve["hit_rate"],
            "serve.exec_ms_p50": median(self.samples["exec"]),
            "serve.overhead_ms_p50": median(self.samples["overhead"]),
            "cache.results.hit_rate": results["hit_rate"],
            "cache.results.put_failures": results["put_failures"],
        }
