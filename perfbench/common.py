"""Helpers shared by the benchmark's workloads."""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List

#: Checkout root (the benchmark runs from there) and the simulator source.
ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = pathlib.Path(__file__).resolve().parent

#: The seed the committed expected digests were recorded with.
DEFAULT_SEED = 1

#: Kernels whose simulated statistics do not depend on the kernel seed:
#: ``dmm`` and ``heat`` draw only data values from it, and ``mri``,
#: ``sobel`` and ``stencil`` do not read it. Their expected digests hold
#: on every seed; ``gen_expected.py`` checks this on two kernel seeds.
SEED_FREE_KERNELS = ("dmm", "heat", "mri", "sobel", "stencil")

#: How many times set-up is repeated in one run (median reported).
SETUP_REPEATS = 5
#: Upper bound on timed passes per run; it caps a run on a fast machine.
MAX_PASSES = 40
#: A set-up probe that has not exited by then is killed.
PROBE_TIMEOUT_S = 120.0


def stats_digest(stats_dict: dict) -> str:
    """Stable digest of one ``RunStats.as_dict()`` rendering."""
    blob = json.dumps(stats_dict, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:20]


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MB (ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def backend() -> str:
    """The executor backend ``REPRO_BACKEND`` selects (validated)."""
    from repro.analysis.experiments import ExperimentConfig

    return ExperimentConfig.from_env().backend


def configuration(seed: int) -> dict:
    """What a reader needs to tell a default run from an ablation."""
    from repro.runtime.plans import plans_enabled

    return {
        "REPRO_BACKEND": os.environ.get("REPRO_BACKEND"),
        "REPRO_PLANS": os.environ.get("REPRO_PLANS"),
        "backend": backend(),
        "plans": plans_enabled(),
        "python": platform.python_version(),
        "seed": seed,
        "default_seed": DEFAULT_SEED,
    }


def load_expected() -> dict:
    with open(BENCH_DIR / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


def child_env(cache_dir: pathlib.Path) -> Dict[str, str]:
    """Environment for a simulator subprocess with a private cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def probe_setup(code: str, cache_dir: pathlib.Path,
                clock: "HostClock") -> float:
    """Median wall time of fresh interpreters running ``code`` to exit.

    This is the set-up a user pays before any simulation starts:
    interpreter start and the simulator's imports (plus whatever
    ``code`` builds). This process then runs ``code`` too, untimed, so
    the timed region starts with the same set-up done.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], cwd=str(ROOT),
                                env=child_env(cache_dir))
        # A blocking wait: ``wait(timeout)`` polls with sleeps of up to
        # 50 ms, which would quantize these ~0.3 s samples.
        watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            returncode = proc.wait()
            samples.append(time.perf_counter() - start)
        finally:
            watchdog.cancel()
        if returncode != 0:
            raise subprocess.CalledProcessError(returncode, proc.args)
        clock.sample()
    exec(code)
    return median(samples)


#: Size of the reference loop's list, and how many reads it makes.
REF_INTS, REF_READS = 1 << 19, 20000
#: Reference loops timed at each host-speed sample.
REF_SAMPLES = 3
#: Reference-loop time of the nominal host the adjusted metrics are
#: scaled to: about the loop's median on the 2-vCPU host the bounds were
#: measured on.
REF_NOMINAL_S = 0.045
#: Share, in log space, of the host's measured speed change that the
#: adjusted metrics take out (see README.md, "Host-speed adjustment").
HOST_CORRECTION = 0.75


def reference_loop() -> int:
    """Fixed pure-Python work that shares no code with the simulator.

    It allocates a list of :data:`REF_INTS` ints (about 18 MB, freed on
    return) and sums :data:`REF_READS` of them at seeded random
    positions: allocation, page faults, cache misses and bytecode
    dispatch, the mix the simulator's machine builds and hot loops
    spend their time on. Of the loops tried on a shared 2-vCPU host,
    this one's time tracked the simulator's cells closest as the host's
    speed changed; a tight loop that fits in cache slows about twice as
    much as the simulator does when the host gets busy.
    """
    ints = list(range(REF_INTS))
    rng = random.Random(REF_INTS)
    total = 0
    for index in [rng.randrange(REF_INTS) for _ in range(REF_READS)]:
        total += ints[index]
    return total


def reference_samples() -> List[float]:
    """Wall times of :data:`REF_SAMPLES` back-to-back reference loops."""
    samples = []
    for _ in range(REF_SAMPLES):
        start = time.perf_counter()
        reference_loop()
        samples.append(time.perf_counter() - start)
    return samples


def serve_reference() -> None:
    """Child side of :class:`HostClock`: one sample set per input line."""
    for _line in sys.stdin:
        print(json.dumps(reference_samples()), flush=True)


class HostClock:
    """Samples the host's speed between the timed units of one run.

    The benchmark's host is shared, and its speed changes by up to 2x
    within seconds as other tenants' load comes and goes. Call
    :meth:`sample` between timed units (outside the timed regions); the
    median reference-loop time over the run then gives :meth:`factor`,
    which scales the run's host seconds toward the nominal host speed.

    The loops run in a child process, one sample set at a time while
    this process waits, so that their memory does not count in this
    process's peak RSS. The child exits when its input closes.
    """

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, "-c",
             "from perfbench.common import serve_reference; "
             "serve_reference()"],
            cwd=str(ROOT), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        self.refs: List[float] = []
        self.sample()

    def sample(self) -> None:
        """Time :data:`REF_SAMPLES` reference loops now."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("host-speed reference process exited")
        self.refs.extend(json.loads(line))

    def factor(self) -> float:
        """Multiplier from this run's host seconds to adjusted seconds."""
        return (REF_NOMINAL_S / median(self.refs)) ** HOST_CORRECTION

    def ref_ms(self) -> float:
        """Median reference-loop time over the run, in ms."""
        return median(self.refs) * 1000.0

    def close(self) -> None:
        """Stop the child and wait for it."""
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def run_passes(run_pass: Callable[[], dict], seconds: float) -> List[dict]:
    """Repeat ``run_pass`` while another pass fits in ``seconds``.

    Runs at least one pass and at most :data:`MAX_PASSES`. A pass is
    expected to take as long as the one before it, host-speed samples
    included.
    """
    passes = []
    started = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append(run_pass())
        now = time.perf_counter()
        if (len(passes) >= MAX_PASSES
                or now - started + (now - pass_start) > seconds):
            return passes


def proc_tree(pid: int) -> List[int]:
    """``pid`` and all its live descendants (Linux ``/proc``)."""
    found, todo = [], [pid]
    while todo:
        current = todo.pop()
        found.append(current)
        for task in pathlib.Path(f"/proc/{current}/task").glob("*"):
            try:
                todo.extend(int(c) for c in
                            (task / "children").read_text().split())
            except OSError:
                continue
    return found


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of one live process."""
    try:
        fields = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    rest = fields.rsplit(")", 1)[1].split()
    return (int(rest[11]) + int(rest[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of one live process, in MB."""
    try:
        status = pathlib.Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0
