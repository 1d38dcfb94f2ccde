"""Host-time benchmark of the Cohesion simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload dirsweep --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the per-layer split (see README.md). The last line of
standard output is the result object; the line before it is a report
with every metric of the workload, its configuration and any failures.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

WORKLOADS = ("dirsweep", "fullchip", "serve-mix", "mc-direvict")

#: Gated end-to-end metrics (BENCHMARK.json ``end_to_end``): name -> unit.
#: ``adj_*`` metrics are host seconds adjusted for the shared host's
#: measured speed (see ``common.HostClock`` and README.md).
END_TO_END = {
    "setup_s": "s",
    "adj_wall_s": "s",
    "adj_sim_ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Reported but not gated: host seconds, which on a shared host spread
#: wider than any usable bound, and metrics of one workload only.
REPORTED = {
    "wall_s": "s",
    "cpu_s": "s",
    "sim_ops_per_s": "1/s",
    "host_ref_ms": "ms",
    "failed_frac": "ratio",
    "mc_states_per_s": "1/s",
    "serve_hit_p50_ms": "ms",
    "serve_hit_p90_ms": "ms",
    "serve_miss_p50_ms": "ms",
    "serve_submits_per_s": "1/s",
}

#: Per-layer metrics of the traced run (BENCHMARK.json ``per_layer``).
#: A layer a workload does not engage reads 0 on that workload.
PER_LAYER = {
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.other_s": "s",
    "workloads.build_s": "s",
    "workloads.build_calls": "count",
    "cache.programs.hit_rate": "ratio",
    "sim.machine.build_s": "s",
    "runtime.executor.self_s": "s",
    "runtime.executor.ops": "count",
    "runtime.executor.tasks": "count",
    "sim.cluster.self_s": "s",
    "sim.cluster.calls": "count",
    "sim.cluster.l1_exit_ratio": "ratio",
    "sim.cluster.probe_s": "s",
    "sim.cluster.probe_calls": "count",
    "core.cohesion.self_s": "s",
    "core.cohesion.calls": "count",
    "core.cohesion.l2_miss_ratio": "ratio",
    "runtime.plans.compiled": "count",
    "runtime.plans.replayed": "count",
    "runtime.plans.interpreted": "count",
    "runtime.plans.replay_ratio": "ratio",
    "core.transitions.self_s": "s",
    "core.transitions.calls": "count",
    "coherence.directory.self_s": "s",
    "coherence.directory.allocs": "count",
    "coherence.directory.evictions": "count",
    "interconnect.network.messages": "count",
    "interconnect.network.self_s": "s",
    "mem.dram.accesses": "count",
    "mem.dram.self_s": "s",
    "timing.acquisitions": "count",
    "sim.stats.collect_s": "s",
    "mc.explorer.states": "count",
    "mc.explorer.transitions": "count",
    "mc.state.canon_s": "s",
    "sim.machine.restore_s": "s",
    "serve.hits": "count",
    "serve.coalesced": "count",
    "serve.executed": "count",
    "serve.shed": "count",
    "serve.failed": "count",
    "serve.dedup_ratio": "ratio",
    "serve.exec_ms_p50": "ms",
    "serve.overhead_ms_p50": "ms",
    "cache.results.hit_rate": "ratio",
    "cache.results.put_failures": "count",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _make_run(workload: str, seed: int, tmp: pathlib.Path, expected: dict):
    if workload == "serve-mix":
        from perfbench.servemix import ServeRun
        return ServeRun(seed, tmp, expected)
    if workload == "mc-direvict":
        from perfbench.mcdirevict import McRun
        return McRun(seed, tmp, expected)
    from perfbench.simcells import SimRun
    return SimRun(workload, seed, tmp, expected)


def run(args, tmp: pathlib.Path) -> dict:
    """Set up, measure (or trace) one workload; returns the report."""
    from perfbench.common import configuration, load_expected

    expected = load_expected()
    bench = _make_run(args.workload, args.seed, tmp, expected)
    layers, measured = {}, {}
    try:
        setup = bench.setup()
        if args.trace:
            layers = bench.trace(args.seconds)
        else:
            measured = bench.measure(args.seconds)
    finally:
        bench.close()
    # Set-up is adjusted for host speed like the timed metrics, with the
    # same run-wide factor.
    metrics = {"setup_s": setup * bench.clock.factor()}
    passes = measured.pop("passes", None)
    samples = measured.pop("samples", {})
    metrics.update(measured)
    metrics["failed_frac"] = len(bench.failures) / max(1, bench.attempted)
    return {
        "workload": args.workload,
        "trace": args.trace,
        "config": configuration(args.seed),
        "passes": passes,
        "samples": samples,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "failures": bench.failures[:20],
        "metrics": metrics,
        "layers": layers,
    }


def result_line(report: dict) -> dict:
    """The result object (the last output line) from a full report."""
    if report["trace"]:
        names, values = PER_LAYER, report["layers"]
    else:
        names, values = END_TO_END, report["metrics"]
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values.get(name, 0), "unit": unit}
                    for name, unit in names.items()},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source at {src}; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    tmp = pathlib.Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_tmp"))
    # Never read or write a user's cache: every run gets its own.
    os.environ["REPRO_CACHE_DIR"] = str(tmp / "cache")
    try:
        report = run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    line = result_line(report)
    units = dict(END_TO_END, **REPORTED)
    report["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in report["metrics"].items()}
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
