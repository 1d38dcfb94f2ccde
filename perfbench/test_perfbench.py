"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import pathlib
import shutil
import statistics
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import run as bench_run  # noqa: E402
from perfbench.common import (HOST_CORRECTION, REF_NOMINAL_S,  # noqa: E402
                              REF_SAMPLES, HostClock, percentile)
from perfbench.simcells import CELLS, identity_errors  # noqa: E402


def _run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=str(cwd),
        capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_metrics_printed():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(bench_run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} \
        == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} \
        == bench_run.PER_LAYER
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_expected_file_covers_every_cell():
    from perfbench.common import DEFAULT_SEED, load_expected
    from perfbench.servemix import (expected_key, pass_scripts,
                                    warm_cells)

    expected = load_expected()
    assert expected["seed"] == DEFAULT_SEED
    for workload, cells in CELLS.items():
        assert set(expected[workload]) == {c.label for c in cells}
    for seed in (DEFAULT_SEED, 7):
        sent = [spec for _label, spec in warm_cells(seed)]
        sent += [spec for script in pass_scripts(seed, 1)
                 for _kind, _label, spec in script]
        assert {expected_key(spec) for spec in sent} \
            == set(expected["serve-mix"])


def test_serve_mix_pass_work_does_not_depend_on_the_seed():
    from perfbench.servemix import (CLIENTS, HITS_PER_CLIENT, pass_scripts,
                                    warm_cells)

    def submitted(seed, pass_no):
        return sorted((kind, spec["workload"], spec["policy"])
                      for script in pass_scripts(seed, pass_no)
                      for kind, _label, spec in script)

    assert submitted(1, 1) == submitted(7, 3)
    kseeds = [spec["seed"] for _label, spec in warm_cells(1)]
    kseeds += [spec["seed"] for pass_no in (1, 2)
               for script in pass_scripts(1, pass_no)
               for kind, _label, spec in script if kind != "hit"]
    assert len(set(kseeds)) == len(kseeds)
    hits = [kind for script in pass_scripts(1, 1) for kind, *_ in script
            if kind == "hit"]
    assert len(hits) == HITS_PER_CLIENT * CLIENTS


def test_identity_errors_flag_a_missed_call():
    messages = {"read_request": 5, "instruction_request": 2,
                "write_request": 3, "cache_eviction": 1,
                "software_flush": 1, "read_release": 0,
                "uncached_atomic": 2, "probe_response": 4}
    calls = {"core.cohesion:read_line": 7,
             "core.cohesion:write_line_request": 2,
             "core.cohesion:upgrade_request": 1,
             "core.cohesion:writeback": 2,
             "core.cohesion:atomic": 1,
             "core.cohesion:table_update": 1}
    assert identity_errors(calls, messages) == []
    calls["core.cohesion:read_line"] = 6
    errors = identity_errors(calls, messages)
    assert len(errors) == 2 and "read_line=6" in errors[0]


def test_host_clock_samples_and_stops_its_child():
    clock = HostClock()
    try:
        clock.sample()
    finally:
        clock.close()
    assert len(clock.refs) == 2 * REF_SAMPLES and min(clock.refs) > 0
    assert clock.factor() == pytest.approx(
        (REF_NOMINAL_S / statistics.median(clock.refs)) ** HOST_CORRECTION)
    assert clock._proc.returncode == 0


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile([3.0], 90) == 3.0


def _copy_bench(tmp_path: pathlib.Path) -> pathlib.Path:
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    return tmp_path


def test_perturbed_expected_digest_is_a_failure(tmp_path):
    checkout = _copy_bench(tmp_path)
    (checkout / "src").symlink_to(ROOT / "src")
    path = checkout / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())
    label = sorted(expected["fullchip"])[0]
    expected["fullchip"][label] = "0" * 20
    path.write_text(json.dumps(expected))
    proc = _run("--workload", "fullchip", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=checkout)
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 2
    report = json.loads(report_line)
    assert report["metrics"]["failed_frac"]["value"] == 0.5
    assert label in report["failures"][0]


def test_default_seed_run_is_correct():
    proc = _run("--workload", "fullchip", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(bench_run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
def test_without_sources_it_fails_without_a_result(tmp_path, workload):
    proc = _run("--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=_copy_bench(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
