"""Chrome-trace collection, rendering, and schema validation."""

import json

from repro import Policy
from repro.obs.chrometrace import (PID_DIRECTORY, PID_DRAM, PID_NETWORK,
                                   PID_PHASES, ChromeTraceCollector,
                                   validate_chrome_trace)


def collected_run(max_events=500_000, workload="gjk"):
    from repro.analysis.experiments import ExperimentConfig, run_workload

    exp = ExperimentConfig(n_clusters=1, scale=0.2)
    collector = None

    def instrument(machine):
        nonlocal collector
        collector = ChromeTraceCollector(machine, max_events=max_events)

    run_workload(workload, Policy.cohesion(), exp, instrument=instrument)
    collector.detach()
    return collector


class TestCollector:
    def test_to_chrome_is_valid(self):
        doc = collected_run().to_chrome()
        assert validate_chrome_trace(doc) == []

    def test_tracks_present(self):
        doc = collected_run().to_chrome()
        pids = {entry["pid"] for entry in doc["traceEvents"]}
        assert 0 in pids                # cluster 0
        assert PID_DIRECTORY in pids    # cohesion run allocates entries
        assert PID_NETWORK in pids
        assert PID_DRAM in pids
        assert PID_PHASES in pids

    def test_metadata_names_tracks(self):
        doc = collected_run().to_chrome()
        names = {entry["args"]["name"] for entry in doc["traceEvents"]
                 if entry["ph"] == "M" and entry["name"] == "process_name"}
        assert "cluster 0" in names
        assert "directory" in names

    def test_spans_and_instants(self):
        doc = collected_run().to_chrome()
        phases = {entry["ph"] for entry in doc["traceEvents"]}
        assert "X" in phases    # loads etc. carry durations
        assert "i" in phases    # stores are instants

    def test_max_events_counts_drops(self):
        collector = collected_run(max_events=50)
        assert len(collector.events) == 50
        assert collector.dropped > 0
        doc = collector.to_chrome()
        assert doc["otherData"]["dropped_events"] == collector.dropped
        assert validate_chrome_trace(doc) == []

    def test_export_round_trips(self, tmp_path):
        path = tmp_path / "trace.json"
        collected_run().export(path)
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []


class TestValidator:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([]) == ["document is not a JSON object"]

    def test_rejects_missing_events(self):
        assert validate_chrome_trace({}) == ["missing traceEvents array"]

    def test_flags_empty_events(self):
        assert "traceEvents is empty" in validate_chrome_trace(
            {"traceEvents": []})

    def test_flags_bad_entries(self):
        doc = {"traceEvents": [
            {"ph": "i", "ts": 1.0, "pid": 0, "s": "t"},            # no name
            {"name": "x", "ph": "Z", "ts": 1.0, "pid": 0},         # bad ph
            {"name": "x", "ph": "i", "ts": -5, "pid": 0},          # bad ts
            {"name": "x", "ph": "i", "ts": 1.0, "pid": "zero"},    # bad pid
            {"name": "x", "ph": "X", "ts": 1.0, "pid": 0},         # no dur
            {"name": "process_name", "ph": "M", "pid": 0},         # no args
        ]}
        problems = validate_chrome_trace(doc)
        assert len(problems) == 6
        assert any("missing name" in p for p in problems)
        assert any("unknown ph" in p for p in problems)
        assert any("bad ts" in p for p in problems)
        assert any("bad pid" in p for p in problems)
        assert any("bad dur" in p for p in problems)
        assert any("without args.name" in p for p in problems)

    def test_accepts_good_minimal_doc(self):
        doc = {"traceEvents": [
            {"name": "load", "ph": "X", "ts": 0.0, "dur": 1.0,
             "pid": 0, "tid": 0},
        ]}
        assert validate_chrome_trace(doc) == []

    def test_problem_flood_suppressed(self):
        doc = {"traceEvents": [{"bad": True}] * 100}
        problems = validate_chrome_trace(doc)
        assert problems[-1] == "... (further problems suppressed)"
        assert len(problems) <= 21
