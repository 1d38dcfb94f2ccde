"""Command-line interface."""

import pathlib

import pytest

from repro.cli import build_parser, main, policy_from_name
from repro.types import DirectoryKind, PolicyKind

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"


class TestPolicyNames:
    def test_all_names_resolve(self):
        for name in ("swcc", "hwcc-ideal", "hwcc-real", "hwcc-dir4b",
                     "cohesion", "cohesion-ideal", "cohesion-dir4b"):
            policy = policy_from_name(name)
            assert policy is not None

    def test_kinds(self):
        assert policy_from_name("swcc").kind is PolicyKind.SWCC
        assert policy_from_name("hwcc-real").kind is PolicyKind.HWCC
        assert policy_from_name("cohesion").kind is PolicyKind.COHESION
        assert policy_from_name("hwcc-dir4b").directory is DirectoryKind.DIR4B
        assert policy_from_name("cohesion-dir4b").directory is DirectoryKind.DIR4B
        assert policy_from_name("cohesion-ideal").directory is DirectoryKind.INFINITE

    def test_sizing_forwarded(self):
        policy = policy_from_name("hwcc-real", entries=512, assoc=8)
        assert policy.dir_entries_per_bank == 512
        assert policy.dir_assoc == 8

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            policy_from_name("mesi")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--workload", "heat"])
        assert args.policy == "cohesion"
        assert args.clusters is None

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "linpack"])


class TestCommands:
    def test_run_command(self, capsys):
        code = main(["run", "--workload", "gjk", "--clusters", "1",
                     "--scale", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "gjk under cohesion" in out
        assert "total L2->L3 msgs" in out

    def test_run_with_track_data(self, capsys):
        code = main(["run", "--workload", "mri", "--clusters", "1",
                     "--scale", "0.1", "--track-data", "--policy", "swcc"])
        assert code == 0

    def test_run_with_check(self, capsys):
        code = main(["run", "--workload", "sobel", "--clusters", "1",
                     "--scale", "0.1", "--check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "invariant checks:" in out and "0 violation(s)" in out

    def test_run_json(self, capsys):
        import json

        code = main(["run", "--workload", "gjk", "--clusters", "1",
                     "--scale", "0.1", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["workload"] == "gjk"
        assert doc["stats"]["cycles"] > 0
        assert doc["metrics"]["total_messages"] == \
            doc["stats"]["total_messages"]

    def test_run_json_with_check(self, capsys):
        import json

        code = main(["run", "--workload", "gjk", "--clusters", "1",
                     "--scale", "0.1", "--json", "--check"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["invariant_checks"] > 0
        assert doc["invariant_violations"] == []

    def test_trace_command(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "trace.json"
        code = main(["trace", "--workload", "gjk", "--clusters", "1",
                     "--scale", "0.1", "--out", str(out_path),
                     "--self-check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "self-check: valid Chrome-trace JSON" in out
        doc = json.loads(out_path.read_text())
        assert doc["traceEvents"]
        assert doc["otherData"]["workload"] == "gjk"
        assert doc["otherData"]["metrics"]["dir_occupancy"]["allocs"] > 0

    def test_trace_max_events(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "trace.json"
        code = main(["trace", "--workload", "gjk", "--clusters", "1",
                     "--scale", "0.1", "--out", str(out_path),
                     "--max-events", "100", "--self-check"])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["otherData"]["captured_events"] == 100
        assert doc["otherData"]["dropped_events"] > 0

    def test_compare_command(self, capsys):
        code = main(["compare", "--workload", "gjk", "--clusters", "1",
                     "--scale", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "SWcc" in out and "HWccReal" in out
        assert "runtime and directory pressure" in out

    def test_sweep_command(self, capsys):
        code = main(["sweep", "--workload", "gjk", "--clusters", "1",
                     "--scale", "0.1", "--sizes", "64,512"])
        out = capsys.readouterr().out
        assert code == 0
        assert "HWcc" in out and "Cohesion" in out

    def test_area_command(self, capsys):
        code = main(["area"])
        out = capsys.readouterr().out
        assert code == 0
        assert "full-map" in out and "Dir4B" in out
        assert "duplicate-tag assoc required   2,048" in out

    def test_info_command(self, capsys):
        code = main(["info", "--clusters", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "16" in out  # 2 clusters x 8 cores

    def test_workloads_command(self, capsys):
        code = main(["workloads"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("cg", "dmm", "gjk", "heat", "kmeans", "mri",
                     "sobel", "stencil"):
            assert name in out

    def test_analyze_single_workload(self, capsys):
        code = main(["analyze", "sobel", "--clusters", "1",
                     "--scale", "0.2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "analyze sobel [swcc]" in out
        assert "analyze sobel [cohesion]" in out
        assert "analyzed 3 artifact(s): 0 error(s), 0 warning(s)" in out
        assert "redundant_wb_sites=0" in out

    def test_analyze_all_json(self, capsys):
        import json

        code = main(["analyze", "--all", "--policy", "cohesion", "--json",
                     "--clusters", "1", "--scale", "0.2"])
        out = capsys.readouterr().out
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 8
        assert all(r["clean"] for r in reports)
        assert all(r["summary"]["COH007"] == 0 for r in reports)

    def test_analyze_artifact_machine_free(self, tmp_path, capsys):
        from repro.analyze import analyze_workload
        from repro.cache import dump_artifact
        from repro.cli import policy_from_name
        from repro.analysis.experiments import ExperimentConfig

        _report, frozen, _machine = analyze_workload(
            "gjk", policy=policy_from_name("cohesion"),
            exp=ExperimentConfig(n_clusters=1, scale=0.2))
        path = tmp_path / "gjk.pkl"
        dump_artifact(frozen, path)
        code = main(["analyze", "--artifact", str(path),
                     "--policy", "cohesion"])
        out = capsys.readouterr().out
        assert code == 0
        assert "analyze gjk [cohesion]" in out

    def test_analyze_advise_out(self, tmp_path, capsys):
        import json

        advice_path = tmp_path / "advice.json"
        code = main(["analyze", "stencil", "--policy", "cohesion",
                     "--clusters", "1", "--scale", "0.2", "--advise",
                     "--advise-out", str(advice_path)])
        assert code == 0
        [doc] = json.loads(advice_path.read_text())
        assert doc["schema"] == 2 and doc["program"] == "stencil"
        assert doc["regions"]

    def test_analyze_summary_appended(self, tmp_path, capsys):
        summary = tmp_path / "summary.md"
        code = main(["analyze", "gjk", "--policy", "swcc", "--clusters",
                     "1", "--scale", "0.2", "--summary", str(summary)])
        assert code == 0
        text = summary.read_text()
        assert "| program | policy |" in text
        assert "| gjk | swcc | 0 | 0 | 0 | 0 |" in text

    @staticmethod
    def _unsafe_artifact(tmp_path):
        """A one-phase artifact that leaves an unflushed dirty SWcc copy
        of line ``0x4000_0000`` behind."""
        from repro.cache import dump_artifact
        from repro.runtime.program import Phase, Program, Task
        from repro.types import OP_STORE

        prog = Program(name="unsafe", phases=[Phase(
            name="w", tasks=[Task(ops=[(OP_STORE, 0x4000_0000, 1)],
                                  flush_lines=[], input_lines=[],
                                  stack_words=0)], code_lines=0)])
        artifact = tmp_path / "unsafe.pkl"
        dump_artifact(prog.freeze(), artifact)
        return artifact

    def _analyze_schedule(self, tmp_path, entry):
        import json

        artifact = self._unsafe_artifact(tmp_path)
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps([entry]))
        return main(["analyze", "--artifact", str(artifact),
                     "--policy", "cohesion", "--schedule", str(sched),
                     "--rules", "COH010"])

    def test_analyze_schedule_drives_coh010(self, tmp_path, capsys):
        # A schedule moving the unflushed region to hardware: COH010
        # errors.
        code = self._analyze_schedule(tmp_path, {
            "phase": 0, "action": "to_hwcc", "base": 0x4000_0000,
            "size": 64})
        out = capsys.readouterr().out
        assert code == 1
        assert "COH010" in out and "unflushed-dirty" in out

    @pytest.mark.parametrize("bad", [
        {"action": "to-hwcc"}, {"size": 0}, {"phase": -1}, {"phase": 7}],
        ids=["action", "size", "negative-phase", "phase-past-end"])
    def test_analyze_bad_schedule_entry_rejected(self, tmp_path, capsys,
                                                 bad):
        # Each of these would otherwise switch COH010 off (or point it
        # at a barrier the program does not have).
        entry = {"phase": 0, "action": "to_hwcc", "base": 0x4000_0000,
                 "size": 64}
        entry.update(bad)
        code = self._analyze_schedule(tmp_path, entry)
        err = capsys.readouterr().err
        assert code == 2
        assert "analyze: bad schedule file: " in err

    def test_analyze_without_workload_rejected(self, capsys):
        assert main(["analyze"]) == 2

    def test_analyze_bad_artifact_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.pkl"
        bad.write_bytes(b"junk")
        code = main(["analyze", "--artifact", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "analyze:" in err

    def test_analyze_unknown_rule_clean_error(self, capsys):
        code = main(["analyze", "gjk", "--policy", "swcc", "--clusters",
                     "1", "--scale", "0.1", "--rules", "COH999"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown analyze rule 'COH999'" in err

    def test_figures_single(self, tmp_path, capsys):
        # sec44 is closed-form, so any scale renders the committed bytes.
        code = main(["figures", "sec44", "--out", str(tmp_path)])
        assert code == 0
        assert ((tmp_path / "sec44.txt").read_text()
                == (RESULTS / "sec44.txt").read_text())
        assert [p.name for p in tmp_path.iterdir()] == ["sec44.txt"]

    def test_figure_choices_are_the_registry(self, capsys):
        from repro.analysis.figures import FIGURES
        from repro.cli import FIGURE_CHOICES

        assert FIGURE_CHOICES == (*FIGURES, "all")
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "fig02_messages"])

    def test_validate_grades_registry_claims(self, capsys, monkeypatch):
        from repro.analysis import figures

        monkeypatch.setattr(figures, "FIGURES",
                            {"sec44": figures.FIGURES["sec44"]})
        code = main(["validate"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS] a Dir4B directory needs 2.88 MB" in out
        assert "-- 3/3 claims reproduced" in out

    def test_figures_fig03(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CLUSTERS", "1")
        monkeypatch.setenv("REPRO_SCALE", "0.1")
        code = main(["figures", "fig03", "--out", str(tmp_path),
                     "--clusters", "1", "--scale", "0.1"])
        assert code == 0
        text = (tmp_path / "fig03.txt").read_text()
        assert "8K" in text and "128K" in text


class TestFriendlyErrors:
    def test_bad_env_is_one_line_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "full")
        code = main(["info"])
        err = capsys.readouterr().err
        assert code == 2
        assert "REPRO_SCALE must be a positive number" in err
        assert "Traceback" not in err

    def test_unknown_backend_error_lists_registered_names(self):
        from repro.errors import SimulationError
        from repro.runtime.backends import BACKENDS, resolve_backend

        assert BACKENDS == ("interp",)
        with pytest.raises(SimulationError) as exc:
            resolve_backend("turbo")
        msg = str(exc.value)
        assert "'turbo'" in msg
        assert "interp" in msg

    def test_vec_backend_is_gone(self, capsys):
        from repro.analysis.experiments import ExperimentConfig
        from repro.errors import SimulationError
        from repro.runtime.backends import resolve_backend
        from repro.runtime.executor import BspExecutor

        for name in (None, "", "interp"):
            assert resolve_backend(name) is BspExecutor
        with pytest.raises(SimulationError, match="'vec'"):
            resolve_backend("vec")
        with pytest.raises(SimulationError, match="'vec'"):
            ExperimentConfig(backend="vec")
        with pytest.raises(SystemExit):
            main(["run", "--workload", "gjk", "--clusters", "1",
                  "--scale", "0.1", "--backend", "interp"])
        assert "--backend" in capsys.readouterr().err


class TestCacheCommand:
    @pytest.fixture(autouse=True)
    def _own_cache(self, tmp_path, monkeypatch):
        from repro.cache import RESULT_STATS

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        RESULT_STATS.reset()  # process-global; earlier tests count too

    def _populate(self):
        assert main(["sweep", "--workload", "gjk", "--sizes", "256",
                     "--clusters", "2", "--scale", "0.12", "--quiet"]) == 0

    def test_stats_empty(self, capsys):
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "results" in out and "programs" in out

    def test_stats_json(self, capsys):
        import json
        assert main(["cache", "stats", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["enabled"] is True
        assert report["results"]["entries"] == 0

    def test_sweep_reports_cache_line(self, capsys):
        self._populate()
        err = capsys.readouterr().err
        assert "sweep: cell cache: hits=0 misses=" in err
        self._populate()
        assert "hits=" in capsys.readouterr().err

    def test_verify_clean_then_corrupt(self, tmp_path, capsys):
        self._populate()
        assert main(["cache", "verify"]) == 0
        entry = next((tmp_path / "cache" / "results").rglob("*.json"))
        entry.write_text("{broken")
        assert main(["cache", "verify"]) == 1
        assert "problem" in capsys.readouterr().out

    def test_clear_removes_everything(self, tmp_path, capsys):
        self._populate()
        assert main(["cache", "clear"]) == 0
        assert "removed" in capsys.readouterr().out
        assert not (tmp_path / "cache" / "results").exists()
        assert not (tmp_path / "cache" / "programs").exists()

    def test_bad_repro_cache_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE", "maybe")
        assert main(["cache"]) == 2
        assert "REPRO_CACHE" in capsys.readouterr().err
