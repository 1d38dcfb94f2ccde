"""The ``repro mc`` subcommand: output, exit codes, trace round-trip."""

import json

import pytest

from repro.cli import main


class TestListing:
    def test_list_presets(self, capsys):
        assert main(["mc", "--list-presets"]) == 0
        out = capsys.readouterr().out
        assert "smoke" in out and "default" in out

    def test_list_mutations(self, capsys):
        assert main(["mc", "--list-mutations"]) == 0
        out = capsys.readouterr().out
        assert "skip-merge-writeback" in out


class TestExploreCommand:
    def test_smoke_clean_exit_zero(self, capsys):
        assert main(["mc", "--preset", "smoke", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "exploration is exhaustive" in out
        assert "all invariants hold" in out

    def test_json_output(self, capsys):
        assert main(["mc", "--preset", "smoke", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["exhaustive"] is True
        assert payload["states"] > 100

    def test_unknown_preset_exit_two(self, capsys):
        assert main(["mc", "--preset", "bogus"]) == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_unknown_mutation_exit_two(self, capsys):
        assert main(["mc", "--preset", "smoke", "--mutate", "bogus"]) == 2
        assert "unknown mutation" in capsys.readouterr().err

    def test_summary_row(self, capsys, tmp_path):
        summary = tmp_path / "summary.md"
        assert main(["mc", "--preset", "smoke", "--quiet",
                     "--summary", str(summary)]) == 0
        row = summary.read_text()
        assert "`smoke`" in row and "exhaustive" in row and "clean" in row
        # | preset | mutation | states | transitions | seconds | coverage
        # | result |: the seconds cell is the exploration's wall time.
        cells = [cell.strip() for cell in row.strip().strip("|").split("|")]
        assert len(cells) == 7
        assert cells[2].isdigit() and cells[3].isdigit()
        assert float(cells[4]) >= 0.0
        assert cells[4] == f"{float(cells[4]):.2f}"

    def test_jobs_help_names_the_real_default(self, capsys):
        with pytest.raises(SystemExit):
            main(["mc", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "0 = one per CPU; default: $REPRO_JOBS or 1" in text
        assert "all cores" not in text

    def test_default_jobs_is_serial(self, monkeypatch):
        from repro.mc import PRESETS, explore

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert explore(PRESETS["smoke"]).jobs == 1


class TestReductionFlags:
    def test_reduction_line_printed_by_default(self, capsys):
        assert main(["mc", "--preset", "smoke", "--quiet"]) == 0
        assert "reduction:" in capsys.readouterr().out

    def test_no_reduce_restores_plain_output(self, capsys):
        assert main(["mc", "--preset", "smoke", "--quiet",
                     "--no-reduce"]) == 0
        assert "reduction:" not in capsys.readouterr().out

    def test_equality_gate_smoke_exit_zero(self, capsys):
        assert main(["mc", "--preset", "smoke", "--quiet",
                     "--equality-gate"]) == 0
        out = capsys.readouterr().out
        assert "equality gate" in out
        assert "orbits" in out and "FAIL" not in out

    def test_equality_gate_json(self, capsys):
        assert main(["mc", "--preset", "smoke", "--quiet",
                     "--equality-gate", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert set(payload["checks"]) == \
            {"verdict", "violations", "coverage", "orbits"}

    def test_out_writes_trajectory(self, capsys, tmp_path):
        assert main(["mc", "--preset", "smoke", "--quiet",
                     "--out", str(tmp_path)]) == 0
        [path] = tmp_path.glob("MC_*.json")
        payload = json.loads(path.read_text())
        assert payload["result"]["preset"] == "smoke"
        assert payload["levels"][0]["depth"] == 0
        assert payload["levels"][-1]["states"] == \
            payload["result"]["states"]


class TestMutationFlow:
    def test_mutation_caught_exit_one(self, capsys):
        code = main(["mc", "--preset", "smoke", "--quiet",
                     "--mutate", "keep-incoherent-bit"])
        out = capsys.readouterr().out
        assert code == 1
        assert "INVARIANT VIOLATION" in out
        assert "counterexample" in out

    def test_trace_out_and_replay(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        assert main(["mc", "--preset", "smoke", "--quiet",
                     "--mutate", "keep-incoherent-bit",
                     "--trace-out", str(trace)]) == 1
        capsys.readouterr()
        assert main(["mc", "--replay", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "reproduced" in out

    def test_replay_missing_file_exit_two(self, capsys):
        assert main(["mc", "--replay", "/nonexistent/trace.json"]) == 2

    def test_replay_json(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        main(["mc", "--preset", "smoke", "--quiet",
              "--mutate", "skip-merge-writeback",
              "--trace-out", str(trace)])
        capsys.readouterr()
        assert main(["mc", "--replay", str(trace), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reproduced"] is True
        assert payload["mutation"] == "skip-merge-writeback"
