"""The repo-invariant meta-lint (tools/selfcheck.py) and its rules."""

import pathlib
import subprocess
import sys
import textwrap

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import selfcheck  # noqa: E402


class TestTreeIsClean:
    def test_current_tree_passes(self):
        assert selfcheck.run_all() == []

    def test_cli_exit_code(self):
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "selfcheck.py")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 finding(s)" in proc.stdout


class TestS002MeasuredPaths:
    def scan(self, body):
        return selfcheck.scan_measured_path(textwrap.dedent(body), "mod.py")

    @pytest.mark.parametrize("call", [
        "time.time()", "time.perf_counter()", "time.monotonic()",
        "time.process_time()", "datetime.datetime.now()",
        "datetime.datetime.utcnow()",
    ])
    def test_wall_clock_calls_flagged(self, call):
        [finding] = self.scan(f"import time, datetime\nx = {call}\n")
        assert finding.rule == "S002" and "wall-clock" in finding.message

    def test_from_import_of_clock_flagged(self):
        [finding] = self.scan("from time import perf_counter\n")
        assert "perf_counter" in finding.message

    @pytest.mark.parametrize("call", [
        "random.random()", "random.randrange(8)", "random.shuffle(x)",
        "np.random.rand(3)", "numpy.random.randint(4)",
        "np.random.default_rng()",  # unseeded: fresh OS entropy
        "random.Random()",
    ])
    def test_global_rng_calls_flagged(self, call):
        [finding] = self.scan(f"x = {call}\n")
        assert finding.rule == "S002" and "RNG" in finding.message

    @pytest.mark.parametrize("body", [
        "r = random.Random(42)\nx = r.random()\n",
        "g = np.random.default_rng(7)\nx = g.normal()\n",
        "g = np.random.default_rng(seed=7)\n",
        "t = self.clock.now()\n",          # simulated clock, not time.*
        "import time\n",                    # import alone is fine
    ])
    def test_seeded_and_simulated_forms_allowed(self, body):
        assert self.scan(body) == []

    @staticmethod
    def src_root(tmp_path, files):
        root = tmp_path / "src" / "repro"
        root.mkdir(parents=True)
        for name, body in files.items():
            (root / name).write_text(body)
        return root

    def test_allowlist_entry_naming_no_file_flagged(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setattr(selfcheck, "WALLCLOCK_ALLOWLIST",
                            {"tool.py", "gone/harness.py"})
        root = self.src_root(tmp_path, {
            "tool.py": "import time\nt = time.perf_counter()\n"})
        [finding] = selfcheck.check_measured_paths(root)
        assert finding.rule == "S002"
        assert finding.path == "src/repro/gone/harness.py"
        assert "no such file" in finding.message

    def test_allowlisted_file_without_clock_read_flagged(self, tmp_path,
                                                         monkeypatch):
        monkeypatch.setattr(selfcheck, "WALLCLOCK_ALLOWLIST", {"tool.py"})
        root = self.src_root(tmp_path, {
            "tool.py": "import time\nx = 1\n"})
        [finding] = selfcheck.check_measured_paths(root)
        assert finding.rule == "S002"
        assert finding.path == "src/repro/tool.py"
        assert "reads no wall clock" in finding.message
