"""The shipped examples run to completion (smoke, small arguments)."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args, timeout=240):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout)


class TestExamples:
    def test_quickstart(self):
        result = run_example("quickstart.py", "1", "gjk")
        assert result.returncode == 0, result.stderr
        assert "SWcc" in result.stdout and "Cohesion" in result.stdout
        assert "HWccReal" in result.stdout

    def test_domain_migration(self):
        result = run_example("domain_migration.py")
        assert result.returncode == 0, result.stderr
        assert "t0: freshly allocated" in result.stdout
        assert "no copies, one address space" in result.stdout

    def test_heterogeneous_offload(self):
        result = run_example("heterogeneous_offload.py", "1")
        assert result.returncode == 0, result.stderr
        assert "0 mismatches" in result.stdout

    @pytest.mark.slow
    def test_directory_pressure(self):
        result = run_example("directory_pressure.py", "gjk", "1",
                             timeout=600)
        assert result.returncode == 0, result.stderr
        assert "Slowdown" in result.stdout
