"""Experiment declarations on tiny configurations."""

import pytest

from repro.analysis.experiments import (ExperimentConfig,
                                        directory_occupancy, directory_sweep,
                                        figure10_policies, message_breakdown,
                                        performance, stack_only_ablation,
                                        standard_policies,
                                        useful_coherence_ops)
from repro.analysis.parallel import run_sweeps
from repro.analysis.report import (MESSAGE_HEADERS, format_table,
                                   message_breakdown_rows,
                                   short_message_headers)
from repro.config import Policy

TINY = ExperimentConfig(n_clusters=2, scale=0.12)
KERNELS = ("gjk", "mri")


def run(sweep):
    """Reduce one declared sweep."""
    return run_sweeps([sweep])[0]


class TestDrivers:
    def test_message_breakdown(self):
        results = run(message_breakdown(TINY, KERNELS))
        assert set(results) == set(KERNELS)
        for per_policy in results.values():
            assert set(per_policy) == set(standard_policies())
            for stats in per_policy.values():
                assert stats.total_messages > 0

    def test_useful_coherence_ops_monotone_data(self):
        results = run(useful_coherence_ops(
            TINY, ("sobel",), l2_sizes=(8 * 1024, 64 * 1024)))
        points = results["sobel"]
        for entry in points.values():
            assert 0.0 <= entry["useful_all"] <= 1.0
            assert entry["inv_issued"] + entry["wb_issued"] > 0
        # bigger caches keep more lines alive until their coherence op
        assert points[64 * 1024]["useful_all"] >= points[8 * 1024]["useful_all"]

    def test_directory_sweep(self):
        results = run(directory_sweep(TINY, ("gjk",), sizes=(64, 4096)))
        sweep = results["gjk"]
        assert set(sweep) == {64, 4096}
        assert all(v > 0 for v in sweep.values())
        assert sweep[64] >= sweep[4096] * 0.95  # smaller is never faster

    def test_directory_sweep_hybrid_flat(self):
        hwcc = run(directory_sweep(TINY, ("heat",), sizes=(64,)))
        cohesion = run(directory_sweep(TINY, ("heat",), sizes=(64,),
                                       hybrid=True))
        assert cohesion["heat"][64] < hwcc["heat"][64]

    def test_directory_occupancy(self):
        results = run(directory_occupancy(TINY, ("heat",)))
        entry = results["heat"]
        assert entry["HWcc"]["avg"] > entry["Cohesion"]["avg"]
        assert entry["HWcc"]["max"] >= entry["HWcc"]["avg"]
        assert set(entry["HWcc"]["by_class"])  # classified

    def test_performance_normalized_to_cohesion(self):
        results = run(performance(TINY, ("mri",)))
        row = results["mri"]
        assert set(row) == set(figure10_policies())
        assert row["Cohesion"] == pytest.approx(1.0)
        assert all(v > 0 for v in row.values())

    def test_stack_only_ablation_ordering(self):
        results = run(stack_only_ablation(TINY, ("heat",)))
        row = results["heat"]
        assert row["Cohesion"] <= row["StackOnly"] <= row["HWcc"] * 1.05
        assert 0.0 <= row["stack_share_of_hwcc"] <= 1.0


class TestExperimentConfig:
    def test_from_env_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        monkeypatch.delenv("REPRO_CLUSTERS", raising=False)
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        exp = ExperimentConfig.from_env()
        assert exp.n_clusters == 4 and exp.scale == 1.0

    def test_from_env_custom(self, monkeypatch):
        monkeypatch.setenv("REPRO_CLUSTERS", "8")
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        exp = ExperimentConfig.from_env()
        assert exp.n_clusters == 8 and exp.scale == 0.5

    def test_from_env_full(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert ExperimentConfig.from_env().n_clusters == 128

    @pytest.mark.parametrize("variable,value", [
        ("REPRO_CLUSTERS", "four"), ("REPRO_CLUSTERS", "0"),
        ("REPRO_CLUSTERS", "-2"), ("REPRO_CLUSTERS", "2.5"),
        ("REPRO_SCALE", "big"), ("REPRO_SCALE", "0"),
        ("REPRO_SCALE", "-1.5"), ("REPRO_FULL", "yes"),
    ])
    def test_from_env_bad_values_name_the_variable(self, monkeypatch,
                                                   variable, value):
        from repro.errors import SimulationError

        monkeypatch.setenv(variable, value)
        with pytest.raises(SimulationError, match=variable):
            ExperimentConfig.from_env()

    def test_machine_config_overrides(self):
        exp = ExperimentConfig(n_clusters=2)
        config = exp.machine_config(l2_bytes=8 * 1024)
        assert config.l2_bytes == 8 * 1024
        assert config.n_clusters == 2

    def test_standard_policies_are_the_four_design_points(self):
        policies = standard_policies()
        assert list(policies) == ["SWcc", "Cohesion", "HWccIdeal", "HWccReal"]

    def test_figure10_has_six_configs(self):
        assert len(figure10_policies()) == 6


class TestReport:
    def test_format_table_aligns(self):
        table = format_table(["name", "value"], [["a", 1], ["bb", 2.5]],
                             title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_message_rows_normalized(self):
        results = run(message_breakdown(TINY, ("gjk",)))["gjk"]
        rows = message_breakdown_rows(results, normalize_to="SWcc")
        headers = short_message_headers()
        assert len(headers) == len(rows[0])
        swcc_row = next(r for r in rows if r[0] == "SWcc")
        assert swcc_row[-1] == pytest.approx(1.0)
        assert len(MESSAGE_HEADERS) == len(headers)
