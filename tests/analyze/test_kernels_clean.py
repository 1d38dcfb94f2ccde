"""Acceptance gate: every shipped kernel analyzes clean under every policy.

The kernels annotate their buffers with exactly the flush/invalidate
behaviour the Task-Centric Memory Model requires, so the static rules
must find nothing -- under pure SWcc (everything software-managed),
pure HWcc (nothing is), and Cohesion (only the incoherent heap is).
"""

import pytest

from repro.analysis.experiments import ExperimentConfig
from repro.analyze import ANALYZE_RULE_IDS, analyze_workload
from repro.cli import policy_from_name
from repro.workloads import ALL_WORKLOADS

EXP = ExperimentConfig(n_clusters=1, scale=0.2)


@pytest.mark.parametrize("policy_name", ["swcc", "hwcc-ideal", "cohesion"])
@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_kernel_analyzes_clean(name, policy_name):
    report, frozen, _machine = analyze_workload(
        name, policy=policy_from_name(policy_name), exp=EXP)
    assert report.clean, report.format()
    assert report.rules_run == list(ANALYZE_RULE_IDS)
    assert len(report.rules_run) == 10
    assert report.notes == []
    assert frozen.total_tasks > 0
    assert report.summary["ops"] == frozen.total_ops
