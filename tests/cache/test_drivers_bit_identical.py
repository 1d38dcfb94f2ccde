"""Cached runs of every figure declaration are bit-identical to fresh ones.

Each declaration runs three times: fresh (cache off), cold (cache on, all
misses), warm (cache on, all hits). All three result trees -- contents
*and* key order -- must be identical; this is the golden diff the
acceptance criteria pin.
"""

import pytest

from repro.analysis.experiments import (directory_occupancy,
                                        directory_sweep, message_breakdown,
                                        performance, stack_only_ablation,
                                        useful_coherence_ops)
from repro.analysis.parallel import run_sweeps
from repro.cache import RESULT_STATS

KERNELS = ("gjk",)

DRIVERS = [
    pytest.param(lambda exp: message_breakdown(exp, KERNELS),
                 id="message_breakdown"),
    pytest.param(lambda exp: useful_coherence_ops(
        exp, KERNELS, (8 * 1024, 16 * 1024)), id="useful_coherence_ops"),
    pytest.param(lambda exp: directory_sweep(exp, KERNELS, (256, 1024)),
                 id="directory_sweep"),
    pytest.param(lambda exp: directory_occupancy(exp, KERNELS),
                 id="directory_occupancy"),
    pytest.param(lambda exp: performance(exp, KERNELS), id="performance"),
    pytest.param(lambda exp: stack_only_ablation(exp, KERNELS),
                 id="stack_only_ablation"),
]


def _key_order(tree):
    if not isinstance(tree, dict):
        return None
    return [(key, _key_order(value)) for key, value in tree.items()]


@pytest.mark.parametrize("driver", DRIVERS)
def test_fresh_cold_warm_identical(driver, cache_dir, tiny_exp,
                                   monkeypatch):
    def run():
        return run_sweeps([driver(tiny_exp)], jobs=1)[0]

    monkeypatch.setenv("REPRO_CACHE", "0")
    fresh = run()
    monkeypatch.delenv("REPRO_CACHE")
    RESULT_STATS.reset()
    cold = run()
    assert RESULT_STATS.hits == 0 and RESULT_STATS.misses > 0
    RESULT_STATS.reset()
    warm = run()
    assert RESULT_STATS.misses == 0 and RESULT_STATS.hits > 0
    assert fresh == cold == warm
    assert _key_order(fresh) == _key_order(cold) == _key_order(warm)
