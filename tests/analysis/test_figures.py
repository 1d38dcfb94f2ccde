"""The figure registry: one entry per committed table, claims that bite."""

import pathlib
from types import SimpleNamespace

import pytest

from repro.analysis import parallel
from repro.analysis.experiments import (DIRECTORY_SWEEP_SIZES, L2_SWEEP_BYTES,
                                        ExperimentConfig, standard_policies)
from repro.analysis.figures import FIGURES, figure_results
from repro.cache import RESULT_STATS
from repro.cache.keys import digest
from repro.cache.results import cell_key
from repro.types import SegmentClass
from repro.workloads import ALL_WORKLOADS

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "results"


def test_registry_names_are_the_committed_tables():
    assert set(FIGURES) == {path.stem for path in RESULTS.glob("*.txt")}


def test_figures_sharing_a_sweep_run_it_once(monkeypatch):
    batches = []

    def fake_run_cells(cells, jobs=None, progress=None):
        batches.append([cell.label for cell in cells])
        return [object() for _cell in cells]

    monkeypatch.setattr(parallel, "run_cells", fake_run_cells)
    results = figure_results(["fig02", "fig08"], ExperimentConfig())
    assert batches == [[f"{name}/{label}" for name in ALL_WORKLOADS
                        for label in standard_policies()]]
    assert results["fig02"] == results["fig08"]


def test_every_figure_in_one_batch_simulates_each_cell_once(tmp_path,
                                                            monkeypatch):
    """Several figures declare the same cells (the unbounded HWcc and
    Cohesion runs feed Figures 9a-9c, 10 and the ablation); in an empty
    cache the union must ask for each distinct cell exactly once."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    RESULT_STATS.reset()
    exp = ExperimentConfig(n_clusters=1, scale=0.1)
    totals = set()
    figure_results(list(FIGURES), exp, jobs=1,
                   progress=lambda done, total, label, elapsed:
                   totals.add(total))
    distinct = {digest(cell_key(cell)) for figure in FIGURES.values()
                for _key, cell in figure.sweep(exp).cells}
    assert RESULT_STATS.hits == 0
    assert RESULT_STATS.misses == len(distinct)
    assert totals == {len(distinct)}


# -- hand-built results, shaped like the committed tables -------------------

def _stats(total, read_release=0, cycles=0):
    return SimpleNamespace(total_messages=total, cycles=cycles,
                           messages=SimpleNamespace(read_release=read_release))


def _messages():
    results = {name: {"SWcc": _stats(100), "Cohesion": _stats(80),
                      "HWccIdeal": _stats(150, read_release=5),
                      "HWccReal": _stats(160, read_release=5)}
               for name in ALL_WORKLOADS}
    results["kmeans"] = {"SWcc": _stats(200), "Cohesion": _stats(90),
                         "HWccIdeal": _stats(120, read_release=5),
                         "HWccReal": _stats(125, read_release=5)}
    return results


def _useful_ops():
    return {name: {size: {"useful_all": 0.3 + 0.1 * i}
                   for i, size in enumerate(L2_SWEEP_BYTES)}
            for name in ALL_WORKLOADS}


def _sweep(smallest):
    """Slowdowns falling linearly from ``smallest[name]`` to 1.0."""
    steps = len(DIRECTORY_SWEEP_SIZES) - 1
    return {name: {size: start + (1.0 - start) * i / steps
                   for i, size in enumerate(DIRECTORY_SWEEP_SIZES)}
            for name, start in smallest.items()}


def _hwcc_sweep():
    return _sweep({name: 1.6 for name in ALL_WORKLOADS})


def _cohesion_sweep():
    smallest = {name: 1.0 for name in ALL_WORKLOADS}
    smallest.update(dmm=1.7, gjk=1.2)
    return _sweep(smallest)


def _occupancy():
    def entry(avg, peak, code, stack):
        return {"avg": avg, "max": peak,
                "by_class": {SegmentClass.CODE: code,
                             SegmentClass.STACK: stack,
                             SegmentClass.HEAP_GLOBAL: avg - code - stack}}
    return {name: {"Cohesion": entry(200.0, 300, 0.0, 0.0),
                   "HWcc": entry(1000.0, 1500, 5.0, 100.0)}
            for name in ALL_WORKLOADS}


def _performance():
    return {name: {"Cohesion": 1.0, "CohesionLimited": 1.02, "SWcc": 0.9,
                   "HWccOpt": 1.0, "HWccReal": 3.0, "HWccLimited": 4.0}
            for name in ALL_WORKLOADS}


def _area():
    def estimate(mb, fraction, total_bytes=0):
        return SimpleNamespace(total_mb=mb, fraction_of_l2=fraction,
                               total_bytes=total_bytes)
    return {"estimates": [estimate(9.28, 1.13), estimate(2.88, 0.35),
                          estimate(0.72, 0.09, 736 * 1024),
                          estimate(23.0, 2.88)],
            "assoc": 2048}


def _stack_only():
    results = {name: {"HWcc": 1000.0, "StackOnly": 900.0, "Cohesion": 200.0,
                      "stack_share_of_hwcc": 0.1}
               for name in ALL_WORKLOADS}
    results["kmeans"]["stack_share_of_hwcc"] = 0.2
    return results


def _knobs():
    cycles = {("write_buffer", 2): 180_000, ("write_buffer", 8): 105_000,
              ("write_buffer", 16): 100_000, ("write_buffer", 64): 99_000,
              ("tree_bw", 1.0): 100_000, ("tree_bw", 2.0): 100_000,
              ("tree_bw", 4.0): 100_000, ("tree_bw", 16.0): 100_000}
    return {key: _stats(1000, cycles=value) for key, value in cycles.items()}


PASSING = {
    "fig02": _messages,
    "fig03": _useful_ops,
    "fig08": _messages,
    "fig09a": _hwcc_sweep,
    "fig09b": _cohesion_sweep,
    "fig09c": _occupancy,
    "fig10": _performance,
    "sec44": _area,
    "headline": lambda: {"messages": _messages(), "occupancy": _occupancy(),
                         "HWcc": _hwcc_sweep(), "Cohesion": _cohesion_sweep()},
    "ablation": _stack_only,
    "knobs": _knobs,
}


def put(*path_and_value):
    """A mutation that sets the number at ``path`` to ``value``."""
    *path, key, value = path_and_value

    def mutate(results):
        target = results
        for step in path:
            target = (target[step] if isinstance(target, (dict, list))
                      else getattr(target, step))
        if isinstance(target, (dict, list)):
            target[key] = value
        else:
            setattr(target, key, value)
    return mutate


def put_all(column, value, *path):
    """A mutation that sets ``results[name][column]...`` for every kernel."""
    def mutate(results):
        for name in ALL_WORKLOADS:
            put(name, column, *path, value)(results)
    return mutate


SMALL, LARGE = DIRECTORY_SWEEP_SIZES[0], DIRECTORY_SWEEP_SIZES[-1]

#: Per figure, per claim (in registry order): one mutation that moves the
#: claim's key number across its threshold.
FAILING = {
    "fig02": [put("cg", "HWccIdeal", "total_messages", 99),
              put("kmeans", "HWccIdeal", "total_messages", 201),
              put("cg", "SWcc", "messages", "read_release", 1)],
    "fig03": [put_all(L2_SWEEP_BYTES[0], 0.95, "useful_all"),
              put("cg", L2_SWEEP_BYTES[-1], "useful_all", 0.2)],
    "fig08": [put("cg", "Cohesion", "total_messages", 10_000),
              put("kmeans", "SWcc", "total_messages", 90),
              put("heat", "Cohesion", "total_messages", 150)],
    "fig09a": [put("cg", LARGE, 2.0),
               put_all(SMALL, 1.1),
               put("cg", SMALL, 0.8)],
    "fig09b": [put("dmm", SMALL, 2.1),
               lambda r: [put(n, SMALL, 1.2)(r) for n in ("cg", "heat")]],
    "fig09c": [put("cg", "Cohesion", "avg", 10_000.0),
               put("cg", "Cohesion", "avg", 1000.0),
               put("cg", "HWcc", "by_class", SegmentClass.CODE, 60.0),
               put("cg", "HWcc", "max", 999)],
    "fig10": [put("cg", "CohesionLimited", 1.3),
              put("cg", "HWccOpt", 0.5),
              put("cg", "SWcc", 4.5)],
    "sec44": [put("estimates", 0, "total_mb", 8.9),
              put("estimates", 1, "total_mb", 2.92),
              put("assoc", 1024)],
    "headline": [put("messages", "cg", "Cohesion", "total_messages", 10_000),
                 put("Cohesion", "cg", SMALL, 20.0)],
    "ablation": [put("cg", "StackOnly", 10_000.0),
                 put("cg", "stack_share_of_hwcc", 4.0),
                 put("kmeans", "stack_share_of_hwcc", 0.1)],
    "knobs": [put(("write_buffer", 2), "total_messages", 1100),
              put(("write_buffer", 8), "cycles", 120_000),
              put(("write_buffer", 2), "cycles", 110_000)],
}

CLAIMS = [(name, index) for name, figure in FIGURES.items()
          for index in range(len(figure.claims))]


def test_every_claim_has_a_failing_case():
    assert {name: len(cases) for name, cases in FAILING.items()} == {
        name: len(figure.claims) for name, figure in FIGURES.items()}


@pytest.mark.parametrize("name,index", CLAIMS,
                         ids=[f"{name}-{index}" for name, index in CLAIMS])
def test_claim_passes_then_fails_across_its_threshold(name, index):
    claim = FIGURES[name].claims[index]
    results = PASSING[name]()
    graded = claim.grade(results)
    assert graded.passed, graded
    assert graded.source == claim.source and graded.paper == claim.paper
    FAILING[name][index](results)
    assert not claim.grade(results).passed
