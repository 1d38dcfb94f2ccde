"""The paper's evaluation, one registry entry per committed table.

Each :class:`Figure` is written down once: the driver sweeps behind its
cells, the renderer that produces ``results/<name>.txt``, and the
paper's claims about it, each graded by a predicate over the same
results the renderer reads. ``repro figures`` renders, ``repro
validate`` grades every claim, and ``repro area`` prints ``sec44``.

The claims are graded at the committed scale (4 clusters, workload
scale 1.0). Smaller machines shrink the per-cluster footprints below
the fixed 64 KB L2, and several claims do not hold there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.area import DirectoryAreaModel
from repro.analysis.experiments import (DIRECTORY_SWEEP_SIZES, L2_SWEEP_BYTES,
                                        ExperimentConfig, figure10_policies,
                                        run_directory_occupancy,
                                        run_directory_sweep,
                                        run_message_breakdown, run_model_knobs,
                                        run_performance,
                                        run_stack_only_ablation,
                                        run_useful_coherence_ops,
                                        standard_policies)
from repro.analysis.parallel import ProgressFn
from repro.analysis.report import (format_table, grouped_bar_chart,
                                   message_breakdown_rows,
                                   short_message_headers)
from repro.config import MachineConfig
from repro.types import SegmentClass
from repro.workloads import ALL_WORKLOADS


@dataclass(frozen=True)
class ClaimResult:
    """Outcome of checking one claim."""

    claim: str
    source: str       # paper anchor (figure/section)
    passed: bool
    measured: str
    paper: str = ""   # the paper's value

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        paper = f"; paper: {self.paper}" if self.paper else ""
        return f"[{status}] {self.claim} ({self.source}{paper}): {self.measured}"


@dataclass(frozen=True)
class Claim:
    """One claim of the paper about a figure.

    ``predicate`` reads the figure's results and returns whether the
    claim holds and the measured value it judged.
    """

    text: str
    source: str
    paper: str
    predicate: Callable[[object], Tuple[bool, str]]

    def grade(self, results) -> ClaimResult:
        passed, measured = self.predicate(results)
        return ClaimResult(self.text, self.source, bool(passed), measured,
                           self.paper)


class Sweeps:
    """The driver sweeps behind the figures, each run at most once.

    Figures that read the same sweep share it: fig02, fig08 and the
    headline read one message breakdown, and the headline reads the
    Figure 9 sweeps and occupancy, so ``repro figures all`` runs each
    sweep once. Different sweeps still ask for some identical cells
    (a cold ``figures all --clusters 1 --scale 0.2`` in an empty cache
    directory reports ``hits=82 misses=214``, the same unbounded
    Cohesion and HWcc runs requested by several drivers). Only the
    result cache deduplicates those: with ``REPRO_CACHE=0`` they are
    simulated once per sweep that asks for them.
    """

    def __init__(self, exp: ExperimentConfig, jobs: Optional[int] = None,
                 progress: Optional[ProgressFn] = None) -> None:
        self.exp = exp
        self.jobs = jobs
        self.progress = progress
        self._done: Dict[object, object] = {}

    def _once(self, key, driver, *args):
        if key not in self._done:
            self._done[key] = driver(*args, exp=self.exp, jobs=self.jobs,
                                     progress=self.progress)
        return self._done[key]

    def messages(self):
        return self._once("messages", run_message_breakdown, ALL_WORKLOADS,
                          standard_policies())

    def useful_ops(self):
        return self._once("useful_ops", run_useful_coherence_ops,
                          ALL_WORKLOADS, L2_SWEEP_BYTES)

    def directory_sweep(self, hybrid: bool):
        return self._once(("directory_sweep", hybrid), run_directory_sweep,
                          ALL_WORKLOADS, DIRECTORY_SWEEP_SIZES, hybrid)

    def occupancy(self):
        return self._once("occupancy", run_directory_occupancy,
                          ALL_WORKLOADS)

    def performance(self):
        return self._once("performance", run_performance, ALL_WORKLOADS)

    def stack_only(self):
        return self._once("stack_only", run_stack_only_ablation,
                          ALL_WORKLOADS)

    def knobs(self):
        return self._once("knobs", run_model_knobs, KNOB_KERNEL)


@dataclass(frozen=True)
class Figure:
    """One committed table: its cells, its renderer and its claims."""

    name: str
    cells: Callable[[Sweeps], object]
    render: Callable[[object], str]
    claims: Tuple[Claim, ...]

    def text(self, sweeps: Sweeps) -> str:
        return self.render(self.cells(sweeps))

    def grade(self, sweeps: Sweeps) -> List[ClaimResult]:
        results = self.cells(sweeps)
        return [claim.grade(results) for claim in self.claims]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def _ratios(pairs: Dict[str, float]) -> str:
    return ", ".join(f"{name} {value:.2f}x" for name, value in pairs.items())


# -- Figures 2 and 8: message breakdowns -----------------------------------

FIG02_LABELS = ("SWcc", "HWccIdeal")


def _hwcc_over_swcc(results) -> Dict[str, float]:
    return {name: results[name]["HWccIdeal"].total_messages
            / max(1, results[name]["SWcc"].total_messages)
            for name in ALL_WORKLOADS}


def _message_sections(results, labels: Sequence[str]) -> List[str]:
    sections = []
    for name in ALL_WORKLOADS:
        subset = {label: results[name][label] for label in labels}
        rows = message_breakdown_rows(subset, normalize_to="SWcc")
        sections.append(format_table(short_message_headers(), rows,
                                     title=f"[{name}] (normalized to SWcc)"))
    return sections


def _render_fig02(results) -> str:
    ratios = _hwcc_over_swcc(results)
    summary = format_table(["benchmark", "HWcc/SWcc messages"],
                           [[n, r] for n, r in ratios.items()],
                           title="Figure 2 summary")
    chart = grouped_bar_chart(
        {name: {label: results[name][label].total_messages
                / max(1, results[name]["SWcc"].total_messages)
                for label in FIG02_LABELS}
         for name in ALL_WORKLOADS},
        order=list(FIG02_LABELS),
        title="Figure 2: relative L2->L3 messages (normalized to SWcc)")
    return "\n\n".join(_message_sections(results, FIG02_LABELS)
                       + [summary, chart])


def _hwcc_exceeds_swcc(results):
    ratios = _hwcc_over_swcc(results)
    del ratios["kmeans"]
    return all(r > 1.0 for r in ratios.values()), _ratios(ratios)


def _kmeans_inverts(results):
    ratio = _hwcc_over_swcc(results)["kmeans"]
    return ratio < 1.0, f"HWcc/SWcc = {ratio:.3f}x"


def _read_releases_hwcc_only(results):
    swcc = sum(results[n]["SWcc"].messages.read_release
               for n in ALL_WORKLOADS)
    hwcc = sum(results[n]["HWccIdeal"].messages.read_release
               for n in ALL_WORKLOADS)
    return swcc == 0 and hwcc > 0, f"SWcc {swcc}, HWccIdeal {hwcc:,}"


def _message_totals(results) -> Dict[str, int]:
    return {label: sum(results[name][label].total_messages
                       for name in ALL_WORKLOADS)
            for label in standard_policies()}


def _render_fig08(results) -> str:
    totals = _message_totals(results)
    summary = format_table(
        ["config", "total messages", "vs SWcc"],
        [[label, count, count / totals["SWcc"]]
         for label, count in totals.items()],
        title="Figure 8 aggregate")
    return "\n\n".join(_message_sections(results, list(standard_policies()))
                       + [summary])


def _cohesion_below_hwcc(results):
    totals = _message_totals(results)
    return (totals["Cohesion"] < totals["HWccIdeal"]
            and totals["Cohesion"] <= totals["HWccReal"],
            f"Cohesion {totals['Cohesion']:,}, HWccIdeal "
            f"{totals['HWccIdeal']:,}, HWccReal {totals['HWccReal']:,}")


def _kmeans_swcc_above_cohesion(results):
    swcc = results["kmeans"]["SWcc"].total_messages
    cohesion = results["kmeans"]["Cohesion"].total_messages
    return swcc > cohesion, f"SWcc {swcc:,} vs Cohesion {cohesion:,}"


STREAMING = ("heat", "stencil", "sobel", "dmm")


def _cohesion_beats_hwcc_streaming(results):
    ratios = {name: results[name]["Cohesion"].total_messages
              / max(1, results[name]["HWccIdeal"].total_messages)
              for name in STREAMING}
    return (all(r < 1.0 for r in ratios.values()),
            "Cohesion/HWccIdeal: " + _ratios(ratios))


# -- Figure 3: useful coherence instructions vs L2 size ---------------------

def _render_fig03(results) -> str:
    headers = ["benchmark"] + [f"{size // 1024}K" for size in L2_SWEEP_BYTES]
    rows = [[name] + [results[name][size]["useful_all"]
                      for size in L2_SWEEP_BYTES]
            for name in ALL_WORKLOADS]
    return format_table(
        headers, rows,
        title="Figure 3: useful fraction of SWcc INV/WB instructions "
              "vs L2 size")


def _useful_grows(results):
    small = _mean(results[n][L2_SWEEP_BYTES[0]]["useful_all"]
                  for n in ALL_WORKLOADS)
    large = _mean(results[n][L2_SWEEP_BYTES[-1]]["useful_all"]
                  for n in ALL_WORKLOADS)
    return (large > small and small < 0.9,
            f"mean 8K {small:.3f} -> 128K {large:.3f}")


def _useful_never_falls(results):
    falling = [n for n in ALL_WORKLOADS
               if results[n][L2_SWEEP_BYTES[-1]]["useful_all"]
               < results[n][L2_SWEEP_BYTES[0]]["useful_all"] - 0.05]
    return not falling, "falling: " + (", ".join(falling) or "none")


# -- Figures 9a/9b: slowdown vs directory size ------------------------------

def _sweep_renderer(title: str) -> Callable[[object], str]:
    def render(results) -> str:
        headers = ["benchmark"] + [str(s) for s in DIRECTORY_SWEEP_SIZES]
        rows = [[name] + [results[name][s] for s in DIRECTORY_SWEEP_SIZES]
                for name in ALL_WORKLOADS]
        return format_table(headers, rows, title=title)
    return render


SMALLEST, LARGEST = DIRECTORY_SWEEP_SIZES[0], DIRECTORY_SWEEP_SIZES[-1]


def _large_directory_is_infinite(results):
    mean = _mean(results[n][LARGEST] for n in ALL_WORKLOADS)
    return mean < 1.1, f"mean @{LARGEST}: {mean:.3f}x"


def _small_directory_thrashes(results):
    mean = _mean(results[n][SMALLEST] for n in ALL_WORKLOADS)
    worst = max(results[n][SMALLEST] for n in ALL_WORKLOADS)
    return (mean > 1.15 and worst > 1.5,
            f"@{SMALLEST}: mean {mean:.3f}x, worst {worst:.3f}x")


def _shrinking_never_helps(results):
    helped = [n for n in ALL_WORKLOADS
              if results[n][SMALLEST] < results[n][LARGEST] - 0.1]
    return not helped, "helped: " + (", ".join(helped) or "none")


def _cohesion_insensitive(results):
    mean = _mean(results[n][SMALLEST] for n in ALL_WORKLOADS)
    worst = max(results[n][SMALLEST] for n in ALL_WORKLOADS)
    return (mean < 1.3 and worst < 2.0,
            f"@{SMALLEST}: mean {mean:.3f}x, worst {worst:.3f}x")


def _mostly_robust(results):
    robust = sum(1 for n in ALL_WORKLOADS if results[n][SMALLEST] < 1.1)
    return robust >= 5, f"{robust}/{len(ALL_WORKLOADS)} below 1.1x"


# -- Figure 9c: directory occupancy ------------------------------------------

def _occupancy_reduction(results) -> float:
    hwcc = sum(results[n]["HWcc"]["avg"] for n in ALL_WORKLOADS)
    cohesion = sum(results[n]["Cohesion"]["avg"] for n in ALL_WORKLOADS)
    return hwcc / max(1.0, cohesion)


def _stack_share(by_class: Dict, total: float) -> float:
    return by_class[SegmentClass.STACK] / max(1.0, total)


def _render_fig09c(results) -> str:
    rows = []
    for name in ALL_WORKLOADS:
        for label in ("Cohesion", "HWcc"):
            entry = results[name][label]
            by_class = entry["by_class"]
            rows.append([name, label, entry["avg"], entry["max"],
                         by_class[SegmentClass.CODE],
                         by_class[SegmentClass.STACK],
                         by_class[SegmentClass.HEAP_GLOBAL]])
    mean_stack_share = _mean(
        _stack_share(results[n]["HWcc"]["by_class"], results[n]["HWcc"]["avg"])
        for n in ALL_WORKLOADS)
    return format_table(
        ["benchmark", "config", "avg entries", "max entries", "code",
         "stack", "heap/global"], rows,
        title=("Figure 9c: directory occupancy with unbounded directories\n"
               f"(aggregate reduction {_occupancy_reduction(results):.2f}x, "
               f"paper: 2.1x; mean HWcc stack share {mean_stack_share:.1%}, "
               "paper: ~15%)"))


def _halves_occupancy(results):
    reduction = _occupancy_reduction(results)
    return reduction >= 2.0, f"{reduction:.2f}x"


def _cohesion_fewer_entries(results):
    worse = [n for n in ALL_WORKLOADS
             if results[n]["Cohesion"]["avg"] >= results[n]["HWcc"]["avg"]]
    return not worse, "not fewer: " + (", ".join(worse) or "none")


def _code_negligible(results):
    share = max(results[n]["HWcc"]["by_class"][SegmentClass.CODE]
                / max(1.0, results[n]["HWcc"]["avg"]) for n in ALL_WORKLOADS)
    return share < 0.05, f"largest HWcc code share {share:.1%}"


def _peak_at_least_mean(results):
    below = [n for n in ALL_WORKLOADS
             if results[n]["HWcc"]["max"] < results[n]["HWcc"]["avg"]]
    return not below, "peak below mean: " + (", ".join(below) or "none")


# -- Figure 10: relative performance ------------------------------------------

def _fig10_means(results) -> Dict[str, float]:
    return {label: _mean(results[n][label] for n in ALL_WORKLOADS)
            for label in figure10_policies()}


def _render_fig10(results) -> str:
    labels = list(figure10_policies())
    rows = [[name] + [results[name][label] for label in labels]
            for name in ALL_WORKLOADS]
    means = _fig10_means(results)
    rows.append(["geomean-ish (mean)"] + [means[label] for label in labels])
    table = format_table(
        ["benchmark"] + labels, rows,
        title="Figure 10: runtime normalized to Cohesion (full-map)")
    return table + "\n\n" + grouped_bar_chart(results, order=labels)


def _dir4b_tracks_full_map(results):
    gaps = {n: abs(results[n]["CohesionLimited"] - results[n]["Cohesion"])
            for n in ALL_WORKLOADS}
    worst = max(gaps, key=gaps.get)
    return gaps[worst] < 0.25, f"largest gap {gaps[worst]:.3f} ({worst})"


def _cohesion_competitive(results):
    lagging = [n for n in ALL_WORKLOADS
               if not (results[n]["HWccOpt"] > 0.6 * results[n]["Cohesion"]
                       and results[n]["Cohesion"] < 1.6 * max(
                           results[n]["HWccOpt"], results[n]["SWcc"]))]
    return not lagging, "outside: " + (", ".join(lagging) or "none")


def _band_around_cohesion(results):
    means = _fig10_means(results)
    return (0.5 < means["SWcc"] < 1.3 and 0.5 < means["HWccOpt"] < 1.3,
            f"mean SWcc {means['SWcc']:.3f}x, "
            f"HWccOpt {means['HWccOpt']:.3f}x")


# -- abstract / Section 4.6: headline claims -----------------------------------

def _headline_cells(sweeps: Sweeps) -> Dict[str, object]:
    return {"messages": sweeps.messages(), "occupancy": sweeps.occupancy(),
            "HWcc": sweeps.directory_sweep(False),
            "Cohesion": sweeps.directory_sweep(True)}


def _headline_numbers(results) -> Dict[str, float]:
    messages = results["messages"]
    return {
        "msg_hwcc": sum(messages[n]["HWccIdeal"].total_messages
                        for n in ALL_WORKLOADS),
        "msg_coh": sum(messages[n]["Cohesion"].total_messages
                       for n in ALL_WORKLOADS),
        "slow_hwcc": _mean(results["HWcc"][n][SMALLEST]
                           for n in ALL_WORKLOADS),
        "slow_coh": _mean(results["Cohesion"][n][SMALLEST]
                          for n in ALL_WORKLOADS),
    }


def _render_headline(results) -> str:
    numbers = _headline_numbers(results)
    rows = [
        ["message reduction vs HWccIdeal (paper: 2x)",
         numbers["msg_hwcc"] / max(1, numbers["msg_coh"])],
        ["directory utilization reduction (paper: 2.1x)",
         _occupancy_reduction(results["occupancy"])],
        ["mean slowdown @256 entries/bank, HWcc", numbers["slow_hwcc"]],
        ["mean slowdown @256 entries/bank, Cohesion", numbers["slow_coh"]],
    ]
    return format_table(["claim", "measured"], rows,
                        title="Headline claims (abstract / Section 4.6)")


def _traffic_reduced(results):
    numbers = _headline_numbers(results)
    return (numbers["msg_hwcc"] > numbers["msg_coh"],
            f"{numbers['msg_hwcc'] / max(1, numbers['msg_coh']):.3f}x")


def _more_robust(results):
    numbers = _headline_numbers(results)
    return (numbers["slow_coh"] < numbers["slow_hwcc"],
            f"mean @{SMALLEST}/bank: HWcc {numbers['slow_hwcc']:.3f}x vs "
            f"Cohesion {numbers['slow_coh']:.3f}x")


# -- Section 4.4: directory area --------------------------------------------------

def _area_cells(_sweeps: Sweeps) -> Dict[str, object]:
    model = DirectoryAreaModel(MachineConfig())
    return {"estimates": model.summary(),
            "assoc": model.duplicate_tag_associativity()}


def _render_sec44(results) -> str:
    rows = [[e.scheme, e.total_mb, e.fraction_of_l2 * 100]
            for e in results["estimates"]]
    rows.append(["duplicate-tag assoc required", results["assoc"], 0.0])
    return format_table(
        ["scheme", "MB", "% of aggregate L2"], rows,
        title="Section 4.4: directory storage for the 1024-core baseline")


def _near(value: float, target: float, rel: float) -> bool:
    return abs(value - target) <= rel * abs(target)


def _full_map_size(results):
    full_map = results["estimates"][0]
    return (_near(full_map.total_mb, 9.28, 0.03)
            and _near(full_map.fraction_of_l2, 1.13, 0.03),
            f"{full_map.total_mb:.3f} MB, {full_map.fraction_of_l2:.1%}")


def _dir4b_size(results):
    dir4b = results["estimates"][1]
    return _near(dir4b.total_mb, 2.88, 0.01), f"{dir4b.total_mb:.3f} MB"


def _duplicate_tags(results):
    dup = results["estimates"][2]
    return (dup.total_bytes == 736 * 1024 and results["assoc"] == 2048,
            f"{dup.total_bytes / 1024:g} KB, {results['assoc']}-way")


# -- Section 4.3: stack-only ablation ----------------------------------------------

def _render_ablation(results) -> str:
    rows = [[name, results[name]["HWcc"], results[name]["StackOnly"],
             results[name]["Cohesion"], results[name]["stack_share_of_hwcc"]]
            for name in ALL_WORKLOADS]
    mean_share = _mean(results[n]["stack_share_of_hwcc"]
                       for n in ALL_WORKLOADS)
    return format_table(
        ["benchmark", "HWcc avg", "stack-only avg", "full Cohesion avg",
         "stack share of HWcc"],
        rows,
        title=("Stack-only ablation: average directory entries\n"
               f"(mean stack share of HWcc entries {mean_share:.1%}; "
               "paper: ~15%)"))


def _ablation_totals(results) -> Dict[str, float]:
    return {label: sum(results[n][label] for n in ALL_WORKLOADS)
            for label in ("HWcc", "StackOnly", "Cohesion")}


def _stack_saves_less(results):
    totals = _ablation_totals(results)
    return (totals["Cohesion"] < totals["StackOnly"] < totals["HWcc"],
            f"HWcc {totals['HWcc']:,.0f}, stack-only "
            f"{totals['StackOnly']:,.0f}, Cohesion {totals['Cohesion']:,.0f}")


def _stack_minority(results):
    share = _mean(results[n]["stack_share_of_hwcc"] for n in ALL_WORKLOADS)
    return share < 0.5, f"mean {share:.1%}"


def _stack_noticeable_somewhere(results):
    share = max(results[n]["stack_share_of_hwcc"] for n in ALL_WORKLOADS)
    return share > 0.10, f"largest {share:.1%}"


# -- the simulator's own model knobs -----------------------------------------------

KNOB_KERNEL = "sobel"


def _render_knobs(results) -> str:
    base_cycles = results[("write_buffer", 16)].cycles
    rows = [[f"{knob}={value}", stats.cycles, stats.cycles / base_cycles,
             stats.total_messages]
            for (knob, value), stats in results.items()]
    return format_table(
        ["knob", "cycles", "vs default", "messages"], rows,
        title=f"Model-knob ablation on {KNOB_KERNEL} (default: "
              "write_buffer=16, tree_bw=4)")


def _messages_stable(results):
    messages = [stats.total_messages for stats in results.values()]
    return (max(messages) < 1.05 * min(messages),
            f"max/min {max(messages) / min(messages):.3f}")


def _flat_near_defaults(results):
    base = results[("write_buffer", 16)].cycles
    buffer_gap = abs(results[("write_buffer", 8)].cycles - base) / base
    tree_gap = abs(results[("tree_bw", 4.0)].cycles
                   - results[("tree_bw", 16.0)].cycles) / base
    return (buffer_gap < 0.15 and tree_gap < 0.15,
            f"write_buffer 8 vs 16: {buffer_gap:.1%}, "
            f"tree_bw 4 vs 16: {tree_gap:.1%}")


def _starving_hurts(results):
    base = results[("write_buffer", 16)].cycles
    starved = results[("write_buffer", 2)].cycles / base
    narrow = results[("tree_bw", 1.0)].cycles
    wide = results[("tree_bw", 16.0)].cycles
    return (starved > 1.2 and narrow >= wide - 1e-6,
            f"write_buffer=2 {starved:.3f}x, tree_bw 1 vs 16: "
            f"{narrow / wide:.3f}x")


# -- the registry ----------------------------------------------------------------------

FIGURES: Dict[str, Figure] = {figure.name: figure for figure in (
    Figure("fig02", Sweeps.messages, _render_fig02, (
        Claim("optimistic HWcc sends more messages than SWcc on every "
              "kernel but kmeans", "Figure 2", "all but kmeans above 1x",
              _hwcc_exceeds_swcc),
        Claim("kmeans inverts: its SWcc uncached atomics exceed HWcc "
              "traffic", "Figure 2 / Section 2.1", "below 1x",
              _kmeans_inverts),
        Claim("read releases exist only under hardware coherence",
              "Section 2.1", "HWcc-only message class",
              _read_releases_hwcc_only),
    )),
    Figure("fig03", Sweeps.useful_ops, _render_fig03, (
        Claim("the useful fraction of SWcc INV/WB instructions grows with "
              "L2 size, and much of it is wasted at 8K", "Figure 3",
              "0.03 at 8K -> 0.77 at 128K", _useful_grows),
        Claim("no kernel's useful fraction falls as the L2 grows",
              "Figure 3", "rises with capacity", _useful_never_falls),
    )),
    Figure("fig08", Sweeps.messages, _render_fig08, (
        Claim("Cohesion sends fewer messages than both HWcc "
              "configurations in aggregate", "Figure 8",
              "below HWccIdeal and HWccReal", _cohesion_below_hwcc),
        Claim("kmeans is where SWcc exceeds Cohesion", "Figure 8",
              "SWcc above Cohesion", _kmeans_swcc_above_cohesion),
        Claim("Cohesion sends fewer messages than optimistic HWcc on the "
              "streaming kernels", "Figure 8", "below HWccIdeal",
              _cohesion_beats_hwcc_streaming),
    )),
    Figure("fig09a", lambda sweeps: sweeps.directory_sweep(False),
           _sweep_renderer("Figure 9a: HWcc slowdown vs directory "
                           "entries/bank (normalized to infinite directory)"),
           (
        Claim("a 16K-entry directory behaves like an infinite one",
              "Figure 9a", "about 1x", _large_directory_is_infinite),
        Claim("small directories make HWcc thrash", "Figure 9a",
              "up to about 8x at 256", _small_directory_thrashes),
        Claim("shrinking the directory never helps HWcc", "Figure 9a",
              "monotone", _shrinking_never_helps),
    )),
    Figure("fig09b", lambda sweeps: sweeps.directory_sweep(True),
           _sweep_renderer("Figure 9b: Cohesion slowdown vs directory "
                           "entries/bank (normalized to infinite directory)"),
           (
        Claim("Cohesion is nearly insensitive to directory size",
              "Figure 9b", "nearly flat", _cohesion_insensitive),
        Claim("most kernels are fully robust at 256 entries/bank",
              "Figure 9b", "nearly flat", _mostly_robust),
    )),
    Figure("fig09c", Sweeps.occupancy, _render_fig09c, (
        Claim("Cohesion reduces directory utilization by at least 2x",
              "Figure 9c / abstract", "2.1x", _halves_occupancy),
        Claim("Cohesion allocates fewer directory entries than HWcc on "
              "every kernel", "Figure 9c", "lower on every kernel",
              _cohesion_fewer_entries),
        Claim("code is a negligible share of HWcc directory entries",
              "Figure 9c", "negligible", _code_negligible),
        Claim("peak directory occupancy is at least the time average",
              "Figure 9c", "max >= avg", _peak_at_least_mean),
    )),
    Figure("fig10", Sweeps.performance, _render_fig10, (
        Claim("Cohesion with a Dir4B directory tracks full-map Cohesion",
              "Figure 10", "within a few percent", _dir4b_tracks_full_map),
        Claim("Cohesion is competitive with optimistic HWcc and SWcc on "
              "every kernel", "Figure 10", "competitive",
              _cohesion_competitive),
        Claim("SWcc and optimistic HWcc land in a band around Cohesion",
              "Figure 10", "0.84x-1.25x", _band_around_cohesion),
    )),
    Figure("sec44", _area_cells, _render_sec44, (
        Claim("full-map directory storage is about 9.28 MB, 113% of the "
              "aggregate L2", "Section 4.4", "9.28 MB, 113%",
              _full_map_size),
        Claim("a Dir4B directory needs 2.88 MB", "Section 4.4", "2.88 MB",
              _dir4b_size),
        Claim("duplicate tags need 736 KB per replica at 2048-way "
              "associativity", "Section 4.4", "736 KB, 2048-way",
              _duplicate_tags),
    )),
    Figure("headline", _headline_cells, _render_headline, (
        Claim("Cohesion reduces message traffic relative to optimistic "
              "HWcc", "abstract / Section 4.6", "2x", _traffic_reduced),
        Claim("tiny directories hurt HWcc more than Cohesion",
              "abstract / Figures 9a-9b", "greater robustness",
              _more_robust),
    )),
    Figure("ablation", Sweeps.stack_only, _render_ablation, (
        Claim("incoherent stacks alone save some directory entries, full "
              "Cohesion far more", "Section 4.3",
              "most savings from the incoherent heap", _stack_saves_less),
        Claim("stacks are a minority of HWcc's directory entries",
              "Section 4.3", "about 15%", _stack_minority),
        Claim("for some kernels the stack alone is a noticeable share",
              "Section 4.3", "most of the benefit for some",
              _stack_noticeable_somewhere),
    )),
    Figure("knobs", Sweeps.knobs, _render_knobs, (
        Claim("message counts barely move with the timing knobs",
              "DESIGN.md substitutions", "simulator choice",
              _messages_stable),
        Claim("runtime is flat near the default write buffer and tree "
              "bandwidth", "DESIGN.md substitutions", "simulator choice",
              _flat_near_defaults),
        Claim("starving the write buffer hurts and narrowing the tree "
              "never helps", "DESIGN.md substitutions", "simulator choice",
              _starving_hurts),
    )),
)}


def grade_all(sweeps: Sweeps) -> List[ClaimResult]:
    """Grade every registry claim from the registry's own cells."""
    return [result for figure in FIGURES.values()
            for result in figure.grade(sweeps)]


def format_scorecard(results: Sequence[ClaimResult]) -> str:
    passed = sum(1 for r in results if r.passed)
    lines = [str(r) for r in results]
    lines.append(f"-- {passed}/{len(results)} claims reproduced")
    return "\n".join(lines)
