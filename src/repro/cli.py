"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``
    Run one workload under one memory model and print its statistics
    (``--check`` audits the protocol invariants at every barrier,
    ``--json`` emits the stats plus derived metrics as JSON).
``trace``
    Run one workload with the observability bus fully instrumented and
    export a Chrome-trace/Perfetto JSON timeline plus metrics
    time-series (``--self-check`` schema-validates the export for CI).
``analyze``
    Statically check a workload's frozen program (or an artifact file)
    against the coherence rules COH001..COH010 without simulating
    anything.
``mc``
    Exhaustively model-check the protocol implementation itself: drive
    the real directory + transition engine through every interleaving
    of a small preset universe, checking all invariants at every state.
``compare``
    Run one workload under all four Section 4.1 design points and print
    the message/runtime/directory comparison.
``sweep``
    Directory-capacity sweep (Figure 9a/9b style) for one workload.
``figures``
    Render one or all of the paper's figures/tables from the figure
    registry into a results directory (``results/`` holds them at the
    committed scale).
``validate``
    Grade every claim of the figure registry from its own cells.
``area``
    Print the Section 4.4 directory area table.
``info``
    Dump the (possibly scaled) machine configuration.
``workloads``
    List the available kernels.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
from typing import Optional, Sequence

from repro.analysis.experiments import (ExperimentConfig,
                                        run_directory_sweep,
                                        run_message_breakdown,
                                        run_workload, standard_policies)
from repro.analysis.figures import (FIGURES, Sweeps, format_scorecard,
                                    grade_all)
from repro.analysis.parallel import stderr_progress
from repro.analysis.report import (format_table, message_breakdown_rows,
                                   short_message_headers)
from repro.errors import ReproError
from repro.config import Policy
from repro.types import DirectoryKind
from repro.workloads import ALL_WORKLOADS

POLICY_CHOICES = ("swcc", "hwcc-ideal", "hwcc-real", "hwcc-dir4b",
                  "cohesion", "cohesion-ideal", "cohesion-dir4b")

FIGURE_CHOICES = (*FIGURES, "all")


def policy_from_name(name: str, entries: int = 16 * 1024,
                     assoc: int = 128) -> Policy:
    """Map a CLI policy name to a :class:`~repro.config.Policy`."""
    if name == "swcc":
        return Policy.swcc()
    if name == "hwcc-ideal":
        return Policy.hwcc_ideal()
    if name == "hwcc-real":
        return Policy.hwcc_real(entries, assoc)
    if name == "hwcc-dir4b":
        return Policy(kind=Policy.hwcc_real().kind,
                      directory=DirectoryKind.DIR4B,
                      dir_entries_per_bank=entries, dir_assoc=assoc)
    if name == "cohesion":
        return Policy.cohesion(entries, assoc)
    if name == "cohesion-ideal":
        return Policy.cohesion_ideal()
    if name == "cohesion-dir4b":
        return Policy.cohesion(entries, assoc, directory=DirectoryKind.DIR4B)
    raise ValueError(f"unknown policy {name!r}")


def _experiment_from_args(args) -> ExperimentConfig:
    exp = ExperimentConfig.from_env()
    if args.clusters is not None:
        exp.n_clusters = args.clusters
    if args.scale is not None:
        exp.scale = args.scale
    if getattr(args, "track_data", False):
        exp.track_data = True
    return exp


def _add_scale_args(parser) -> None:
    parser.add_argument("--clusters", type=int, default=None,
                        help="clusters to simulate (8 cores each)")
    parser.add_argument("--scale", type=float, default=None,
                        help="workload dataset/task scale factor")


def _add_jobs_args(parser) -> None:
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for independent cells "
                             "(0 = one per CPU; default: $REPRO_JOBS or 1)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress lines on stderr")


def _progress_from_args(args, prefix: str):
    return None if args.quiet else stderr_progress(prefix)


def _report_cache_stats(prefix: str) -> None:
    """One stderr line of result-cache accounting after a sweep.

    Printed only when the cache was actually consulted, so cache-off
    runs see no new output. CI's warm-cache step parses this line.
    """
    from repro.cache import RESULT_STATS, cache_enabled

    if not cache_enabled() or not RESULT_STATS.lookups:
        return
    skipped = (f" skipped={RESULT_STATS.skipped}"
               if RESULT_STATS.skipped else "")
    failed = (f" put_failures={RESULT_STATS.put_failures}"
              if RESULT_STATS.put_failures else "")
    print(f"{prefix}: cell cache: hits={RESULT_STATS.hits} "
          f"misses={RESULT_STATS.misses}{skipped}{failed} "
          f"({RESULT_STATS.hit_rate:.0%})",
          file=sys.stderr)


# -- commands ----------------------------------------------------------------

def cmd_run(args) -> int:
    exp = _experiment_from_args(args)
    policy = policy_from_name(args.policy, args.dir_entries, args.dir_assoc)
    checker = None

    def instrument(machine, program):
        nonlocal checker
        from repro.debug import attach_barrier_checker
        checker = attach_barrier_checker(program, machine)

    stats, machine = run_workload(
        args.workload, policy, exp,
        instrument=instrument if args.check else None)
    failed = False
    if checker is not None:
        failed |= bool(checker.all_violations)
    if exp.track_data and stats.load_mismatches:
        failed = True
    if args.json:
        import json

        from repro.obs import stats_metrics
        doc = {
            "workload": args.workload,
            "policy": args.policy,
            "n_cores": machine.config.n_cores,
            "stats": stats.as_dict(),
            "metrics": stats_metrics(stats),
        }
        if checker is not None:
            doc["invariant_checks"] = checker.checks_run
            doc["invariant_violations"] = [
                str(v) for v in checker.all_violations]
        print(json.dumps(doc, indent=2))
        return 1 if failed else 0
    print(f"{args.workload} under {args.policy} "
          f"({machine.config.n_cores} cores):")
    for line in stats.summary_lines():
        print("  " + line)
    if checker is not None:
        violations = checker.all_violations
        print(f"  invariant checks:    {checker.checks_run} barriers, "
              f"{len(violations)} violation(s)")
        for violation in violations[:20]:
            print(f"    {violation}")
    if exp.track_data and stats.load_mismatches:
        print(f"  LOAD MISMATCHES: {len(stats.load_mismatches)}")
    return 1 if failed else 0


def cmd_trace(args) -> int:
    import json

    from repro.obs import (ChromeTraceCollector, MetricsRegistry,
                           stats_metrics, validate_chrome_trace)
    from repro.obs.chrometrace import DEFAULT_MAX_EVENTS
    from repro.obs.metrics import DEFAULT_INTERVAL

    exp = _experiment_from_args(args)
    policy = policy_from_name(args.policy, args.dir_entries, args.dir_assoc)
    max_events = (DEFAULT_MAX_EVENTS if args.max_events is None
                  else args.max_events)
    interval = DEFAULT_INTERVAL if args.interval is None else args.interval
    collector = None
    registry = None

    def instrument(machine, program):
        nonlocal collector, registry
        collector = ChromeTraceCollector(machine, max_events=max_events)
        registry = MetricsRegistry(machine, interval=interval)

    stats, _machine = run_workload(args.workload, policy, exp,
                                   instrument=instrument)
    collector.detach()
    registry.detach()
    doc = collector.to_chrome()
    other = doc["otherData"]
    other["workload"] = args.workload
    other["policy"] = args.policy
    other["stats"] = stats_metrics(stats)
    other["metrics"] = registry.as_dict()

    out = pathlib.Path(args.out)
    if out.parent != pathlib.Path("."):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc) + "\n")
    print(f"trace written: {out} "
          f"({len(doc['traceEvents'])} trace events, "
          f"{collector.dropped} dropped; load in ui.perfetto.dev or "
          "chrome://tracing)")

    if args.self_check:
        # Validate the file as written (round-trip through the parser),
        # not the in-memory document -- this is the CI smoke check.
        problems = validate_chrome_trace(json.loads(out.read_text()))
        if problems:
            for problem in problems:
                print(f"trace: self-check: {problem}", file=sys.stderr)
            return 1
        print(f"self-check: valid Chrome-trace JSON "
              f"({other['captured_events']} events captured)")
    return 0


def cmd_analyze(args) -> int:
    import json

    from repro.analyze import (Severity, Transition, advise_program,
                               analyze_frozen, analyze_workload)
    from repro.errors import ScheduleError

    rules = args.rules.split(",") if args.rules else None
    schedule = ()
    if args.schedule:
        try:
            with open(args.schedule) as fh:
                entries = json.load(fh)
            schedule = tuple(
                Transition(phase=int(e["phase"]), action=str(e["action"]),
                           base=int(e["base"]), size=int(e["size"]))
                for e in entries)
        except (OSError, ValueError, KeyError, TypeError) as err:
            print(f"analyze: bad schedule file: {err}", file=sys.stderr)
            return 2
    if args.policy == "all":
        policies = [("swcc", policy_from_name("swcc")),
                    ("hwcc-ideal", policy_from_name("hwcc-ideal")),
                    ("cohesion", policy_from_name("cohesion"))]
    else:
        policies = [(args.policy, policy_from_name(args.policy))]

    reports = []
    try:
        if args.artifact:
            from repro.cache import load_artifact

            frozen = load_artifact(args.artifact)
            for label, policy in policies:
                report = analyze_frozen(frozen, kind=policy.kind,
                                        rules=rules, schedule=schedule)
                report.policy = label
                if args.advise:
                    report.advice = advise_program(frozen, kind=policy.kind)
                reports.append(report)
        else:
            exp = _experiment_from_args(args)
            names = ALL_WORKLOADS if args.all else (args.workload,)
            if names == (None,):
                print("analyze: name a workload, pass --all, or point "
                      "--artifact at a frozen program", file=sys.stderr)
                return 2
            for name in names:
                for label, policy in policies:
                    report, _frozen, _machine = analyze_workload(
                        name, policy=policy, exp=exp, rules=rules,
                        schedule=schedule, advise=args.advise)
                    report.policy = label
                    reports.append(report)
    except KeyError as err:
        print(f"analyze: {err.args[0]}", file=sys.stderr)
        return 2
    except ScheduleError as err:
        print(f"analyze: bad schedule file: {err}", file=sys.stderr)
        return 2
    except ReproError as err:
        print(f"analyze: {err}", file=sys.stderr)
        return 2

    if args.advise_out:
        document = [r.advice for r in reports if r.advice is not None]
        out = pathlib.Path(args.advise_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(document, indent=2) + "\n")
        print(f"advice -> {out}", file=sys.stderr)
    if args.summary:
        _analyze_summary(reports, args.summary)
    if args.json:
        print(json.dumps([r.as_dict() for r in reports], indent=2))
    else:
        for report in reports:
            print(report.format())
            print()
        total_e = sum(len(r.errors) for r in reports)
        total_w = sum(len(r.warnings) for r in reports)
        print(f"analyzed {len(reports)} artifact(s): "
              f"{total_e} error(s), {total_w} warning(s)")
    if any(r.errors for r in reports):
        return 1
    if any(d.severity is Severity.WARNING
           for r in reports for d in r.diagnostics):
        return 2
    return 0


def _analyze_summary(reports, path: str) -> None:
    """Append the CI step-summary table for one ``analyze`` run."""
    lines = []
    header_needed = not os.path.exists(path)
    if header_needed:
        lines.append("| program | policy | errors | warnings "
                     "| redundant WB | useless INV |")
        lines.append("|---|---|---:|---:|---:|---:|")
    for r in reports:
        lines.append(
            f"| {r.program} | {r.policy} "
            f"| {len(r.errors)} | {len(r.warnings)} "
            f"| {r.summary.get('redundant_wb_sites', 0)} "
            f"| {r.summary.get('useless_inv_sites', 0)} |")
    with open(path, "a") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_mc(args) -> int:
    import json

    from repro.mc import MUTATIONS, PRESETS, explore
    from repro.mc.trace import load_trace, replay, write_trace

    if args.list_presets:
        for name, model in PRESETS.items():
            print(f"{name:10s} {model.description}")
        return 0
    if args.list_mutations:
        for name, mutation in MUTATIONS.items():
            print(f"{name:24s} {mutation.description}")
        return 0

    if args.replay:
        try:
            payload = load_trace(args.replay)
        except (OSError, ValueError) as err:
            print(f"mc: {err}", file=sys.stderr)
            return 2
        outcome = replay(payload)
        if args.json:
            print(json.dumps(outcome, indent=2))
        else:
            print(f"replaying {len(outcome['steps'])} step(s) of "
                  f"preset {outcome['preset']!r}"
                  + (f" with mutation {outcome['mutation']!r}"
                     if outcome["mutation"] else ""))
            for step in outcome["steps"]:
                mark = "!" if step["violations"] else " "
                print(f"  {mark} {step['step']:2d}. {step['action']}")
                for violation in step["violations"]:
                    print(f"       {violation}")
            print("reproduced" if outcome["reproduced"]
                  else "NOT reproduced")
        expected = bool(payload.get("violations"))
        return 0 if outcome["reproduced"] == expected else 1

    model = PRESETS.get(args.preset)
    if model is None:
        print(f"mc: unknown preset {args.preset!r} "
              f"(have: {', '.join(PRESETS)})", file=sys.stderr)
        return 2
    if args.mutate is not None and args.mutate not in MUTATIONS:
        print(f"mc: unknown mutation {args.mutate!r} "
              f"(have: {', '.join(MUTATIONS)})", file=sys.stderr)
        return 2

    progress = None
    if not args.json and not args.quiet:
        def progress(states, transitions):
            print(f"  ... {states} states, {transitions} transitions",
                  file=sys.stderr)

    if args.equality_gate:
        from repro.mc.reduce import equality_gate
        report = equality_gate(model, jobs=args.jobs, progress=progress)
        if args.json:
            print(json.dumps(report, indent=2))
        else:
            print(f"equality gate on preset {report['preset']!r}:")
            for name, held in report["checks"].items():
                print(f"  {'ok  ' if held else 'FAIL'} {name}")
            unred, red = report["unreduced"], report["reduced"]
            print(f"  unreduced: {unred['states']} states, "
                  f"{unred['transitions']} transitions")
            print(f"  reduced:   {red['states']} states "
                  f"(representing {red['represented_states']}), "
                  f"{red['transitions']} transitions, "
                  f"factor {red['reduction_factor']}x")
        return 0 if report["ok"] else 1

    result = explore(model, mutation=args.mutate,
                     max_states=args.max_states, max_depth=args.max_depth,
                     progress=progress, reduce=not args.no_reduce,
                     jobs=args.jobs)

    if args.trace_out and result.trace is not None:
        write_trace(args.trace_out, result)
    if args.out:
        import time

        out_dir = pathlib.Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        out_path = out_dir / f"MC_{time.strftime('%Y%m%d-%H%M%S')}.json"
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"result": result.as_dict(),
                       "levels": result.levels}, fh, indent=2)
            fh.write("\n")
        if not args.json and not args.quiet:
            print(f"trajectory written to {out_path}", file=sys.stderr)
    if args.summary:
        status = "clean" if result.ok else "VIOLATION"
        if result.exhaustive:
            coverage = "exhaustive"
        elif result.truncated_by:
            coverage = f"truncated by {result.truncated_by}"
        else:
            coverage = "stopped at first violation"
        if result.reduced and result.reduction_factor:
            coverage += f" ({result.reduction_factor:.1f}x reduction)"
        with open(args.summary, "a", encoding="utf-8") as fh:
            fh.write(f"| `{result.preset}` | "
                     f"{result.mutation or '-'} | "
                     f"{result.states} | {result.transitions} | "
                     f"{result.elapsed:.2f} | {coverage} | {status} |\n")

    if args.json:
        print(json.dumps(result.as_dict(), indent=2))
    else:
        mutated = f" (mutation: {result.mutation})" if result.mutation else ""
        print(f"preset {result.preset!r}{mutated}: "
              f"{result.states} canonical states, "
              f"{result.transitions} transitions, "
              f"depth {result.max_depth_reached}, "
              f"{result.races} race(s), {result.elapsed:.2f}s")
        if result.reduced and result.represented_states is not None:
            print(f"  reduction: {result.states} orbit(s) represent "
                  f"{result.represented_states} states "
                  f"({result.reduction_factor:.2f}x), "
                  f"{result.sleep_pruned} interleaving(s) slept")
        if result.truncated_by:
            print(f"  truncated by {result.truncated_by} "
                  "(exploration is NOT exhaustive)")
        elif result.exhaustive:
            print("  frontier closed: exploration is exhaustive")
        if result.ok:
            print("  all invariants hold at every explored state")
        else:
            print("  INVARIANT VIOLATION -- minimal counterexample "
                  f"({len(result.trace)} action(s)):")
            for index, action in enumerate(result.trace, start=1):
                print(f"    {index:2d}. {action.describe()}")
            for violation in result.violations:
                print(f"  {violation}")
            if args.trace_out:
                print(f"  trace written to {args.trace_out} "
                      "(replay with: repro mc --replay)")
    return 0 if result.ok else 1


def cmd_compare(args) -> int:
    exp = _experiment_from_args(args)
    results = run_message_breakdown(
        [args.workload], standard_policies(), exp, jobs=args.jobs,
        progress=_progress_from_args(args, "compare"))[args.workload]
    rows = message_breakdown_rows(results, normalize_to="SWcc")
    print(format_table(short_message_headers(), rows,
                       title=f"{args.workload}: messages normalized to SWcc"))
    perf_rows = [[label,
                  stats.cycles,
                  stats.cycles / results["SWcc"].cycles,
                  stats.dir_avg_entries]
                 for label, stats in results.items()]
    print()
    print(format_table(
        ["config", "cycles", "vs SWcc", "avg dir entries"], perf_rows,
        title="runtime and directory pressure"))
    _report_cache_stats("compare")
    return 0


def cmd_sweep(args) -> int:
    exp = _experiment_from_args(args)
    sizes = tuple(int(s) for s in args.sizes.split(","))
    rows = []
    for label, hybrid in (("HWcc", False), ("Cohesion", True)):
        sweep = run_directory_sweep(
            [args.workload], sizes, hybrid=hybrid, exp=exp, jobs=args.jobs,
            progress=_progress_from_args(args, "sweep"))[args.workload]
        rows.append([label] + [sweep[s] for s in sizes])
    print(format_table(["config"] + [str(s) for s in sizes], rows,
                       title=f"{args.workload}: slowdown vs directory "
                             "entries/bank (normalized to infinite)"))
    _report_cache_stats("sweep")
    return 0


def cmd_area(args) -> int:
    print(FIGURES["sec44"].text(Sweeps(ExperimentConfig())))
    return 0


def cmd_info(args) -> int:
    exp = _experiment_from_args(args)
    config = exp.machine_config()
    rows = [
        ["cores", config.n_cores],
        ["clusters", config.n_clusters],
        ["L1I / L1D per core", f"{config.l1i_bytes} B / {config.l1d_bytes} B"],
        ["L2 per cluster", f"{config.l2_bytes // 1024} KB, "
                           f"{config.l2_assoc}-way, {config.l2_latency} clk"],
        ["L3", f"{config.l3_bytes // 1024} KB in {config.l3_banks} banks, "
               f"{config.l3_latency}+ clk"],
        ["DRAM", f"{config.dram_channels} channels, "
                 f"{config.memory_bw_gbps:g} GB/s"],
        ["line size", f"{config.line_bytes} B ({config.words_per_line} words)"],
        ["write buffer", config.write_buffer_depth],
        ["tree bandwidth", f"{config.tree_msgs_per_cycle:g} msg/clk/dir"],
    ]
    print(format_table(["parameter", "value"], rows,
                       title="machine configuration (Table 3, scaled)"))
    return 0


def cmd_validate(args) -> int:
    results = grade_all(Sweeps(_experiment_from_args(args)))
    print(format_scorecard(results))
    return 0 if all(r.passed for r in results) else 1


def cmd_workloads(args) -> int:
    from repro.workloads import WORKLOADS

    rows = [[name, cls.__doc__.strip().splitlines()[0] if cls.__doc__ else ""]
            for name, cls in WORKLOADS.items()]
    print(format_table(["name", "description"], rows,
                       title="evaluation kernels (Section 4.1)"))
    return 0


def cmd_figures(args) -> int:
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    names = list(FIGURES) if args.figure == "all" else [args.figure]
    sweeps = Sweeps(_experiment_from_args(args), jobs=args.jobs,
                    progress=_progress_from_args(args, "figures"))
    for name in names:
        text = FIGURES[name].text(sweeps)
        print(f"== {name}")
        print(text)
        print()
        (out / f"{name}.txt").write_text(text + "\n")
    _report_cache_stats("figures")
    return 0


def cmd_cache(args) -> int:
    from repro.cache import cache_report, clear_cache, verify_cache

    if args.action == "clear":
        removed = clear_cache(args.dir)
        print(f"cache: removed {removed} file(s)")
        return 0
    if args.action == "verify":
        report = verify_cache(args.dir)
        if args.json:
            import json
            print(json.dumps(report.as_dict(), indent=2))
        else:
            for problem in report.unreadable:
                print(f"cache: UNREADABLE {problem}")
            for problem in report.corrupt:
                print(f"cache: corrupt {problem}")
            print(f"cache verify: {len(report.corrupt)} corrupt, "
                  f"{len(report.unreadable)} unreadable problem(s)")
        # Analyze-style grading: corrupt entries are findings (exit 1, the
        # caches already treat them as misses); access failures mean the
        # audit itself could not complete (environment exit 2).
        if report.unreadable:
            return 2
        return 1 if report.corrupt else 0
    report = cache_report(args.dir)
    if args.json:
        import json
        print(json.dumps(report, indent=2))
        return 0
    rows = [[level, report[level]["entries"], report[level]["bytes"]]
            for level in ("results", "programs")]
    print(format_table(["level", "entries", "bytes"], rows,
                       title=f"experiment cache at {report['root']} "
                             f"({'enabled' if report['enabled'] else 'OFF'})"))
    session = report["session"]["results"]
    print(f"session (results): hits={session['hits']} "
          f"misses={session['misses']} skipped={session['skipped']} "
          f"stores={session['stores']} "
          f"put_failures={session['put_failures']}")
    return 0


def cmd_serve(args) -> int:
    # Lazy import: the serve package pulls in asyncio plumbing no other
    # subcommand needs.
    from repro.serve.config import ServeConfig
    from repro.serve.server import run_server

    config = ServeConfig.from_env()
    if args.host is not None:
        config.host = args.host
    if args.port is not None:
        config.port = args.port
    if args.jobs is not None:
        config.jobs = args.jobs
    if args.queue is not None:
        config.queue_limit = args.queue
    if args.timeout is not None:
        config.timeout_s = args.timeout
    config.validate()
    return run_server(config, port_file=args.port_file)


# -- parser --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cohesion (ISCA 2010) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one workload/policy")
    p_run.add_argument("--workload", choices=ALL_WORKLOADS, required=True)
    p_run.add_argument("--policy", choices=POLICY_CHOICES, default="cohesion")
    p_run.add_argument("--dir-entries", type=int, default=16 * 1024)
    p_run.add_argument("--dir-assoc", type=int, default=128)
    p_run.add_argument("--track-data", action="store_true",
                       help="carry and verify real data values")
    p_run.add_argument("--check", action="store_true",
                       help="audit protocol invariants at every barrier")
    p_run.add_argument("--json", action="store_true",
                       help="emit stats + derived metrics as JSON")
    _add_scale_args(p_run)
    p_run.set_defaults(func=cmd_run)

    p_trace = sub.add_parser(
        "trace", help="export a Chrome-trace timeline of one run")
    p_trace.add_argument("--workload", choices=ALL_WORKLOADS,
                         default="kmeans")
    p_trace.add_argument("--policy", choices=POLICY_CHOICES,
                         default="cohesion")
    p_trace.add_argument("--dir-entries", type=int, default=16 * 1024)
    p_trace.add_argument("--dir-assoc", type=int, default=128)
    p_trace.add_argument("--out", default="results/trace.json",
                         help="output path for the Chrome-trace JSON")
    p_trace.add_argument("--max-events", type=int, default=None,
                         metavar="N",
                         help="cap on captured trace events "
                              "(excess is counted, not recorded)")
    p_trace.add_argument("--interval", type=float, default=None,
                         metavar="CYCLES",
                         help="metrics time-series bucket width")
    p_trace.add_argument("--self-check", action="store_true",
                         help="schema-validate the written file (CI smoke)")
    _add_scale_args(p_trace)
    p_trace.set_defaults(func=cmd_trace)

    p_an = sub.add_parser(
        "analyze", help="whole-program static coherence analysis over "
                        "frozen artifacts (COH001..COH010)")
    p_an.add_argument("workload", nargs="?", choices=ALL_WORKLOADS,
                      help="kernel to analyze")
    p_an.add_argument("--all", action="store_true",
                      help="analyze every shipped kernel")
    p_an.add_argument("--artifact", default=None, metavar="FILE",
                      help="analyze a frozen-program artifact file "
                           "instead of building a workload (machine-free)")
    p_an.add_argument("--policy", choices=POLICY_CHOICES + ("all",),
                      default="all",
                      help="design point(s) to resolve domains for "
                           "(default: the three protocol kinds)")
    p_an.add_argument("--rules", default=None,
                      help="comma-separated rule ids (default: all)")
    p_an.add_argument("--schedule", default=None, metavar="FILE",
                      help="JSON transition schedule for COH010 "
                           "([{phase, action, base, size}, ...])")
    p_an.add_argument("--advise", action="store_true",
                      help="emit per-region coherence-mode advice")
    p_an.add_argument("--advise-out", default=None, metavar="FILE",
                      help="write the advice documents as JSON")
    p_an.add_argument("--summary", default=None, metavar="FILE",
                      help="append a markdown summary table (for CI)")
    p_an.add_argument("--json", action="store_true",
                      help="machine-readable output")
    _add_scale_args(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_mc = sub.add_parser(
        "mc", help="exhaustive protocol model checker (real simulator)")
    p_mc.add_argument("--preset", default="default",
                      help="model universe to explore (see --list-presets)")
    p_mc.add_argument("--mutate", default=None, metavar="NAME",
                      help="inject a known protocol bug first "
                           "(see --list-mutations)")
    p_mc.add_argument("--max-states", type=int, default=None,
                      help="override the preset's canonical-state cap")
    p_mc.add_argument("--max-depth", type=int, default=None,
                      help="override the preset's BFS depth cap")
    p_mc.add_argument("--trace-out", default=None, metavar="FILE",
                      help="write any counterexample trace as JSON")
    p_mc.add_argument("--replay", default=None, metavar="FILE",
                      help="replay a trace file instead of exploring")
    p_mc.add_argument("--summary", default=None, metavar="FILE",
                      help="append a markdown summary row (for CI)")
    p_mc.add_argument("--json", action="store_true",
                      help="machine-readable output")
    p_mc.add_argument("--quiet", action="store_true",
                      help="suppress progress lines on stderr")
    p_mc.add_argument("--list-presets", action="store_true",
                      help="list model universes and exit")
    p_mc.add_argument("--list-mutations", action="store_true",
                      help="list bug injections and exit")
    p_mc.add_argument("--no-reduce", action="store_true",
                      help="disable partial-order + line-symmetry "
                           "reduction (explore the full product)")
    p_mc.add_argument("--jobs", "-j", type=int, default=None,
                      help="worker processes for frontier expansion "
                           "(0 = one per CPU; default: $REPRO_JOBS or 1)")
    p_mc.add_argument("--equality-gate", action="store_true",
                      help="run the preset unreduced AND reduced, diff "
                           "verdicts and orbit counts; exit 1 on mismatch")
    p_mc.add_argument("--out", default=None, metavar="DIR",
                      help="write an MC_<timestamp>.json trajectory "
                           "(result + per-level frontier sizes)")
    p_mc.set_defaults(func=cmd_mc)

    p_cmp = sub.add_parser("compare", help="all four design points")
    p_cmp.add_argument("--workload", choices=ALL_WORKLOADS, required=True)
    _add_scale_args(p_cmp)
    _add_jobs_args(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser("sweep", help="directory capacity sweep")
    p_sweep.add_argument("--workload", choices=ALL_WORKLOADS, required=True)
    p_sweep.add_argument("--sizes", default="256,1024,4096,16384")
    _add_scale_args(p_sweep)
    _add_jobs_args(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_fig = sub.add_parser("figures", help="regenerate paper figures")
    p_fig.add_argument("figure", choices=FIGURE_CHOICES, nargs="?",
                       default="all")
    p_fig.add_argument("--out", default="results")
    _add_scale_args(p_fig)
    _add_jobs_args(p_fig)
    p_fig.set_defaults(func=cmd_figures)

    p_cache = sub.add_parser(
        "cache", help="inspect the build-once/run-many reuse caches")
    p_cache.add_argument("action", choices=("stats", "clear", "verify"),
                         nargs="?", default="stats",
                         help="stats (default): entry counts and sizes; "
                              "clear: delete both cache levels; "
                              "verify: audit every entry")
    p_cache.add_argument("--dir", default=None, metavar="DIR",
                         help="cache root (default: $REPRO_CACHE_DIR or "
                              "~/.cache/repro)")
    p_cache.add_argument("--json", action="store_true",
                         help="machine-readable output")
    p_cache.set_defaults(func=cmd_cache)

    p_serve = sub.add_parser(
        "serve", help="run the HTTP/JSON simulation job server")
    p_serve.add_argument("--host", default=None, metavar="ADDR",
                         help="bind address (default: $REPRO_SERVE_HOST "
                              "or 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=None, metavar="PORT",
                         help="bind port, 0 = pick a free one (default: "
                              "$REPRO_SERVE_PORT or 8642)")
    p_serve.add_argument("--jobs", type=int, default=None, metavar="N",
                         help="worker processes, 0 = one per CPU "
                              "(default: $REPRO_SERVE_JOBS or 0)")
    p_serve.add_argument("--queue", type=int, default=None, metavar="N",
                         help="admission limit before shedding with 429 "
                              "(default: $REPRO_SERVE_QUEUE or 64)")
    p_serve.add_argument("--timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-job execution timeout (default: "
                              "$REPRO_SERVE_TIMEOUT or 300)")
    p_serve.add_argument("--port-file", default=None, metavar="PATH",
                         help="write the bound port here once listening "
                              "(for scripts using --port 0)")
    p_serve.set_defaults(func=cmd_serve)

    p_area = sub.add_parser("area", help="Section 4.4 area estimates")
    p_area.set_defaults(func=cmd_area)

    p_info = sub.add_parser("info", help="dump the machine configuration")
    _add_scale_args(p_info)
    p_info.set_defaults(func=cmd_info)

    p_wl = sub.add_parser("workloads", help="list evaluation kernels")
    p_wl.set_defaults(func=cmd_workloads)

    p_val = sub.add_parser("validate",
                           help="grade the paper's qualitative claims")
    _add_scale_args(p_val)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as err:
        # Library errors carry friendly, named messages (bad REPRO_*
        # values, unknown workloads, ...) -- show them as a one-line
        # usage error, not a traceback.
        print(f"repro: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
