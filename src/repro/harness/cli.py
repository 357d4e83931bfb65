"""Command-line entry point (``repro-reese``).

Subcommands::

    repro-reese list                 # figures, benchmarks, configs
    repro-reese figure fig2          # reproduce one figure
    repro-reese summary              # Fig. 6 summary table
    repro-reese fig7                 # Fig. 7 large machines
    repro-reese check                # run the paper-shape expectations
    repro-reese bench gcc            # one benchmark on base + REESE
    repro-reese faults --rate 1e-4   # fault-injection demonstration
    repro-reese campaign gcc         # architectural SDC campaign
    repro-reese campaign gcc --sites # stratified site-level campaign
    repro-reese campaign gcc --static-oracle   # + fail on dead-site SDC
    repro-reese sweep                # spare-capacity design-space grid
    repro-reese compare li           # baseline vs REESE vs dispatch-dup
    repro-reese analyze gcc          # static CFG/dataflow/masking report
    repro-reese lint all             # workload linter over the suite
    repro-reese profile gcc          # top-down cycle-accounting profile
    repro-reese profile --markdown   # same, as markdown (whole suite)

``--scale N`` (or ``REPRO_BENCH_INSTRUCTIONS``) sets dynamic
instructions per benchmark; an explicit ``--scale`` always beats the
environment variable.  ``--jobs N`` fans the experiment grid over N
worker processes (default: all cores) and ``--no-cache`` disables the
on-disk result cache under ``.repro_cache/``.

Sampled simulation (see docs/INTERNALS.md §10): ``--sample N`` runs
every simulation as N detailed measurement intervals with functional
fast-forward between them — the same figures/sweeps/checks at a
fraction of the wall-clock, with a confidence interval on each IPC.
``--sample-interval K`` and ``--sample-warmup W`` tune the interval
length and per-interval detailed warm-up.

Observability (see docs/INTERNALS.md §8): ``--observe`` collects
per-stage metrics (occupancy histograms) and prints them, with the
per-pool issue counts, after ``bench``, ``compare`` and ``faults``
(a sampled run's merged over its intervals);
``--check-invariants`` runs every simulation under the runtime
invariant checker (a violation aborts with a diagnostic);
``--trace PATH`` writes the structured event trace of a full run as
JSONL — for commands that run several simulations, each run gets its
own file with the run label spliced in before the extension.  Sampled
runs write no event trace, so ``--trace`` with ``--sample`` is a usage
error.

Profiling (see docs/INTERNALS.md §12): ``--profile`` (or
``REPRO_PROFILE=1``) attaches the cycle-accounting profiler to every
simulation, so results carry the top-down slot/cycle attribution; the
``profile`` subcommand renders the full bottleneck report.
``--telemetry PATH`` persists per-job run telemetry (wall-clock,
cache hits, worker ids) as JSONL after each parallel run.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from ..reese.recovery import UnrecoverableFaultError
from ..uarch.config import starting_config
from ..uarch.sampling import SampledResult, SamplingSpec
from ..workloads.suite import BENCHMARK_ORDER, BENCHMARKS
from . import experiments, reporting
from .parallel import FaultSpec, ParallelRunner, SimJob
from .runner import bench_scale


def _runner_from(args) -> ParallelRunner:
    """The CLI's execution context: all cores and caching by default."""
    return ParallelRunner(
        jobs=args.jobs or (os.cpu_count() or 1),
        use_cache=not args.no_cache,
        observe=args.observe,
        check_invariants=args.check_invariants,
        profile=args.profile,
        telemetry_path=args.telemetry,
    )


def _sampling_from(args) -> Optional[SamplingSpec]:
    """The SamplingSpec the ``--sample*`` flags describe (or ``None``)."""
    if not getattr(args, "sample", None):
        return None
    return SamplingSpec(
        intervals=args.sample,
        interval_length=args.sample_interval,
        warmup=args.sample_warmup,
    )


def _trace_path(args, label: Optional[str] = None) -> Optional[str]:
    """Per-run trace destination: ``out.jsonl`` -> ``out.reese.jsonl``."""
    if not args.trace:
        return None
    if label is None:
        return args.trace
    root, ext = os.path.splitext(args.trace)
    return f"{root}.{label}{ext or '.jsonl'}"


def _emit_metrics(args, label: str, result) -> None:
    """Print the per-stage metrics block after a run (with --observe);
    a sampled run's are those its intervals' Stats merge into."""
    stats = result.stats if isinstance(result, SampledResult) else result
    if args.observe and stats.stage_metrics:
        print(f"\n[{label}] {reporting.metrics_report(stats)}")


def _emit_telemetry(runner: ParallelRunner) -> None:
    """One summary line on stderr; stdout stays byte-stable for diffs."""
    if runner.telemetry is not None:
        print(runner.telemetry.summary(), file=sys.stderr)


def _cmd_list(_args) -> int:
    print("figures:    fig2 fig3 fig4 fig5 (figure), summary (fig6), fig7")
    print("benchmarks:", " ".join(BENCHMARK_ORDER))
    for name in BENCHMARK_ORDER:
        workload = BENCHMARKS[name]
        print(f"  {name:7s} {workload.description}")
        print(f"  {'':7s} (paper input: {workload.paper_input})")
    return 0


def _cmd_figure(args) -> int:
    runner = _runner_from(args)
    spec = experiments.FIGURES[args.figure]()
    result = experiments.run_figure(spec, scale=args.scale, runner=runner,
                                    sampling=_sampling_from(args))
    print(reporting.figure_report(result))
    _emit_telemetry(runner)
    return 0


def _cmd_summary(args) -> int:
    runner = _runner_from(args)
    summary = experiments.run_summary_figure(scale=args.scale, runner=runner,
                                             sampling=_sampling_from(args))
    print("fig6: summary of results (average IPC per hardware variation)")
    print(reporting.summary_report(summary))
    _emit_telemetry(runner)
    return 0


def _cmd_fig7(args) -> int:
    runner = _runner_from(args)
    for spec in experiments.figure7_specs():
        result = experiments.run_figure(spec, scale=args.scale, runner=runner,
                                        sampling=_sampling_from(args))
        print(reporting.figure_report(result))
        print()
        _emit_telemetry(runner)
    return 0


def _cmd_check(args) -> int:
    from . import expectations

    runner = _runner_from(args)
    sampling = _sampling_from(args)
    fig_results = {}
    for name in ("fig2", "fig3"):
        spec = experiments.FIGURES[name]()
        fig_results[name] = experiments.run_figure(
            spec, scale=args.scale, runner=runner, sampling=sampling
        )
    for spec in experiments.figure7_specs():
        fig_results[spec.figure_id] = experiments.run_figure(
            spec, scale=args.scale, runner=runner, sampling=sampling
        )
    checks = expectations.check_all(fig_results)
    failed = 0
    for check in checks:
        print(check)
        failed += 0 if check.passed else 1
    print(f"\n{len(checks) - failed}/{len(checks)} expectations passed")
    return 1 if failed else 0


def _cmd_bench(args) -> int:
    runner = _runner_from(args)
    config = starting_config()
    scale = args.scale or bench_scale()
    jobs = [
        SimJob(args.benchmark, cfg, scale, sampling=_sampling_from(args),
               trace_path=_trace_path(args, label))
        for label, cfg in (("baseline", config),
                           ("reese", config.with_reese()))
    ]
    base, reese = runner.run(jobs)
    print(f"{args.benchmark}: baseline {base.summary()}")
    print(f"{args.benchmark}: reese    {reese.summary()}")
    print(f"IPC ratio reese/baseline = {reese.ipc / base.ipc:.3f}")
    _emit_metrics(args, "baseline", base)
    _emit_metrics(args, "reese", reese)
    _emit_telemetry(runner)
    return 0


def _cmd_faults(args) -> int:
    runner = _runner_from(args)
    sampling = _sampling_from(args)
    job = SimJob(
        args.benchmark, starting_config().with_reese(),
        args.scale or bench_scale(), sampling=sampling,
        fault=FaultSpec.make("environmental", rate=args.rate,
                             duration=args.duration, seed=args.seed),
        trace_path=_trace_path(args),
    )
    try:
        [result] = runner.run([job])
    except UnrecoverableFaultError as error:
        # REESE's retry budget ran out: the paper's machine stops here.
        print(error)
        return 1
    stats = result.stats if sampling else result
    detail = f" ({result.summary()})" if sampling else ""
    print(f"workload:            {args.benchmark}{detail}")
    print(f"fault events struck: {stats.strikes}")
    print(f"errors detected:     {stats.errors_detected}")
    print(f"escapes (same event):{stats.errors_undetected_same_event}")
    print(f"recoveries:          {stats.recoveries}")
    print(f"final IPC:           {result.ipc:.3f}")
    _emit_metrics(args, "reese", result)
    _emit_telemetry(runner)
    return 0


def _cmd_export(args) -> int:
    from . import export

    runner = _runner_from(args)
    spec = experiments.FIGURES[args.figure]()
    result = experiments.run_figure(spec, scale=args.scale, runner=runner,
                                    sampling=_sampling_from(args))
    written = export.write_figure(result, args.out)
    for fmt, path in written.items():
        print(f"wrote {fmt}: {path}")
    _emit_telemetry(runner)
    return 0


def _cmd_campaign(args) -> int:
    from .campaign import run_campaign, run_site_campaign

    program = BENCHMARKS[args.benchmark].build(scale=args.scale or 5000)
    jobs = args.jobs or (os.cpu_count() or 1)
    if args.sites or args.static_oracle or args.skip_dead:
        result = run_site_campaign(
            program, runs=args.runs, seed=args.seed, jobs=jobs,
            skip_dead=args.skip_dead, use_analysis_cache=not args.no_cache,
        )
    else:
        result = run_campaign(program, runs=args.runs, rate=args.rate,
                              seed=args.seed, jobs=jobs)
    print(result.report())
    if args.export_dir:
        from . import export

        written = export.write_campaign(result, args.export_dir)
        for fmt, path in written.items():
            print(f"wrote {fmt}: {path}")
    return 1 if args.static_oracle and result.mismatches else 0


def _programs_from(args):
    """(name, program) pairs for a benchmark argument or ``all``."""
    names = BENCHMARK_ORDER if args.benchmark == "all" else [args.benchmark]
    scale = args.scale or 5000
    return [(name, BENCHMARKS[name].build(scale=scale)) for name in names]


def _cmd_analyze(args) -> int:
    from ..analysis import analyze_program

    blocks = []
    for _name, program in _programs_from(args):
        result = analyze_program(program, use_cache=not args.no_cache)
        blocks.append(reporting.analysis_report(result))
    print("\n\n".join(blocks))
    return 0


def _cmd_lint(args) -> int:
    from ..analysis import analyze_program

    dirty = 0
    for _name, program in _programs_from(args):
        result = analyze_program(program, use_cache=not args.no_cache)
        print(reporting.lint_report(result, verbose=args.verbose))
        if not result.clean:
            dirty += 1
    return 1 if dirty else 0


def _cmd_sweep(args) -> int:
    from .reporting import format_table
    from .sweep import run_sweep, spare_capacity_grid

    runner = _runner_from(args)
    base = starting_config()
    points = spare_capacity_grid(base, max_alu=args.max_alu,
                                 max_mult=args.max_mult)
    results = run_sweep(points, scale=args.scale, runner=runner,
                        sampling=_sampling_from(args))
    baseline_ipc = results[0].average_ipc
    rows = [["configuration", "avg IPC", "gap vs baseline"]]
    for point in results:
        gap = 1 - point.average_ipc / baseline_ipc
        rows.append([point.label, f"{point.average_ipc:.3f}", f"{gap:+.1%}"])
    print(format_table(rows))
    _emit_telemetry(runner)
    return 0


def _cmd_compare(args) -> int:
    runner = _runner_from(args)
    config = starting_config()
    models = [
        ("baseline", config),
        ("REESE", config.with_reese()),
        ("dispatch-dup", config.with_dispatch_dup()),
    ]
    scale = args.scale or bench_scale()
    all_stats = runner.run([
        SimJob(args.benchmark, model_config, scale,
               trace_path=_trace_path(args, label))
        for label, model_config in models
    ])
    base_ipc = all_stats[0].ipc
    for (label, _), stats in zip(models, all_stats):
        gap = 1 - stats.ipc / base_ipc
        print(f"{label:14s} IPC {stats.ipc:.3f} ({gap:+.1%})  "
              f"cycles {stats.cycles}  R-execs {stats.issued_r}")
    for (label, _), stats in zip(models, all_stats):
        _emit_metrics(args, label, stats)
    _emit_telemetry(runner)
    return 0


def _cmd_profile(args) -> int:
    """Top-down cycle-accounting profile: where did the slots go?

    Runs the Baseline / REESE / R+2 ALU cells for one benchmark (or the
    whole suite) with the cycle accountant attached and renders the
    attribution report — the per-cause slot breakdown, the
    REESE-vs-baseline R-share, and the detection-latency telemetry.
    """
    runner = _runner_from(args)
    config = starting_config()
    series = [
        (experiments.SERIES_BASELINE, config),
        (experiments.SERIES_REESE, config.with_reese()),
        (experiments.SERIES_R2A, config.with_spares(2, 0).with_reese()),
    ]
    benches = (
        BENCHMARK_ORDER if args.benchmark == "all" else [args.benchmark]
    )
    scale = args.scale or bench_scale()
    jobs = [
        SimJob(bench, cfg, scale, profile=True)
        for bench in benches
        for _label, cfg in series
    ]
    all_stats = iter(runner.run(jobs))
    results = {
        bench: {label: next(all_stats) for label, _cfg in series}
        for bench in benches
    }
    print(reporting.profile_report(results, scale, markdown=args.markdown))
    _emit_telemetry(runner)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-reese",
        description="REESE (DSN 2001) reproduction harness",
    )
    parser.add_argument(
        "--scale",
        type=int,
        default=None,
        help=f"dynamic instructions per benchmark (default {bench_scale()})",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for experiment grids (default: all cores)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        dest="no_cache",
        help="disable the on-disk result cache (.repro_cache/)",
    )
    parser.add_argument(
        "--sample",
        type=int,
        default=None,
        metavar="N",
        help="sampled simulation with N measurement intervals per run "
             "(default: full detailed runs)",
    )
    parser.add_argument(
        "--sample-interval",
        type=int,
        default=300,
        dest="sample_interval",
        metavar="K",
        help="measured instructions per interval (with --sample; "
             "default 300)",
    )
    parser.add_argument(
        "--sample-warmup",
        type=int,
        default=50,
        dest="sample_warmup",
        metavar="W",
        help="detailed warm-up instructions before each interval "
             "(with --sample; default 50)",
    )
    parser.add_argument(
        "--observe",
        action="store_true",
        help="collect per-stage metrics (queue occupancy histograms)",
    )
    parser.add_argument(
        "--check-invariants",
        action="store_true",
        dest="check_invariants",
        help="validate pipeline legality every cycle (abort on violation)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write the structured event trace to PATH as JSONL "
             "(multi-run commands splice the run label into the name)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="attach the cycle-accounting profiler to every simulation "
             "(top-down slot attribution + detection-latency telemetry; "
             "same switch as REPRO_PROFILE=1)",
    )
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="write per-job run telemetry (timings, cache hits, worker "
             "ids) to PATH as JSONL after each parallel run",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list figures and benchmarks")
    fig = sub.add_parser("figure", help="reproduce one figure")
    fig.add_argument("figure", choices=sorted(experiments.FIGURES))
    sub.add_parser("summary", help="fig6 summary table")
    sub.add_parser("fig7", help="fig7 large machines")
    sub.add_parser("check", help="run paper-shape expectation checks")
    bench = sub.add_parser("bench", help="run one benchmark")
    bench.add_argument("benchmark", choices=BENCHMARK_ORDER)
    faults = sub.add_parser("faults", help="fault-injection demo")
    faults.add_argument("--benchmark", default="gcc", choices=BENCHMARK_ORDER)
    faults.add_argument("--rate", type=float, default=1e-4)
    faults.add_argument("--duration", type=int, default=3)
    faults.add_argument("--seed", type=int, default=2001)
    campaign = sub.add_parser("campaign", help="architectural SDC campaign")
    campaign.add_argument("benchmark", choices=BENCHMARK_ORDER)
    campaign.add_argument("--runs", type=int, default=40)
    campaign.add_argument("--rate", type=float, default=2e-3)
    campaign.add_argument("--seed", type=int, default=0)
    campaign.add_argument(
        "--sites",
        action="store_true",
        help="stratified site-level campaign over analyzer-classified "
             "(instruction, register) fault sites",
    )
    oracle = campaign.add_mutually_exclusive_group()
    oracle.add_argument(
        "--static-oracle",
        action="store_true",
        dest="static_oracle",
        help="site campaign that exits non-zero when a dead-classified "
             "site shows visible corruption",
    )
    oracle.add_argument(
        "--skip-dead",
        action="store_true",
        dest="skip_dead",
        help="site campaign settling dead-classified samples statically "
             "(skips their emulations)",
    )
    campaign.add_argument(
        "--export",
        default=None,
        dest="export_dir",
        metavar="DIR",
        help="write the campaign's json/csv under DIR",
    )
    analyze = sub.add_parser(
        "analyze", help="static CFG/dataflow/masking analysis"
    )
    analyze.add_argument(
        "benchmark", choices=list(BENCHMARK_ORDER) + ["all"]
    )
    lint = sub.add_parser("lint", help="workload linter (non-zero if dirty)")
    lint.add_argument("benchmark", choices=list(BENCHMARK_ORDER) + ["all"])
    lint.add_argument(
        "--verbose",
        action="store_true",
        help="show informational findings too",
    )
    sweep = sub.add_parser("sweep", help="spare-capacity design space")
    sweep.add_argument("--max-alu", type=int, default=3, dest="max_alu")
    sweep.add_argument("--max-mult", type=int, default=1, dest="max_mult")
    compare = sub.add_parser(
        "compare", help="baseline vs REESE vs dispatch-dup"
    )
    compare.add_argument("benchmark", choices=BENCHMARK_ORDER)
    profile_cmd = sub.add_parser(
        "profile", help="top-down cycle-accounting bottleneck profile"
    )
    profile_cmd.add_argument(
        "benchmark", nargs="?", default="all",
        choices=list(BENCHMARK_ORDER) + ["all"],
    )
    profile_cmd.add_argument(
        "--markdown",
        action="store_true",
        help="render the report as markdown tables",
    )
    export_cmd = sub.add_parser("export", help="export a figure (json/csv)")
    export_cmd.add_argument("figure", choices=sorted(experiments.FIGURES))
    export_cmd.add_argument("--out", default="results")
    return parser


_HANDLERS = {
    "list": _cmd_list,
    "figure": _cmd_figure,
    "summary": _cmd_summary,
    "fig7": _cmd_fig7,
    "check": _cmd_check,
    "bench": _cmd_bench,
    "faults": _cmd_faults,
    "campaign": _cmd_campaign,
    "analyze": _cmd_analyze,
    "lint": _cmd_lint,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
    "export": _cmd_export,
    "profile": _cmd_profile,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.trace and args.sample:
        parser.error("--trace cannot be combined with --sample: sampled "
                     "runs write no event trace")
    return _HANDLERS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
