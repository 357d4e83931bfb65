"""Text reporting: the same rows/series the paper's figures show.

Besides aligned tables, :func:`bar_chart` renders the clustered-bar
form the paper's Figures 2-7 actually use, so a terminal diff against
the paper is possible at a glance.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Sequence

from ..uarch.stats import Stats, hist_mean, merge_accounting
from .campaign import OUTCOMES, SiteCampaignResult
from .experiments import (
    FigureResult,
    SERIES_BASELINE,
    SERIES_R2A,
    SERIES_REESE,
)
from .parallel import RunTelemetry

if TYPE_CHECKING:
    from ..analysis import AnalysisResult


def format_table(rows: Sequence[Sequence[str]]) -> str:
    """Render rows as an aligned monospace table."""
    if not rows:
        return ""
    widths = [
        max(len(str(row[col])) for row in rows if col < len(row))
        for col in range(max(len(row) for row in rows))
    ]
    lines = []
    for index, row in enumerate(rows):
        line = "  ".join(
            str(cell).ljust(widths[col]) for col, cell in enumerate(row)
        )
        lines.append(line.rstrip())
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def bar_chart(
    groups: Mapping[str, Mapping[str, float]],
    width: int = 48,
    unit: str = "IPC",
) -> str:
    """Render grouped horizontal bars (the paper's figure style).

    Args:
        groups: group label (e.g. benchmark) -> series label -> value.
        width: character width of the longest bar.
        unit: axis label.
    """
    if not groups:
        return ""
    peak = max(
        (value for series in groups.values() for value in series.values()),
        default=0.0,
    )
    if peak <= 0:
        return ""
    label_width = max(
        len(label) for series in groups.values() for label in series
    )
    lines = [f"({unit}; full bar = {peak:.2f})"]
    for group, series in groups.items():
        lines.append(f"{group}:")
        for label, value in series.items():
            bar = "#" * max(1, round(width * value / peak))
            lines.append(f"  {label:<{label_width}}  {bar} {value:.3f}")
    return "\n".join(lines)


def figure_bar_chart(result: FigureResult, width: int = 48) -> str:
    """The figure's data as clustered bars, per benchmark plus AVG."""
    groups: Dict[str, Dict[str, float]] = {}
    if not result.spec.averages_only:
        for bench in result.spec.benchmarks:
            groups[bench] = {
                label: result.ipc(bench, label)
                for label in result.spec.series_labels
            }
    groups["AV."] = {
        label: result.average_ipc(label)
        for label in result.spec.series_labels
    }
    return bar_chart(groups, width=width)


def figure_report(result: FigureResult) -> str:
    """A paper-style report for one figure: IPC table + overheads."""
    spec = result.spec
    lines = [
        f"{spec.figure_id}: {spec.title}",
        f"(committed IPC; {result.scale} dynamic instructions per benchmark)",
        "",
        format_table(result.rows()),
        "",
    ]
    base = result.average_ipc(SERIES_BASELINE)
    for label in spec.series_labels:
        if label == SERIES_BASELINE:
            continue
        gap = result.gap(label)
        lines.append(
            f"  {label:12s} average IPC {result.average_ipc(label):.3f} "
            f"({gap:+.1%} vs baseline {base:.3f})"
        )
    lines.extend(["", figure_bar_chart(result)])
    return "\n".join(lines)


def summary_report(summary: Dict[str, Dict[str, float]]) -> str:
    """Fig. 6-style report: average IPC per hardware variation."""
    variations = list(summary.keys())
    labels = [SERIES_BASELINE, SERIES_REESE, SERIES_R2A]
    rows: List[List[str]] = [["variation"] + labels + ["REESE gap", "R+2 gap"]]
    for variation in variations:
        cells = summary[variation]
        base = cells[SERIES_BASELINE]
        reese_gap = 1 - cells[SERIES_REESE] / base if base else 0.0
        spare_gap = 1 - cells[SERIES_R2A] / base if base else 0.0
        rows.append(
            [variation]
            + [f"{cells[label]:.3f}" for label in labels]
            + [f"{reese_gap:.1%}", f"{spare_gap:.1%}"]
        )
    return format_table(rows)


def telemetry_report(telemetry: RunTelemetry, limit: int = 0) -> str:
    """Per-job timing/outcome table for one parallel run.

    Args:
        telemetry: the :attr:`ParallelRunner.telemetry` of a run.
        limit: show only the ``limit`` slowest jobs (0 = all).
    """
    records = sorted(
        telemetry.records, key=lambda r: r.elapsed, reverse=True
    )
    if limit:
        records = records[:limit]
    rows: List[List[str]] = [
        ["job", "benchmark", "config", "scale", "source", "seconds", "worker"]
    ]
    for record in records:
        rows.append([
            str(record.index),
            record.benchmark,
            record.config,
            str(record.scale),
            "cache" if record.cached else "sim",
            f"{record.elapsed:.3f}",
            str(record.worker),
        ])
    return telemetry.summary() + "\n" + format_table(rows)


def metrics_report(stats: Stats) -> str:
    """Render ``Stats.stage_metrics`` (an observed run) as text.

    Shows, per pipeline structure, the mean/max occupancy over the run;
    then the issues per functional-unit pool and the R-stream total.
    Returns a placeholder line when the run was not observed.
    """
    metrics = stats.stage_metrics
    if not metrics:
        return "(no stage metrics: run was not observed)"
    lines = [f"stage metrics over {metrics.get('cycles_sampled', 0)} cycles"]
    rows: List[List[str]] = [["structure", "mean occ", "max occ"]]
    for key, hist in metrics.get("occupancy", {}).items():
        peak = max((int(occ) for occ in hist), default=0)
        rows.append([key, f"{hist_mean(hist):.2f}", str(peak)])
    lines.append(format_table(rows))
    issues = ", ".join(
        f"{name}={count}" for name, count in stats.fu_issues.items()
    )
    lines.append(f"FU issues: {issues or 'none'}; "
                 f"R-stream issues: {stats.issued_r}")
    return "\n".join(lines)


def analysis_report(result: AnalysisResult) -> str:
    """Render one program's static analysis as text.

    Structure summary, the per-class fault-site breakdown (the number
    later PRs report detection coverage against), and lint findings.
    """
    from ..analysis import CLASSES

    total_sites = sum(result.class_counts.values()) or 1
    lines = [
        f"static analysis of {result.program_name!r} "
        f"({'cached' if result.from_cache else 'fresh'}; "
        f"fingerprint {result.fingerprint[:12]})",
        f"  {result.instructions} instructions, {result.blocks} blocks, "
        f"{result.edges} edges, {result.loops} natural loops, "
        f"{result.unreachable_blocks} unreachable blocks",
    ]
    rows: List[List[str]] = [["site class", "sites", "fraction"]]
    for klass in CLASSES:
        count = result.class_counts.get(klass, 0)
        rows.append([klass, str(count), f"{count / total_sites:.0%}"])
    lines.append(format_table(rows))
    gating = [f for f in result.findings if f.severity != "info"]
    info = len(result.findings) - len(gating)
    lines.append(
        f"  lint: {'clean' if result.clean else 'NOT CLEAN'} "
        f"({len(gating)} gating finding(s), {info} informational)"
    )
    for finding in gating:
        lines.append(f"    {finding.render(result.program_name)}")
    return "\n".join(lines)


def lint_report(result: AnalysisResult, verbose: bool = False) -> str:
    """Render lint findings; ``verbose`` includes info-level ones."""
    findings = [
        f for f in result.findings
        if verbose or f.severity != "info"
    ]
    suppressed = len(result.findings) - len(findings)
    status = "clean" if result.clean else "NOT CLEAN"
    lines = [f"lint {result.program_name!r}: {status}"]
    lines += [f"  {finding.render()}" for finding in findings]
    if suppressed and not verbose:
        lines.append(
            f"  ({suppressed} informational finding(s) hidden; "
            f"use --verbose)"
        )
    return "\n".join(lines)


def site_campaign_report(result: SiteCampaignResult) -> str:
    """Per-class outcome breakdown of a site campaign as a table."""
    from ..analysis import CLASSES

    lines = [
        f"site campaign on {result.program_name!r}: {result.runs} "
        f"stratified injections (seed {result.seed}, "
        f"{result.emulations} emulated, {result.skipped_dead} settled "
        f"statically)",
    ]
    rows: List[List[str]] = [
        ["class", "pool"] + list(OUTCOMES[1:]) + ["visible"]
    ]
    for klass in CLASSES:
        counter = result.by_class.get(klass, {})
        rows.append(
            [klass, str(result.site_pool.get(klass, 0))]
            + [str(counter.get(outcome, 0)) for outcome in OUTCOMES[1:]]
            + [str(result.visible(klass))]
        )
    lines.append(format_table(rows))
    if result.mismatches:
        lines.append(f"ORACLE MISMATCHES: {len(result.mismatches)}")
        lines += [f"  {record.render()}" for record in result.mismatches]
    else:
        lines.append("oracle: 0 mismatches")
    return "\n".join(lines)


def markdown_table(rows: Sequence[Sequence[str]]) -> str:
    """Render rows as a GitHub-flavoured markdown pipe table."""
    if not rows:
        return ""
    lines = [
        "| " + " | ".join(str(cell) for cell in rows[0]) + " |",
        "|" + "|".join(" --- " for _ in rows[0]) + "|",
    ]
    for row in rows[1:]:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)


def _slot_rows(
    accounts: Mapping[str, Mapping], labels: Sequence[str]
) -> List[List[str]]:
    """Top-down slot-attribution rows: one per cause, one column per
    series, each cell ``count (share)``.  All-zero causes are elided so
    a baseline column does not list REESE-only causes."""
    from ..uarch.accounting import SLOT_CAUSES

    rows: List[List[str]] = [["cause"] + list(labels)]
    totals = {
        label: accounts[label].get("slots_total", 0) or 1 for label in labels
    }
    for cause in SLOT_CAUSES:
        counts = {
            label: accounts[label].get("slots", {}).get(cause, 0)
            for label in labels
        }
        if not any(counts.values()):
            continue
        rows.append([cause] + [
            f"{counts[label]} ({counts[label] / totals[label]:.1%})"
            for label in labels
        ])
    return rows


def profile_report(
    results: Mapping[str, Mapping[str, Stats]],
    scale: int,
    markdown: bool = False,
) -> str:
    """Top-down cycle-accounting profile across benchmarks and series.

    Args:
        results: benchmark -> series label -> profiled Stats (i.e. run
            with the cycle accountant attached, so ``Stats.accounting``
            is populated).
        scale: dynamic instructions per benchmark (header line only).
        markdown: render pipe tables + headings instead of aligned
            monospace tables.

    The report shows, per benchmark and for the suite aggregate, where
    every issue slot went (one cause per slot, so columns sum to
    width x cycles); then the REESE-minus-baseline slot delta and how
    much of it is attributable to R-stream causes — the quantified form
    of the paper's §6 claim that the slowdown *is* R contention — and
    the detection-latency telemetry the paper's §2 coverage argument
    needs.  Ends with the accounting-identity verdict over every
    (benchmark, series) cell.
    """
    from ..uarch.accounting import (accounting_identity_errors,
                                    r_share_of_delta)

    table = markdown_table if markdown else format_table
    heading = (
        f"cycle-accounting profile "
        f"({scale} dynamic instructions per benchmark; "
        f"slot columns sum to issue width x cycles)"
    )
    lines = [f"## {heading}" if markdown else heading]
    suite: Dict[str, Dict] = {}
    identity_errors: List[str] = []
    cells = 0
    for bench, series in results.items():
        labels = list(series.keys())
        accounts = {label: series[label].accounting or {} for label in labels}
        for label in labels:
            cells += 1
            suite[label] = merge_accounting(
                suite.get(label, {}), accounts[label]
            )
            identity_errors += [
                f"{bench}/{label}: {error}"
                for error in accounting_identity_errors(accounts[label])
            ]
        ipc_bits = ", ".join(
            f"{label} IPC {series[label].ipc:.3f}" for label in labels
        )
        lines.append("")
        if markdown:
            lines += [f"### {bench}", "", ipc_bits, ""]
        else:
            lines.append(f"{bench}: {ipc_bits}")
        lines.append(table(_slot_rows(accounts, labels)))
    if suite:
        labels = list(suite.keys())
        lines.append("")
        if markdown:
            lines += ["### suite aggregate", ""]
        else:
            lines.append("suite aggregate:")
        lines.append(table(_slot_rows(suite, labels)))
    if SERIES_BASELINE in suite and SERIES_REESE in suite:
        r_delta, total_delta = r_share_of_delta(
            suite[SERIES_BASELINE], suite[SERIES_REESE]
        )
        share = r_delta / total_delta if total_delta else 0.0
        lines += [
            "",
            f"REESE-minus-baseline slot delta: {total_delta} slots lost, "
            f"{r_delta} ({share:.1%}) attributable to R-stream causes",
        ]
    if SERIES_REESE in suite:
        summary = Stats.merged(
            series[SERIES_REESE] for series in results.values()
            if SERIES_REESE in series
        ).detection_latency()
        det = summary["detect_latency"]
        res = summary["rqueue_residency"]
        lines += [
            f"detection latency (queue insert -> R-verify): "
            f"n={det['count']}, mean={det['mean']:.2f}, p50={det['p50']}, "
            f"p99={det['p99']}, max={det['max']} cycles",
            f"R-queue residency (insert -> final commit): "
            f"n={res['count']}, mean={res['mean']:.2f}, p50={res['p50']}, "
            f"p99={res['p99']}, max={res['max']} cycles",
        ]
    if identity_errors:
        lines.append("accounting identity: VIOLATED")
        lines += [f"  {error}" for error in identity_errors]
    else:
        lines.append(f"accounting identity: OK on {cells}/{cells} cells")
    return "\n".join(lines)


def overhead_summary(results: Sequence[FigureResult]) -> str:
    """The paper's §6.1 claim format: average gaps across configurations."""
    reese_gaps = [r.gap(SERIES_REESE) for r in results]
    spare_gaps = [
        r.gap(SERIES_R2A) for r in results if SERIES_R2A in r.spec.series_labels
    ]
    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0  # noqa: E731
    return (
        f"Across {len(results)} hardware configurations: REESE without "
        f"spares loses {mean(reese_gaps):.1%} average IPC "
        f"(range {min(reese_gaps):.1%}..{max(reese_gaps):.1%}); "
        f"with 2 spare integer ALUs the loss is {mean(spare_gaps):.1%}.  "
        f"(Paper: 14.0% shrinking to 8.0%.)"
    )
