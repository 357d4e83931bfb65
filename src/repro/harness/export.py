"""Machine-readable result export (JSON / CSV).

Everything the text reports show can also be exported for downstream
plotting or archival:

* :func:`stats_to_dict` — one simulation's counters and derived metrics
  (plain JSON-serialisable types only);
* :func:`figure_to_dict` / :func:`figure_to_json` — a full figure's
  IPC grid with averages and gaps;
* :func:`figure_to_csv` — the same grid as CSV rows;
* :func:`write_figure` — convenience writer used by the CLI's
  ``export`` subcommand;
* :func:`analysis_to_dict` — a program's static analysis (structure
  summary, per-class fault-site counts, lint findings);
* :func:`campaign_to_dict` / :func:`campaign_to_csv` /
  :func:`write_campaign` — a fault campaign's counts and per-class
  outcome grid (Bernoulli and site campaigns alike) and any oracle
  mismatches; the CLI's ``campaign --export``.
"""

from __future__ import annotations

import csv
import io
import json
import pathlib
from typing import Any, Callable, Dict

from ..analysis import AnalysisResult, CLASSES
from ..uarch.sampling import SampledResult
from ..uarch.stats import Stats
from .campaign import OUTCOMES, CampaignResult
from .experiments import FigureResult, SERIES_BASELINE


def stats_to_dict(stats: Stats) -> Dict[str, Any]:
    """A JSON-safe dict of one run's statistics.

    Accepts a :class:`~repro.uarch.sampling.SampledResult` too (cells
    of sampled figures): the merged interval counters are exported with
    ``ipc`` replaced by the sampled estimate, plus a ``sampled`` block
    recording how the estimate was produced.
    """
    if isinstance(stats, SampledResult):
        out = stats_to_dict(stats.stats)
        out["ipc"] = stats.ipc
        out["sampled"] = {
            "intervals": len(stats.intervals),
            "interval_length": stats.spec.interval_length,
            "total_instructions": stats.total_instructions,
            "detail_fraction": stats.detail_fraction,
            "ipc_ci": stats.ipc_ci,
        }
        return out
    out = stats.to_dict()
    # Everything is already int/float/bool/str/dict; make sure of it.
    for key, value in list(out.items()):
        if isinstance(value, dict):
            out[key] = {str(k): v for k, v in value.items()}
    return out


def figure_to_dict(result: FigureResult) -> Dict[str, Any]:
    """A figure's full result grid as a JSON-safe dict."""
    spec = result.spec
    cells = {
        bench: {
            label: stats_to_dict(result.cells[bench][label])
            for label in spec.series_labels
        }
        for bench in spec.benchmarks
    }
    averages = {
        label: result.average_ipc(label) for label in spec.series_labels
    }
    gaps = {
        label: result.gap(label)
        for label in spec.series_labels
        if label != SERIES_BASELINE
    }
    return {
        "figure": spec.figure_id,
        "title": spec.title,
        "scale": result.scale,
        "series": list(spec.series_labels),
        "benchmarks": list(spec.benchmarks),
        "average_ipc": averages,
        "gap_vs_baseline": gaps,
        "cells": cells,
    }


def figure_to_json(result: FigureResult, indent: int = 2) -> str:
    """The figure grid as a JSON document."""
    return json.dumps(figure_to_dict(result), indent=indent, sort_keys=True)


def figure_to_csv(result: FigureResult) -> str:
    """The figure's IPC grid as CSV (benchmark rows, series columns)."""
    spec = result.spec
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["benchmark"] + list(spec.series_labels))
    for bench in spec.benchmarks:
        writer.writerow(
            [bench]
            + [f"{result.ipc(bench, label):.4f}"
               for label in spec.series_labels]
        )
    writer.writerow(
        ["AVG"]
        + [f"{result.average_ipc(label):.4f}"
           for label in spec.series_labels]
    )
    return buffer.getvalue()


def analysis_to_dict(result: AnalysisResult) -> Dict[str, Any]:
    """A program's static analysis as a JSON-safe dict."""
    payload = result.to_payload()
    payload["fingerprint"] = result.fingerprint
    payload["from_cache"] = result.from_cache
    payload["clean"] = result.clean
    payload["class_counts"] = {
        klass: result.class_counts.get(klass, 0) for klass in CLASSES
    }
    return payload


def campaign_to_dict(result: CampaignResult) -> Dict[str, Any]:
    """A campaign's counts and per-class outcome grid as a JSON-safe
    dict (either campaign kind; ``rate`` is ``None`` for a site one)."""
    return {
        "program": result.program_name,
        "runs": result.runs,
        "rate": result.rate,
        "seed": result.seed,
        "emulations": result.emulations,
        "injections": result.injections,
        "skipped_dead": result.skipped_dead,
        "analysis_from_cache": result.analysis_from_cache,
        "outcomes": {outcome: result.outcomes[outcome]
                     for outcome in OUTCOMES},
        "site_pool": {
            klass: result.site_pool.get(klass, 0) for klass in result.by_class
        },
        "by_class": {
            klass: {outcome: counter[outcome] for outcome in OUTCOMES}
            for klass, counter in result.by_class.items()
        },
        "visible": {
            klass: result.visible(klass) for klass in result.by_class
        },
        "mismatches": [
            {
                "index": record.index,
                "reg": record.reg,
                "class": record.klass,
                "occurrence": record.occurrence,
                "bit": record.bit,
                "outcome": record.outcome,
                "instruction": record.instruction,
            }
            for record in result.mismatches
        ],
    }


def campaign_to_csv(result: CampaignResult) -> str:
    """The per-class outcome grid as CSV (class rows, outcome columns)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["class", "pool"] + list(OUTCOMES) + ["visible"])
    for klass, counter in result.by_class.items():
        writer.writerow(
            [klass, result.site_pool.get(klass, 0)]
            + [counter[outcome] for outcome in OUTCOMES]
            + [result.visible(klass)]
        )
    return buffer.getvalue()


def _write(directory: str, stem: str, formats: tuple,
           render: Dict[str, Callable[[], str]]) -> Dict[str, str]:
    """Write ``stem.<fmt>`` under ``directory`` for each of ``formats``;
    returns the path per format."""
    out_dir = pathlib.Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: Dict[str, str] = {}
    for fmt in formats:
        if fmt not in render:
            raise ValueError(f"unknown export format: {fmt!r}")
        path = out_dir / f"{stem}.{fmt}"
        path.write_text(render[fmt]())
        written[fmt] = str(path)
    return written


def write_campaign(
    result: CampaignResult,
    directory: str,
    formats: tuple = ("json", "csv"),
) -> Dict[str, str]:
    """Write a campaign's results, as ``sites_<program>.*`` for a site
    campaign and ``campaign_<program>.*`` for a Bernoulli one; returns
    the path per format."""
    kind = "sites" if result.rate is None else "campaign"
    return _write(directory, f"{kind}_{result.program_name}", formats, {
        "json": lambda: json.dumps(campaign_to_dict(result), indent=2,
                                   sort_keys=True),
        "csv": lambda: campaign_to_csv(result),
    })


def write_figure(
    result: FigureResult,
    directory: str,
    formats: tuple = ("json", "csv"),
) -> Dict[str, str]:
    """Write a figure's results to ``directory``; returns path per format."""
    return _write(directory, result.spec.figure_id, formats, {
        "json": lambda: figure_to_json(result),
        "csv": lambda: figure_to_csv(result),
    })
