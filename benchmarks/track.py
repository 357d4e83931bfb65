#!/usr/bin/env python
"""Benchmark-trajectory tracker: append one suite or speed snapshot.

Every PR that touches the timing model shifts the suite's IPCs and the
top-down attribution a little, and every speed change shifts the
simulator's own host time; ``BENCH_TRAJECTORY.json`` is the append-only
record of both.  It holds two kinds of entry:

* a **suite** entry captures, for one labelled point in time (typically
  a commit), the per-benchmark Baseline / REESE / R+2 ALU IPCs and gaps
  plus the suite-aggregate attribution summary — the REESE-vs-baseline
  R-share, the dominant slot causes, and the detection-latency
  telemetry;
* a **speed** entry (schema 2) records one perfbench workload at one
  seed: the median over its runs of each metric in
  :data:`SPEED_METRICS`, and the runs' common ``stats_digest`` (the
  simulated results a speed change must leave unchanged).

Diffing two entries answers "what did that change do to the bottleneck
structure, or to the host time?" without re-running anything.

Usage::

    python benchmarks/track.py --label my-change --scale 8000 --jobs 4
    python3 perfbench/run.py --workload fig2 --seed 0 > run1.txt
    python benchmarks/track.py --label my-change --ingest run1.txt ...
    python benchmarks/track.py --validate        # schema-check only
    python benchmarks/track.py --compare         # newest vs previous speed

The file is rewritten atomically on every append (tmp, fsync, rename),
so a crashed run never truncates the history.  Wall-clock timestamps
and ``git rev-parse`` are fine here — the determinism lint guards
``src/repro`` (simulation results), not this descriptive log.
"""

from __future__ import annotations

import argparse
import datetime
import json
import pathlib
import re
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # pragma: no cover
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.harness import atomic_write_text  # noqa: E402
from repro.harness.experiments import (  # noqa: E402
    SERIES_BASELINE,
    SERIES_R2A,
    SERIES_REESE,
)
from repro.uarch.accounting import (  # noqa: E402
    SLOT_CAUSES,
    merge_accounting,
    r_share_of_delta,
)
from repro.uarch.stats import Stats  # noqa: E402

#: Bump when the entry layout changes (validate_trajectory checks it).
#: 2: speed entries (``"kind": "speed"``) besides the suite entries.
TRAJECTORY_SCHEMA_VERSION = 2
#: Document schemas :func:`validate_trajectory` accepts.
_KNOWN_SCHEMAS = (1, 2)

#: perfbench metrics a speed entry records: the three gated end-to-end
#: metrics, then the reported rates (``None`` where a workload has none).
SPEED_METRICS = ("wall_s", "setup_s", "peak_rss_mb", "kips_baseline",
                 "kips_reese", "runs_per_s")
_SPEED_KEYS = ("label", "timestamp", "git_rev", "workload", "seed", "runs",
               "metrics", "stats_digest")
_WORKLOADS = ("fig2", "sampled", "faults")
_HEADER = re.compile(r"^perfbench (\w+) seed (\d+):")
_DIGEST = re.compile(r"^[0-9a-f]{64}$")
#: A recorded revision: an abbreviated or full commit id, or "unknown".
_GIT_REV = re.compile(r"[0-9a-f]{7,40}|unknown")

DEFAULT_PATH = REPO_ROOT / "BENCH_TRAJECTORY.json"
#: The benchmark contract: its end-to-end metrics carry the bounds that
#: :func:`compare_speed` flags against.
BENCHMARK_PATH = REPO_ROOT / "BENCHMARK.json"

#: Keys every per-benchmark block must carry.
_BENCH_KEYS = ("baseline_ipc", "reese_ipc", "r2a_ipc",
               "reese_gap", "r2a_gap")
#: Keys every suite block must carry.
_SUITE_KEYS = ("r_share", "slots_lost", "top_causes", "detect_latency")


def git_rev() -> str:
    """Short HEAD revision, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def collect_entry(label: str, scale: int, jobs: int,
                  use_cache: bool = True) -> Dict[str, Any]:
    """Run the profiled suite and build one trajectory entry."""
    from repro.harness.parallel import ParallelRunner, SimJob
    from repro.uarch.config import starting_config
    from repro.workloads.suite import BENCHMARK_ORDER

    config = starting_config()
    series = [
        (SERIES_BASELINE, config),
        (SERIES_REESE, config.with_reese()),
        (SERIES_R2A, config.with_spares(2, 0).with_reese()),
    ]
    runner = ParallelRunner(jobs=jobs, use_cache=use_cache, profile=True)
    sim_jobs = [
        SimJob(bench, cfg, scale, profile=True)
        for bench in BENCHMARK_ORDER
        for _label, cfg in series
    ]
    stats = iter(runner.run(sim_jobs))
    per_bench: Dict[str, Dict[str, float]] = {}
    suite_accounts: Dict[str, Dict[str, Any]] = {}
    reese_runs: List[Stats] = []
    for bench in BENCHMARK_ORDER:
        cells = {lab: next(stats) for lab, _cfg in series}
        reese_runs.append(cells[SERIES_REESE])
        base_ipc = cells[SERIES_BASELINE].ipc
        per_bench[bench] = {
            "baseline_ipc": round(base_ipc, 4),
            "reese_ipc": round(cells[SERIES_REESE].ipc, 4),
            "r2a_ipc": round(cells[SERIES_R2A].ipc, 4),
            "reese_gap": round(
                1 - cells[SERIES_REESE].ipc / base_ipc if base_ipc else 0.0, 4
            ),
            "r2a_gap": round(
                1 - cells[SERIES_R2A].ipc / base_ipc if base_ipc else 0.0, 4
            ),
        }
        for lab, cell in cells.items():
            suite_accounts[lab] = merge_accounting(
                suite_accounts.get(lab, {}), cell.accounting or {}
            )
    r_delta, total_delta = r_share_of_delta(
        suite_accounts[SERIES_BASELINE], suite_accounts[SERIES_REESE]
    )
    reese_slots = suite_accounts[SERIES_REESE].get("slots", {})
    top_causes = sorted(
        ((cause, reese_slots.get(cause, 0)) for cause in SLOT_CAUSES),
        key=lambda item: -item[1],
    )[:5]
    detect = Stats.merged(reese_runs).detection_latency()["detect_latency"]
    return {
        "label": label,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "git_rev": git_rev(),
        "scale": scale,
        "benchmarks": per_bench,
        "suite": {
            "r_share": round(r_delta / total_delta if total_delta else 0.0, 4),
            "slots_lost": total_delta,
            "top_causes": [[cause, count] for cause, count in top_causes],
            "detect_latency": {
                "count": detect["count"],
                "mean": round(detect["mean"], 2),
                "p50": detect["p50"],
                "p99": detect["p99"],
                "max": detect["max"],
            },
        },
    }


def parse_perfbench(text: str) -> Dict[str, Any]:
    """One perfbench run's table: workload, seed, metrics and digest.

    Reads the human-readable lines ``perfbench/run.py`` prints before
    its JSON line (the JSON line carries only the gated metrics).
    """
    run: Dict[str, Any] = {"metrics": {}}
    for line in text.splitlines():
        header = _HEADER.match(line)
        if header:
            run["workload"], run["seed"] = header.group(1), int(header.group(2))
            continue
        parts = line.split()
        if len(parts) >= 2 and parts[0] in SPEED_METRICS:
            run["metrics"][parts[0]] = (
                None if parts[1] == "—" else float(parts[1])
            )
        elif len(parts) == 2 and parts[0] == "stats_digest":
            run["stats_digest"] = parts[1]
    missing = [key for key in ("workload", "seed", "stats_digest")
               if key not in run]
    missing += [name for name in SPEED_METRICS if name not in run["metrics"]]
    if missing:
        raise ValueError(f"not a perfbench run table: missing {missing}")
    return run


def speed_entry(label: str, texts: Sequence[str],
                git_rev_: Optional[str] = None) -> Dict[str, Any]:
    """A speed entry from the output of one or more perfbench runs of
    one workload and seed; each metric is the median over the runs."""
    runs = [parse_perfbench(text) for text in texts]
    if not runs:
        raise ValueError("no perfbench runs to ingest")
    for key in ("workload", "seed", "stats_digest"):
        values = {run[key] for run in runs}
        if len(values) != 1:
            raise ValueError(f"runs disagree on {key}: {sorted(values)}")
    metrics: Dict[str, Optional[float]] = {}
    for name in SPEED_METRICS:
        values = [run["metrics"][name] for run in runs
                  if run["metrics"][name] is not None]
        metrics[name] = round(statistics.median(values), 4) if values else None
    return {
        "kind": "speed",
        "label": label,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "git_rev": git_rev_ or git_rev(),
        "workload": runs[0]["workload"],
        "seed": runs[0]["seed"],
        "runs": len(runs),
        "metrics": metrics,
        "stats_digest": runs[0]["stats_digest"],
    }


def load_trajectory(path: pathlib.Path) -> Dict[str, Any]:
    """Load (or initialise) the trajectory document."""
    if path.exists():
        return json.loads(path.read_text(encoding="utf-8"))
    return {"schema": TRAJECTORY_SCHEMA_VERSION, "entries": []}


def append_entry(path: pathlib.Path, entry: Dict[str, Any]) -> int:
    """Append ``entry`` and rewrite the file atomically.

    Returns the new entry count.  Validates before writing so a buggy
    collector can never corrupt the history file.
    """
    data = load_trajectory(path)
    data["entries"].append(entry)
    # Schema-1 entries are valid schema-2 entries: appending upgrades.
    data["schema"] = TRAJECTORY_SCHEMA_VERSION
    errors = validate_trajectory(data)
    if errors:
        raise ValueError("refusing to write invalid trajectory: "
                         + "; ".join(errors))
    atomic_write_text(path, json.dumps(data, indent=2, sort_keys=True) + "\n")
    return len(data["entries"])


def validate_trajectory(data: Dict[str, Any]) -> List[str]:
    """Schema-check a trajectory document (empty list == valid)."""
    errors: List[str] = []
    if not isinstance(data, dict):
        return ["document is not an object"]
    schema = data.get("schema")
    if schema not in _KNOWN_SCHEMAS:
        errors.append(f"schema {schema!r} not in {_KNOWN_SCHEMAS}")
    entries = data.get("entries")
    if not isinstance(entries, list):
        return errors + ["entries is not a list"]
    for index, entry in enumerate(entries):
        where = f"entries[{index}]"
        if not isinstance(entry, dict):
            errors.append(f"{where}: not an object")
            continue
        rev = entry.get("git_rev")
        if rev is not None and not _GIT_REV.fullmatch(str(rev)):
            errors.append(f"{where}: git_rev {rev!r} is neither a 7-40 "
                          f"digit hex commit id nor 'unknown'")
        if entry.get("kind") == "speed":
            if schema == 1:
                errors.append(f"{where}: speed entry in a schema-1 document")
            errors.extend(_validate_speed(where, entry))
            continue
        for key in ("label", "timestamp", "git_rev", "scale",
                    "benchmarks", "suite"):
            if key not in entry:
                errors.append(f"{where}: missing {key!r}")
        for bench, block in (entry.get("benchmarks") or {}).items():
            for key in _BENCH_KEYS:
                if key not in block:
                    errors.append(f"{where}.benchmarks[{bench!r}]: "
                                  f"missing {key!r}")
        suite = entry.get("suite") or {}
        for key in _SUITE_KEYS:
            if key not in suite:
                errors.append(f"{where}.suite: missing {key!r}")
        share = suite.get("r_share")
        if isinstance(share, (int, float)) and not 0.0 <= share <= 1.0:
            errors.append(f"{where}.suite.r_share {share} outside [0, 1]")
    return errors


def _validate_speed(where: str, entry: Dict[str, Any]) -> List[str]:
    errors = [f"{where}: missing {key!r}" for key in _SPEED_KEYS
              if key not in entry]
    if entry.get("workload") not in _WORKLOADS:
        errors.append(f"{where}: unknown workload {entry.get('workload')!r}")
    if not _DIGEST.match(str(entry.get("stats_digest", ""))):
        errors.append(f"{where}: stats_digest is not a sha256 hex digest")
    metrics = entry.get("metrics") or {}
    for name in SPEED_METRICS:
        value = metrics.get(name, "missing")
        if value is None and name not in SPEED_METRICS[:3]:
            continue  # a rate the workload does not report
        if not isinstance(value, (int, float)) or value <= 0:
            errors.append(f"{where}.metrics: {name} {value!r} is not a "
                          f"positive number")
    return errors


def load_bounds(path: pathlib.Path = BENCHMARK_PATH
                ) -> Dict[str, Tuple[float, str]]:
    """``{metric: (bound, better)}`` of the benchmark's bounded metrics."""
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {metric["name"]: (metric["bound"], metric["better"])
            for metric in spec.get("end_to_end", []) if "bound" in metric}


def compare_speed(data: Dict[str, Any],
                  bounds: Dict[str, Tuple[float, str]]
                  ) -> Tuple[List[str], int]:
    """Diff each (workload, seed)'s newest speed entry against the one
    before it.

    Returns the report lines and the number of flags: a bounded metric
    that got worse by more than its bound (a relative change, as the
    benchmark judges it), or a changed ``stats_digest``.
    """
    series: Dict[Tuple[str, int], List[Dict[str, Any]]] = {}
    for entry in data.get("entries", []):
        if entry.get("kind") == "speed":
            series.setdefault((entry["workload"], entry["seed"]),
                              []).append(entry)
    lines: List[str] = []
    flags = 0
    for (workload, seed), entries in sorted(series.items()):
        if len(entries) < 2:
            lines.append(f"{workload} seed {seed}: one entry, nothing to "
                         f"compare")
            continue
        old, new = entries[-2:]
        lines.append(f"{workload} seed {seed}: {old['label']!r} @ "
                     f"{old['git_rev']} -> {new['label']!r} @ "
                     f"{new['git_rev']}")
        for name in SPEED_METRICS:
            before = old["metrics"].get(name)
            after = new["metrics"].get(name)
            if before is None or after is None:
                continue
            change = after / before - 1.0
            note = ""
            if name in bounds:
                bound, better = bounds[name]
                worse = change if better == "lower" else -change
                if worse > bound:
                    flags += 1
                    note = f"  FLAG: worse by more than its {bound:.0%} bound"
            lines.append(f"  {name:<13} {before:>10.4f} -> {after:>10.4f} "
                         f"{change:+7.1%}{note}")
        if old["stats_digest"] == new["stats_digest"]:
            lines.append(f"  stats_digest  unchanged "
                         f"({new['stats_digest'][:12]})")
        else:
            flags += 1
            lines.append(f"  stats_digest  {old['stats_digest'][:12]} -> "
                         f"{new['stats_digest'][:12]}  FLAG: results changed")
    lines.append(f"{flags} flag{'' if flags == 1 else 's'}")
    return lines, flags


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="append a profiled suite snapshot to the "
                    "benchmark trajectory",
    )
    parser.add_argument("--label", default="manual",
                        help="entry label (e.g. the change under test)")
    parser.add_argument("--scale", type=int, default=8000,
                        help="dynamic instructions per benchmark")
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker processes")
    parser.add_argument("--no-cache", action="store_true", dest="no_cache",
                        help="disable the on-disk result cache")
    parser.add_argument("--path", type=pathlib.Path, default=DEFAULT_PATH,
                        help="trajectory file (default BENCH_TRAJECTORY.json)")
    parser.add_argument("--validate", action="store_true",
                        help="only schema-check the existing file")
    parser.add_argument("--compare", action="store_true",
                        help="report each workload and seed's newest speed "
                             "entry against the previous one, flagging "
                             "metrics past their BENCHMARK.json bound and "
                             "digest changes (a report: exits 0)")
    parser.add_argument("--ingest", nargs="+", type=pathlib.Path,
                        metavar="RUN",
                        help="append a speed entry from these perfbench "
                             "outputs (one workload and seed) instead of "
                             "running the suite")
    parser.add_argument("--git-rev", dest="git_rev",
                        help="revision to record (default: HEAD)")
    args = parser.parse_args(argv)

    if args.validate:
        if not args.path.exists():
            print(f"{args.path}: missing", file=sys.stderr)
            return 1
        errors = validate_trajectory(load_trajectory(args.path))
        for error in errors:
            print(f"{args.path}: {error}", file=sys.stderr)
        entries = len(load_trajectory(args.path).get("entries", []))
        print(f"{args.path}: {'INVALID' if errors else 'OK'} "
              f"({entries} entries)")
        return 1 if errors else 0

    if args.compare:
        lines, _flags = compare_speed(load_trajectory(args.path),
                                      load_bounds())
        print("\n".join(lines))
        return 0

    if args.ingest:
        entry = speed_entry(
            args.label,
            [run.read_text(encoding="utf-8") for run in args.ingest],
            args.git_rev,
        )
        count = append_entry(args.path, entry)
        print(f"appended entry {count} ({entry['label']!r} @ "
              f"{entry['git_rev']}): {entry['workload']} seed "
              f"{entry['seed']} over {entry['runs']} runs, wall_s "
              f"{entry['metrics']['wall_s']}")
        return 0

    entry = collect_entry(args.label, args.scale, args.jobs,
                          use_cache=not args.no_cache)
    if args.git_rev:
        entry["git_rev"] = args.git_rev
    count = append_entry(args.path, entry)
    suite = entry["suite"]
    print(f"appended entry {count} ({entry['label']!r} @ "
          f"{entry['git_rev']}): suite R-share "
          f"{suite['r_share']:.1%} of {suite['slots_lost']} slots lost; "
          f"detection p99 {suite['detect_latency']['p99']} cycles")
    return 0


if __name__ == "__main__":
    sys.exit(main())
