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
    python benchmarks/track.py --ab HEAD~1 HEAD --workload sampled
        --seeds 0,7 --pairs 10 --seconds 25 --label my-change  # one line

``--ab PARENT CHANGE`` is the A/B driver: it exports both revisions'
committed files (``git archive``) into a scratch directory, runs
perfbench on them in pairs that alternate which side runs first,
prints per seed each gated metric's medians and quartiles, the pairs
the change wins and whether every run's ``stats_digest`` agrees, then
ingests each side as a speed entry (the parent's labelled ``parent of
LABEL``).  It also measures each run's child CPU seconds (the
``RUSAGE_CHILDREN`` delta around it), prints each side's median and
stores it as the entry's optional ``child_cpu_s``: supporting
evidence beside ``wall_s``, never gated or compared.

The file is rewritten atomically on every append (tmp, fsync, rename),
so a crashed run never truncates the history.  Wall-clock timestamps
and ``git rev-parse`` are fine here — the determinism lint guards
``src/repro`` (simulation results), not this descriptive log.
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import pathlib
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

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
    r_share_of_delta,
)
from repro.uarch.stats import Stats, merge_accounting  # noqa: E402

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
_OPERATIONS = re.compile(r"(\d+) operations, (\d+) failed")
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
            operations = _OPERATIONS.search(line)
            if operations:
                run["attempted"], run["failed"] = map(int, operations.groups())
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
                git_rev_: Optional[str] = None,
                child_cpu_s: Optional[Sequence[float]] = None,
                ) -> Dict[str, Any]:
    """A speed entry from the output of one or more perfbench runs of
    one workload and seed; each metric is the median over the runs, and
    so is ``child_cpu_s``, the runs' child CPU seconds, when given."""
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
    entry = {
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
    if child_cpu_s:
        entry["child_cpu_s"] = round(statistics.median(child_cpu_s), 4)
    return entry


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
    cpu = entry.get("child_cpu_s", 0.0)  # optional
    if type(cpu) not in (int, float) or cpu < 0:
        errors.append(f"{where}: child_cpu_s {cpu!r} is not a "
                      f"non-negative number")
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


def export_revision(rev: str, dest: pathlib.Path) -> str:
    """Extract the committed files of ``rev`` into ``dest`` (``git
    archive``, so no work-tree change leaks in); returns its short id."""
    def git(*args: str) -> bytes:
        return subprocess.run(["git", *args], cwd=REPO_ROOT,
                              capture_output=True, check=True).stdout

    short = git("rev-parse", "--short", rev).decode().strip()
    # The "data" filter where this Python has it (3.11.4 and later).
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar",
                                              rev))) as archive:
        archive.extractall(dest, **safe)
    return short


#: A small Python process that runs its arguments as a command and
#: exits with its status.  On Linux a process's ``ru_maxrss`` keeps the
#: high-water mark of the process it was forked from across ``exec``,
#: so a perfbench run started straight from this one would read this
#: process's RSS as its own peak; started from the launcher it reads
#: at most the launcher's, which is below any perfbench peak.
_LAUNCHER = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"


def perfbench_run(root: pathlib.Path, workload: str, seed: int,
                  seconds: Optional[float]) -> str:
    """One untraced perfbench run of the checkout at ``root``, started
    through :data:`_LAUNCHER`: its standard output."""
    command = [sys.executable, "-c", _LAUNCHER, sys.executable,
               "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    return subprocess.run(command, cwd=root, capture_output=True, text=True,
                          check=True).stdout


#: What runs one perfbench run: ``(root, workload, seed, seconds)``.
Runner = Callable[[pathlib.Path, str, int, Optional[float]], str]
#: What reads the CPU seconds this process's children have used so far.
CpuClock = Callable[[], float]


def children_cpu_s() -> float:
    """User plus system CPU seconds of this process's waited-for
    children (``RUSAGE_CHILDREN``)."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def ab_runs(roots: Sequence[pathlib.Path], workload: str, seed: int,
            pairs: int, seconds: Optional[float],
            runner: Runner = perfbench_run, cpu: CpuClock = children_cpu_s,
            ) -> Tuple[List[List[str]], List[List[float]]]:
    """``pairs`` runs of each checkout in ``roots``, alternating: even
    pairs run the sides in order, odd pairs in reverse, so a drift in
    the host's speed falls on every side alike.  Returns each side's
    outputs and each run's child CPU seconds (``cpu`` read around the
    runner call), in pair order."""
    outputs: List[List[str]] = [[] for _ in roots]
    cpu_s: List[List[float]] = [[] for _ in roots]
    for pair in range(pairs):
        order = list(range(len(roots)))
        for side in order if pair % 2 == 0 else order[::-1]:
            before = cpu()
            outputs[side].append(runner(roots[side], workload, seed,
                                        seconds))
            cpu_s[side].append(cpu() - before)
    return outputs, cpu_s


def _quartiles(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    low, _median, high = statistics.quantiles(values, n=4,
                                              method="inclusive")
    return low, high


def ab_report(parent: Sequence[str], change: Sequence[str],
              bounds: Dict[str, Tuple[float, str]]) -> List[str]:
    """Per gated metric: each side's median and quartiles, the ratio of
    the medians, in how many pairs the change is better, and whether
    the medians differ by more than the parent's IQR; then each side's
    failed operations, and whether every run's ``stats_digest``
    agrees."""
    before = [parse_perfbench(text) for text in parent]
    after = [parse_perfbench(text) for text in change]
    lines = []
    for name in SPEED_METRICS[:3]:
        old = [run["metrics"][name] for run in before]
        new = [run["metrics"][name] for run in after]
        old_median, new_median = statistics.median(old), statistics.median(new)
        (old_q1, old_q3), (new_q1, new_q3) = _quartiles(old), _quartiles(new)
        sign = -1 if bounds.get(name, (0, "lower"))[1] == "lower" else 1
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        iqr = old_q3 - old_q1
        resolved = "beyond" if abs(new_median - old_median) > iqr else "within"
        lines.append(
            f"  {name:<12} {old_median:>10.4f} [{old_q1:.4f}, {old_q3:.4f}]"
            f" -> {new_median:>10.4f} [{new_q1:.4f}, {new_q3:.4f}] "
            f"({new_median / old_median:.3f}x), change better in "
            f"{wins}/{len(old)} pairs, gap {resolved} the parent's IQR "
            f"{iqr:.4f}")
    for side, runs in (("parent", before), ("change", after)):
        lines.append(f"  failed       {side}: "
                     f"{sum(run.get('failed', 0) for run in runs)} of "
                     f"{sum(run.get('attempted', 0) for run in runs)} "
                     f"operations")
    digests = sorted({run["stats_digest"] for run in before + after})
    lines.append("  stats_digest " + (
        f"equal in every run ({digests[0][:12]})" if len(digests) == 1
        else "DIFFERS: " + ", ".join(digest[:12] for digest in digests)))
    return lines


def ab(parent_rev: str, change_rev: str, workload: str, seeds: Sequence[int],
       pairs: int, seconds: Optional[float], label: str, path: pathlib.Path,
       export: Callable[[str, pathlib.Path], str] = export_revision,
       runner: Runner = perfbench_run,
       cpu: CpuClock = children_cpu_s) -> Iterator[str]:
    """The A/B driver (see the module docstring): yields the report line
    by line, appending each seed's two speed entries after its report
    (:func:`speed_entry` refuses a side whose runs disagree on the
    digest)."""
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="track-ab-"))
    try:
        roots, revs = [], []
        for side, rev in (("parent", parent_rev), ("change", change_rev)):
            roots.append(scratch / side)
            roots[-1].mkdir()
            revs.append(export(rev, roots[-1]))
        yield (f"{workload}: parent {parent_rev} @ {revs[0]} -> change "
               f"{change_rev} @ {revs[1]}, {pairs} alternating pairs")
        bounds = load_bounds()
        for seed in seeds:
            (parent, change), (parent_cpu, change_cpu) = ab_runs(
                roots, workload, seed, pairs, seconds, runner, cpu)
            yield f"seed {seed}:"
            yield from ab_report(parent, change, bounds)
            yield (f"  child_cpu_s  {statistics.median(parent_cpu):10.4f} -> "
                   f"{statistics.median(change_cpu):10.4f} (medians; "
                   f"supporting evidence, not gated)")
            for side_label, texts, cpu_s, rev in (
                    (f"parent of {label}", parent, parent_cpu, revs[0]),
                    (label, change, change_cpu, revs[1])):
                count = append_entry(path, speed_entry(side_label, texts, rev,
                                                       cpu_s))
                yield f"  appended entry {count} ({side_label!r} @ {rev})"
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


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
    parser.add_argument("--ab", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="run perfbench on two revisions in "
                             "alternating pairs, report and ingest both")
    parser.add_argument("--workload", choices=_WORKLOADS, default="sampled",
                        help="perfbench workload of --ab")
    parser.add_argument("--seeds", default="0",
                        help="comma-separated perfbench seeds of --ab")
    parser.add_argument("--pairs", type=int, default=10,
                        help="alternating run pairs per seed of --ab")
    parser.add_argument("--seconds", type=float,
                        help="perfbench --seconds of each --ab run")
    args = parser.parse_args(argv)

    if args.ab:
        seeds = [int(seed) for seed in args.seeds.split(",")]
        for line in ab(args.ab[0], args.ab[1], args.workload, seeds,
                       args.pairs, args.seconds, args.label, args.path):
            print(line, flush=True)
        return 0

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
