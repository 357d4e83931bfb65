"""The benchmark's two kinds of run: untraced end to end, or traced.

Untraced (``--trace 0``) the workload is set up once in process, then a
fixed number of passes run back to back: as many as fit in ``--seconds``
(less the set-up probes' share) at the workload's nominal pass time, so
two commits measured with the same ``--seconds`` get the same number of
passes.  Only a host so slow that the passes overrun their share by half
cuts the run short, so that it still ends in bounded time.  A shared
host runs fast while its neighbours idle and slow while they are busy,
for seconds at a time, so ``wall_s`` is the median pass (the lower of
the two middle ones for an even count), a pass that actually ran, and
the per-kind rates use its steps.  Peak memory is read next, before any
set-up probe has run; ``setup_s`` is the median of the
fresh-interpreter probes that follow.

Traced (``--trace 1``) every pass runs in process (one worker), and
untraced and traced passes alternate so their ratio is the tracing
overhead.  Per-layer times are medians over the traced passes; per-layer
counts must be identical in every traced pass.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import layers
from .tracing import Instrumentation, Tracer
from .workloads import WORKLOADS, Step, Workload, digest

#: (name, unit) of the end-to-end metrics gated by ``BENCHMARK.json``.
END_TO_END = [(m["name"], m["unit"]) for m in layers.BENCHMARK["end_to_end"]]
#: End-to-end metrics reported per workload where they apply.
REPORTED = [("kips_baseline", "kinst/s"), ("kips_reese", "kinst/s"),
            ("runs_per_s", "1/s"), ("error_rate", "ratio")]

MIN_PASSES = 3
PROBES = 5
#: Nominal host seconds of one set-up probe, reserved out of ``--seconds``.
PROBE_SECONDS = 0.8
#: Passes stop early once they have taken this multiple of their share.
OVERRUN = 1.5


def pass_count(workload: Workload, seconds: float) -> int:
    """Passes of an untraced run: a function of ``--seconds`` and the
    workload's nominal pass time alone, never of how fast passes run."""
    share = seconds - PROBES * PROBE_SECONDS
    return max(MIN_PASSES, int(share // workload.pass_seconds))


def run_passes(workload: Workload, count: int, run_one) -> list:
    """``count`` results of ``run_one()``, fewer only if the passes overrun
    their nominal time by :data:`OVERRUN` (at least one always runs)."""
    limit = OVERRUN * count * workload.pass_seconds
    start = time.perf_counter()
    results = []
    while len(results) < count:
        results.append(run_one())
        if time.perf_counter() - start > limit:
            break
    return results


def probe_setup(root: Path, workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to a set-up workload."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "setup_probe.py"),
         workload, str(seed)],
        cwd=root, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1]) - start


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child process.

    Read before the first set-up probe, the only children are the
    workload's own pool workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def median_pass(passes: Sequence[List[Step]]) -> List[Step]:
    """The pass of median host time (the lower middle one of an even
    count).

    Every pass repeats the same deterministic work.  The fastest pass
    catches whichever idle spell of the host's neighbours the run
    happened to overlap: on a shared 2-vCPU VM, across eight fig2 runs,
    its interquartile spread was twice the median pass's.
    """
    ordered = sorted(passes, key=lambda steps: sum(s.seconds for s in steps))
    return ordered[(len(ordered) - 1) // 2]


def digested(steps: List[Step]) -> Tuple[List[Step], str]:
    """A pass and its digest, with the simulated results dropped so that
    holding many passes does not inflate the benchmark's own memory."""
    stats_digest = digest(steps)
    for step in steps:
        step.record = None
    return steps, stats_digest


def failures(passes: Sequence[Tuple[List[Step], str]]) -> tuple:
    """(attempted, failed, digest).  A pass whose simulated results differ
    from the first pass's fails every operation it attempted."""
    reference = passes[0][1]
    attempted = failed = 0
    for steps, stats_digest in passes:
        tried = sum(step.attempted for step in steps)
        attempted += tried
        if stats_digest != reference:
            failed += tried
        else:
            failed += sum(step.failed for step in steps)
    return attempted, failed, reference


def end_to_end(passes: Sequence[List[Step]], probes: Sequence[float],
               peak_mb: float, attempted: int,
               failed: int) -> Dict[str, Optional[float]]:
    typical = median_pass(passes)

    def rate(work: float, steps: List[Step]) -> Optional[float]:
        """Work per second of the given steps; None where none ran."""
        seconds = sum(s.seconds for s in steps)
        return work / seconds if seconds else None

    kinds = {kind: [s for s in typical if s.kind == kind]
             for kind in ("baseline", "reese")}
    campaigns = [s for s in typical if s.runs]
    return {
        "setup_s": statistics.median(probes),
        "wall_s": sum(s.seconds for s in typical),
        "peak_rss_mb": peak_mb,
        "kips_baseline": rate(sum(s.insts for s in kinds["baseline"]) / 1e3,
                              kinds["baseline"]),
        "kips_reese": rate(sum(s.insts for s in kinds["reese"]) / 1e3,
                           kinds["reese"]),
        "runs_per_s": rate(sum(s.runs for s in campaigns), campaigns),
        "error_rate": failed / attempted if attempted else 1.0,
    }


def measure(workload: Workload, seed: int, seconds: float, root: Path,
            scratch: Path) -> dict:
    """The untraced run: end-to-end metrics."""
    ctx = workload.setup(seed)
    passes = run_passes(workload, pass_count(workload, seconds),
                        lambda: digested(workload.run_pass(ctx, scratch)))
    peak_mb = peak_rss_mb()
    probes = [probe_setup(root, workload.name, seed) for _ in range(PROBES)]
    attempted, failed, stats_digest = failures(passes)
    metrics = end_to_end([steps for steps, _ in passes], probes, peak_mb,
                         attempted, failed)
    overheads = [s.pool_overhead for steps, _ in passes for s in steps
                 if s.pool_overhead]
    lines = [
        f"perfbench {workload.name} seed {seed}: {len(passes)} passes, "
        f"{len(probes)} set-up probes, {attempted} operations, "
        f"{failed} failed",
    ]
    for name, unit in END_TO_END + REPORTED:
        value = "—" if metrics[name] is None else f"{metrics[name]:.6g}"
        lines.append(f"  {name:<16} {value:>12} {unit}")
    if overheads:
        lines.append(f"  {'pool_overhead_s':<16} "
                     f"{statistics.median(overheads):>12.6g} s")
    lines.append(f"  {'stats_digest':<16} {stats_digest}")
    return {
        "lines": lines,
        "digest": stats_digest,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in END_TO_END},
    }


def traced(workload: Workload, seed: int, seconds: float, out_dir: Path,
           scratch: Path) -> dict:
    """The traced run: per-layer metrics."""
    tracer = Tracer()

    def mark(op: str) -> None:
        tracer.op = op

    tracer.group = "setup"
    with Instrumentation(tracer, layers.targets()):
        ctx = workload.setup(seed)

    passes: List[Tuple[List[Step], str]] = []
    pool_overheads: List[float] = []
    if workload.workers > 1:
        steps = workload.run_pass(ctx, scratch, jobs=workload.workers)
        passes.append(digested(steps))
        pool_overheads = [s.pool_overhead for s in steps if s.pool_overhead]

    plain: List[List[Step]] = []
    traced_passes: List[List[Step]] = []
    per_pass: List[Dict[str, float]] = []
    count_failures = 0
    for _ in range(max(2, pass_count(workload, seconds) // 2)):
        steps = workload.run_pass(ctx, scratch, jobs=1)
        plain.append(steps)
        passes.append(digested(steps))

        group = f"pass-{len(per_pass)}"
        tracer.group = group
        with Instrumentation(tracer, layers.targets()):
            steps = workload.run_pass(ctx, scratch, jobs=1, mark=mark)
        traced_passes.append(steps)
        passes.append(digested(steps))
        per_pass.append(layers.layer_metrics(
            span for span in tracer.spans if span.group in ("setup", group)
        ))
        if any(per_pass[-1][name] != per_pass[0][name]
               for name in layers.COUNT_METRICS):
            count_failures += sum(step.attempted for step in steps)

    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(out_dir / f"spans-{workload.name}-seed{seed}.jsonl")

    attempted, failed, stats_digest = failures(passes)
    failed = min(attempted, failed + count_failures)
    metrics = {}
    for name, unit in layers.PER_LAYER:
        if name == "harness.pool_overhead_s":
            value = statistics.median(pool_overheads) if pool_overheads else 0.0
        elif name == "trace.overhead_frac":
            # Both sides estimated as wall_s is: the median pass.
            value = (sum(s.seconds for s in median_pass(traced_passes))
                     / sum(s.seconds for s in median_pass(plain)) - 1.0)
        elif name in layers.COUNT_METRICS:
            value = per_pass[0][name]
        else:
            value = statistics.median(found[name] for found in per_pass)
        metrics[name] = {"value": value, "unit": unit}
    lines = [
        f"perfbench {workload.name} seed {seed} (traced): "
        f"{len(per_pass)} traced passes, {attempted} operations, "
        f"{failed} failed",
    ]
    lines += [f"  {name:<36} {entry['value']:>14.6g} {entry['unit']}"
              for name, entry in metrics.items()]
    lines.append(f"  {'stats_digest':<36} {stats_digest}")
    return {
        "lines": lines,
        "digest": stats_digest,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(workload_name: str, seed: int, seconds: float, trace: bool,
         root: Path) -> int:
    workload = WORKLOADS[workload_name]
    out_dir = root / ".perfbench"
    scratch = out_dir / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            result = traced(workload, seed, seconds, out_dir, scratch)
        else:
            result = measure(workload, seed, seconds, root, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for line in result["lines"]:
        print(line)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0
