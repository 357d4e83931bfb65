"""The benchmark's three workloads: ``fig2``, ``sampled`` and ``faults``.

Each workload has a set-up phase — importing ``repro``, building every
proxy program and emulating every trace it uses — and a *pass*: one
closed-loop sweep over its operations, each started after the previous
one returned.  A pass is a list of :class:`Step` records; a step is one
timed call (a figure cell, a sampled-figure pass, a campaign) that
covers one or more *operations* (figure cells, sampled cells, injected
runs), each of which is checked without a stored reference.

Every input comes from the benchmark seed: seed 0 keeps each proxy's
default seed, any other seed is handed to every proxy's build as is, and
campaign and fault seeds are derived from it.  The simulated results of
a pass are folded into a digest, so a change meant only to make the
simulator faster can show that every simulated statistic is unchanged.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro  # noqa: F401  (importing the package is part of set-up)
from repro.harness import campaign, experiments, runner
from repro.harness.campaign import OracleMismatch
from repro.harness.parallel import ParallelRunner, SimJob
from repro.reese.faults import EnvironmentalFaultModel
from repro.reese.recovery import UnrecoverableFaultError
from repro.uarch.config import starting_config
from repro.uarch.pipeline import (
    SimulationDeadlockError,
    SimulationTimeoutError,
)
from repro.uarch.sampling import SamplingSpec
from repro.workloads import suite

#: The proxies every workload runs, in the paper's order.
PROXIES = tuple(suite.BENCHMARK_ORDER)

#: Failures an operation may raise; each counts against ``error_rate``.
TYPED_ERRORS = (
    SimulationDeadlockError,
    SimulationTimeoutError,
    UnrecoverableFaultError,
    OracleMismatch,
)

#: Dynamic-instruction target of the full detailed runs (fig2 cells and
#: the faulted REESE runs) and of the programs the campaigns inject into:
#: the scale ``repro campaign`` builds its proxies at.  A quarter of the
#: CLI's default, so that a run holds several passes.
SCALE = 5_000
#: Sampled cells run at the CLI's default scale (4x the full runs), with
#: the CLI's default interval length and warm-up.
SAMPLED_SCALE = suite.DEFAULT_SCALE
SAMPLING = SamplingSpec(intervals=4, interval_length=300)
#: Injections per proxy of the stratified site campaign and of the
#: Bernoulli campaign, and the Bernoulli per-instruction flip rate.
SITE_RUNS = 24
BERNOULLI_RUNS = 16
BERNOULLI_RATE = 1e-3
#: Hang budget of every injected run, as a multiple of the program's
#: golden length.  With the program's default budget (200000
#: instructions) one hang costs about 40 normal runs, so the number of
#: hangs decides a pass's host time: at 12 site and 8 Bernoulli runs per
#: proxy, 0 to 6 hangs over seeds 0-9 gave passes of 3.6 to 8.3 s.
HANG_FACTOR = 4
#: Environmental events per cycle and their duration (cycles) in the
#: faulted REESE run: a few detections and recoveries per proxy.
EVENT_RATE = 2e-3
EVENT_DURATION = 3


def proxy_seed(seed: int) -> Optional[int]:
    """The seed each proxy is built with under benchmark seed ``seed``."""
    return None if seed == 0 else seed


def derived_seed(seed: int, *parts: str) -> int:
    """A campaign or fault seed, a function of the benchmark seed alone."""
    text = json.dumps([seed, *parts])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


@dataclass
class Step:
    """One timed call of a pass."""

    name: str
    seconds: float
    attempted: int
    failed: int
    #: JSON-shaped simulated result, folded into the pass digest.
    record: Any
    #: ``baseline`` or ``reese`` for steps that run one pipeline.
    kind: str = ""
    #: Committed simulated instructions of a pipeline step.
    insts: int = 0
    #: Injected emulator runs of a campaign step.
    runs: int = 0
    #: ``ParallelRunner.run`` wall time minus the busiest worker's time.
    pool_overhead: float = 0.0


@dataclass
class Context:
    """What set-up hands the passes: the seed and, per proxy, the built
    program and its emulated trace."""

    seed: int
    traces: Dict[str, Tuple[Any, Any]] = field(default_factory=dict)


def digest(steps: List[Step]) -> str:
    """sha256 over the canonical JSON of every step's simulated result."""
    blob = json.dumps([[s.name, s.record] for s in steps], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _noop(_op: str) -> None:
    pass


def _setup(seed: int, scale: int) -> Context:
    # Set-up starts cold, as in a fresh interpreter, even when an earlier
    # set-up in this process left traces in the per-process cache.
    suite.clear_trace_cache()
    ctx = Context(seed)
    for bench in PROXIES:
        ctx.traces[bench] = suite.trace_for(bench, scale, proxy_seed(seed))
    return ctx


# ---------------------------------------------------------------------------
# Output checks: each needs nothing but the run's own inputs and outputs.
# ---------------------------------------------------------------------------


def check_cell(stats, trace_len: int, reese: bool) -> bool:
    """A full fault-free run commits its whole trace; baseline issues no
    R-stream work and fault-free REESE detects no error."""
    if stats.committed != trace_len or not stats.halted:
        return False
    if reese:
        return stats.errors_detected == 0
    return stats.issued_r == 0


def check_sampled_cell(result, reese: bool) -> bool:
    """Every interval commits exactly its measured instructions."""
    for (_, measure_start, end), stats in zip(result.intervals,
                                              result.interval_stats):
        if stats.committed != end - measure_start:
            return False
        if reese and stats.errors_detected:
            return False
        if not reese and stats.issued_r:
            return False
    return len(result.intervals) == len(result.interval_stats) > 0


def check_campaign(outcomes, runs: int) -> bool:
    """Every planned injection has exactly one outcome."""
    return sum(outcomes.values()) == runs


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


class Workload:
    """One named workload: closed loop, one client, ``workers`` processes."""

    name = ""
    loop = "closed"
    workers = 1
    scale = SCALE
    #: Nominal host seconds of one pass (2-vCPU VM, Python 3.11); it sets
    #: how many passes an untraced run makes and when overrunning passes
    #: stop, never how long a pass takes.
    pass_seconds = 6.0

    def setup(self, seed: int) -> Context:
        return _setup(seed, self.scale)

    def run_pass(self, ctx: Context, scratch: Path, jobs: Optional[int] = None,
                 mark: Callable[[str], None] = _noop) -> List[Step]:
        raise NotImplementedError


class Fig2(Workload):
    name = "fig2"

    def run_pass(self, ctx, scratch, jobs=None, mark=_noop):
        runner_ = ParallelRunner(jobs=1, use_cache=False)
        steps: List[Step] = []
        for bench in PROXIES:
            _, trace = ctx.traces[bench]
            for label, config in experiments.figure2_spec().series:
                name = f"{bench}/{label}"
                reese = config.reese.enabled
                kind = "reese" if reese else "baseline"
                job = SimJob(bench, config, self.scale,
                             seed=proxy_seed(ctx.seed))
                mark(name)
                start = time.perf_counter()
                try:
                    stats = runner_.run([job])[0]
                except TYPED_ERRORS as error:
                    steps.append(Step(name, time.perf_counter() - start, 1, 1,
                                      {"error": type(error).__name__}, kind))
                    continue
                seconds = time.perf_counter() - start
                ok = check_cell(stats, len(trace), reese)
                steps.append(Step(name, seconds, 1, 0 if ok else 1,
                                  stats.state_dict(), kind, stats.committed))
        return steps


def _sampled_record(result) -> Dict[str, Any]:
    """Everything a sampled cell reports, bit for bit."""
    return {
        "ipc": repr(result.ipc),
        "ipc_ci": repr(result.ipc_ci),
        "intervals": [list(bounds) for bounds in result.intervals],
        "stats": [stats.state_dict() for stats in result.interval_stats],
    }


def _pool_overhead(telemetry) -> float:
    """Runner wall time minus the busiest worker's summed job time."""
    busy: Dict[int, float] = {}
    for record in telemetry.records:
        if not record.cached:
            busy[record.worker] = busy.get(record.worker, 0.0) + record.elapsed
    return telemetry.wall_seconds - max(busy.values(), default=0.0)


class Sampled(Workload):
    name = "sampled"
    workers = 2
    scale = SAMPLED_SCALE
    pass_seconds = 3.5

    def run_pass(self, ctx, scratch, jobs=None, mark=_noop):
        spec = dataclasses.replace(experiments.figure2_spec(),
                                   benchmarks=PROXIES)
        cells = [(bench, label, config.reese.enabled)
                 for bench in spec.benchmarks
                 for label, config in spec.series]
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=scratch)
        runner_ = ParallelRunner(jobs=jobs or self.workers, use_cache=True,
                                 cache_dir=cache_dir)

        def run_figure():
            return experiments.run_figure(
                spec, scale=self.scale, seed=proxy_seed(ctx.seed),
                runner=runner_, sampling=SAMPLING,
            )

        try:
            mark("cold")
            start = time.perf_counter()
            try:
                cold = run_figure()
            except TYPED_ERRORS as error:
                seconds = time.perf_counter() - start
                return [Step("cold", seconds, len(cells), len(cells),
                             {"error": type(error).__name__})]
            cold_seconds = time.perf_counter() - start
            overhead = _pool_overhead(runner_.telemetry)
            records = []
            failed = 0
            for bench, label, reese in cells:
                result = cold.cells[bench][label]
                records.append(_sampled_record(result))
                if not check_sampled_cell(result, reese):
                    failed += 1
            steps = [Step("cold", cold_seconds, len(cells), failed, records,
                          pool_overhead=overhead)]

            mark("warm")
            start = time.perf_counter()
            try:
                warm = run_figure()
            except TYPED_ERRORS as error:
                steps.append(Step("warm", time.perf_counter() - start,
                                  len(cells), len(cells),
                                  {"error": type(error).__name__}))
                return steps
            warm_seconds = time.perf_counter() - start
            served = [record.cached for record in runner_.telemetry.records]
            failed = 0
            cursor = 0
            for (bench, label, _), cold_record in zip(cells, records):
                result = warm.cells[bench][label]
                hits = served[cursor:cursor + len(result.intervals)]
                cursor += len(result.intervals)
                if not all(hits) or _sampled_record(result) != cold_record:
                    failed += 1
            if cursor != len(served):
                failed = len(cells)
            steps.append(Step("warm", warm_seconds, len(cells), failed,
                              None))
            return steps
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)


class Faults(Workload):
    name = "faults"
    pass_seconds = 7.5

    def run_pass(self, ctx, scratch, jobs=None, mark=_noop):
        steps: List[Step] = []
        for bench in PROXIES:
            program, trace = ctx.traces[bench]
            budget = HANG_FACTOR * len(trace)
            steps.append(self._site(ctx, bench, program, budget, mark))
            steps.append(self._bernoulli(ctx, bench, program, budget, mark))
            steps.append(self._reese(ctx, bench, program, trace, mark))
        return steps

    def _site(self, ctx, bench, program, budget, mark) -> Step:
        name = f"{bench}/site"
        mark(name)
        start = time.perf_counter()
        try:
            result = campaign.run_site_campaign(
                program, runs=SITE_RUNS,
                seed=derived_seed(ctx.seed, bench, "site"),
                max_instructions=budget, jobs=1, skip_dead=False,
                use_analysis_cache=False,
            )
        except TYPED_ERRORS as error:
            return Step(name, time.perf_counter() - start, SITE_RUNS,
                        SITE_RUNS, {"error": type(error).__name__})
        seconds = time.perf_counter() - start
        failed = len(result.mismatches)
        if not (result.runs == SITE_RUNS
                and check_campaign(result.outcomes, SITE_RUNS)
                and result.emulations + result.skipped_dead == SITE_RUNS):
            failed = SITE_RUNS
        record = {
            "by_class": {klass: dict(sorted(counter.items()))
                         for klass, counter in sorted(result.by_class.items())},
            "emulations": result.emulations,
            "mismatches": len(result.mismatches),
        }
        return Step(name, seconds, SITE_RUNS, failed, record,
                    runs=result.emulations)

    def _bernoulli(self, ctx, bench, program, budget, mark) -> Step:
        name = f"{bench}/bernoulli"
        mark(name)
        start = time.perf_counter()
        try:
            result = campaign.run_campaign(
                program, runs=BERNOULLI_RUNS, rate=BERNOULLI_RATE,
                seed=derived_seed(ctx.seed, bench, "bernoulli"),
                max_instructions=budget, jobs=1,
            )
        except TYPED_ERRORS as error:
            return Step(name, time.perf_counter() - start, BERNOULLI_RUNS,
                        BERNOULLI_RUNS, {"error": type(error).__name__})
        seconds = time.perf_counter() - start
        ok = check_campaign(result.outcomes, BERNOULLI_RUNS)
        record = {"outcomes": dict(sorted(result.outcomes.items())),
                  "injections": result.injections}
        return Step(name, seconds, BERNOULLI_RUNS,
                    0 if ok else BERNOULLI_RUNS, record, runs=BERNOULLI_RUNS)

    def _reese(self, ctx, bench, program, trace, mark) -> Step:
        name = f"{bench}/reese-faulted"
        fault = EnvironmentalFaultModel(
            rate=EVENT_RATE, duration=EVENT_DURATION,
            seed=derived_seed(ctx.seed, bench, "environmental"),
        )
        mark(name)
        start = time.perf_counter()
        try:
            stats = runner.run_model(program, trace,
                                     starting_config().with_reese(),
                                     fault_model=fault)
        except TYPED_ERRORS as error:
            return Step(name, time.perf_counter() - start, 1, 1,
                        {"error": type(error).__name__}, "reese")
        seconds = time.perf_counter() - start
        ok = stats.committed == len(trace) and stats.halted
        return Step(name, seconds, 1, 0 if ok else 1, stats.state_dict(),
                    "reese", stats.committed)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (Fig2(), Sampled(), Faults())
}
