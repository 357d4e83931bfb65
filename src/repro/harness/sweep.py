"""Parameter-sweep driver for design-space exploration.

Used by the spare-capacity example, the ablation benches and the
sensitivity studies in EXPERIMENTS.md: run a grid of configuration
transformations against the benchmark suite and collect average IPC
(plus any other stat) per grid point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..uarch.config import MachineConfig
from ..uarch.sampling import SamplingSpec
from ..uarch.stats import Stats
from ..workloads.suite import BENCHMARK_ORDER
from .parallel import ParallelRunner, SimJob
from .runner import bench_scale


@dataclass
class SweepPoint:
    """One grid point: a label, its config, and per-benchmark stats.

    ``stats`` values are :class:`~repro.uarch.stats.Stats` for full
    runs or :class:`~repro.uarch.sampling.SampledResult` for sampled
    sweeps; both expose ``.ipc`` (use a sampled result's ``.stats`` for
    raw counters in :meth:`average` metrics).
    """

    label: str
    config: MachineConfig
    stats: Dict[str, Stats]

    @property
    def average_ipc(self) -> float:
        values = [s.ipc for s in self.stats.values()]
        return sum(values) / len(values) if values else 0.0

    def average(self, metric: Callable[[Stats], float]) -> float:
        values = [metric(s) for s in self.stats.values()]
        return sum(values) / len(values) if values else 0.0


def run_sweep(
    points: Sequence,
    benchmarks: Optional[Iterable[str]] = None,
    scale: Optional[int] = None,
    runner: Optional[ParallelRunner] = None,
    sampling: Optional[SamplingSpec] = None,
) -> List[SweepPoint]:
    """Run a list of (label, config) pairs over the benchmark suite.

    The (point x benchmark) grid is executed through ``runner``
    (default: sequential and uncached); results are bit-identical for
    any worker count.  Pass one runner to share a cache/telemetry
    context across several drivers.  With ``sampling`` set, every grid
    cell uses the sampled engine (interval-level fan-out) and ``stats``
    holds :class:`~repro.uarch.sampling.SampledResult` values.
    """
    benchmarks = list(benchmarks or BENCHMARK_ORDER)
    scale = scale or bench_scale()
    runner = runner or ParallelRunner(jobs=1, use_cache=False)
    sim_jobs = [
        SimJob(bench, config, scale, sampling=sampling)
        for _, config in points
        for bench in benchmarks
    ]
    all_stats = runner.run(sim_jobs)
    results: List[SweepPoint] = []
    cursor = 0
    for label, config in points:
        stats = {
            bench: all_stats[cursor + offset]
            for offset, bench in enumerate(benchmarks)
        }
        cursor += len(benchmarks)
        results.append(SweepPoint(label, config, stats))
    return results


def spare_capacity_grid(
    base: MachineConfig,
    max_alu: int = 4,
    max_mult: int = 2,
) -> List:
    """The paper's central design question as a grid.

    "How much spare hardware is needed to decrease the fault-tolerance
    overhead to zero?" — every (spare ALU, spare mult) combination of a
    REESE machine, preceded by the baseline.
    """
    points = [("baseline", base.without_reese())]
    for alu in range(max_alu + 1):
        for mult in range(max_mult + 1):
            label = f"reese+{alu}alu+{mult}mult"
            points.append((label, base.with_spares(alu, mult).with_reese()))
    return points
