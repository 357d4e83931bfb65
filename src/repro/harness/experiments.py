"""Experiment definitions: one spec per table/figure in the paper.

Each :class:`FigureSpec` names the machine configurations (series) and
benchmarks of one figure; :func:`run_figure` executes the cross product
and returns a :class:`FigureResult` whose rows mirror the paper's bar
groups (per-benchmark IPC plus the AVG group the paper emphasises).

Figure -> hardware map (paper §6):

* **Figure 2** — starting configuration (Table 1);
* **Figure 3** — RUU 32 / LSQ 16;
* **Figure 4** — 16-wide datapath (keeps RUU 32 / LSQ 16);
* **Figure 5** — 4 memory ports (on the 16-wide machine); the paper
  drops the ``R+2 ALU+1 Mult`` series here because it matched ``R+2``;
* **Figure 6** — summary: average IPC per hardware variation for
  baseline / REESE / REESE+2 ALU;
* **Figure 7** — RUU 64/256 (LSQ = RUU/2) with and without extra FUs,
  averages only.

Series naming follows the paper: ``Baseline``, ``REESE``, ``R+1 ALU``,
``R+2 ALU``, ``R+2+1 Mult``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..uarch.config import (
    MachineConfig,
    bigger_window_config,
    large_machine_config,
    more_mem_ports_config,
    starting_config,
    wide_datapath_config,
)
from ..uarch.sampling import SamplingSpec
from ..workloads.suite import BENCHMARK_ORDER
from .parallel import ParallelRunner, SimJob, run_sampled_jobs
from .runner import bench_scale

#: The paper's series labels, in presentation order.
SERIES_BASELINE = "Baseline"
SERIES_REESE = "REESE"
SERIES_R1A = "R+1 ALU"
SERIES_R2A = "R+2 ALU"
SERIES_R2A1M = "R+2+1 Mult"


def _series_for(base: MachineConfig, labels: Sequence[str]):
    """Build (label, config) pairs from a base config and series labels."""
    spares = {
        SERIES_BASELINE: None,
        SERIES_REESE: (0, 0),
        SERIES_R1A: (1, 0),
        SERIES_R2A: (2, 0),
        SERIES_R2A1M: (2, 1),
    }
    out = []
    for label in labels:
        spec = spares[label]
        if spec is None:
            out.append((label, base.without_reese()))
        else:
            out.append((label, base.with_spares(*spec).with_reese()))
    return out


_ALL_SERIES = [SERIES_BASELINE, SERIES_REESE, SERIES_R1A, SERIES_R2A,
               SERIES_R2A1M]


@dataclass(frozen=True)
class FigureSpec:
    """One reproducible figure: series x benchmarks."""

    figure_id: str
    title: str
    series: Tuple[Tuple[str, MachineConfig], ...]
    benchmarks: Tuple[str, ...] = tuple(BENCHMARK_ORDER)
    #: True for summary figures that only report the AVG group.
    averages_only: bool = False

    @property
    def series_labels(self) -> List[str]:
        return [label for label, _ in self.series]


@dataclass
class FigureResult:
    """Executed figure: IPC per (benchmark, series) plus averages."""

    spec: FigureSpec
    scale: int
    #: benchmark -> series label -> Stats (full runs) or
    #: :class:`~repro.uarch.sampling.SampledResult` (sampled runs);
    #: both expose the ``.ipc`` this class reads.
    cells: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def ipc(self, benchmark: str, label: str) -> float:
        return self.cells[benchmark][label].ipc

    def average_ipc(self, label: str) -> float:
        values = [self.cells[b][label].ipc for b in self.spec.benchmarks]
        return sum(values) / len(values)

    def gap(self, label: str, baseline: str = SERIES_BASELINE) -> float:
        """Average IPC deficit of a series relative to the baseline."""
        base = self.average_ipc(baseline)
        return 1.0 - self.average_ipc(label) / base if base else 0.0

    def rows(self) -> List[List[str]]:
        """Text-table rows: header, per-benchmark IPCs, AVG."""
        header = ["benchmark"] + list(self.spec.series_labels)
        body = []
        if not self.spec.averages_only:
            for bench in self.spec.benchmarks:
                body.append(
                    [bench]
                    + [f"{self.ipc(bench, lab):.3f}"
                       for lab in self.spec.series_labels]
                )
        body.append(
            ["AV."]
            + [f"{self.average_ipc(lab):.3f}"
               for lab in self.spec.series_labels]
        )
        return [header] + body


def figure2_spec() -> FigureSpec:
    """Fig. 2: initial comparison between REESE and baseline."""
    return FigureSpec(
        "fig2",
        "Initial comparison (Table 1 starting configuration)",
        tuple(_series_for(starting_config(), _ALL_SERIES)),
    )


def figure3_spec() -> FigureSpec:
    """Fig. 3: RUU size = 32 and LSQ size = 16."""
    return FigureSpec(
        "fig3",
        "RUU = 32 / LSQ = 16",
        tuple(_series_for(bigger_window_config(), _ALL_SERIES)),
    )


def figure4_spec() -> FigureSpec:
    """Fig. 4: IPC for a 16-wide datapath."""
    return FigureSpec(
        "fig4",
        "16-wide datapath",
        tuple(_series_for(wide_datapath_config(), _ALL_SERIES)),
    )


def figure5_spec() -> FigureSpec:
    """Fig. 5: additional memory ports (R+2+1 Mult dropped, as in paper)."""
    return FigureSpec(
        "fig5",
        "4 memory ports",
        tuple(
            _series_for(
                more_mem_ports_config(),
                [SERIES_BASELINE, SERIES_REESE, SERIES_R1A, SERIES_R2A],
            )
        ),
    )


def figure7_specs() -> List[FigureSpec]:
    """Fig. 7: large machines (averages only, four hardware points)."""
    specs = []
    for ruu_size in (64, 256):
        for extra in (False, True):
            base = large_machine_config(ruu_size, extra)
            specs.append(
                FigureSpec(
                    f"fig7-{base.name}",
                    f"Large machine {base.name}",
                    tuple(
                        _series_for(
                            base,
                            [SERIES_BASELINE, SERIES_REESE, SERIES_R2A],
                        )
                    ),
                    averages_only=True,
                )
            )
    return specs


#: Fig. 6 hardware variations, in the paper's x-axis order.
FIG6_VARIATIONS: List[Tuple[str, Callable[[], MachineConfig]]] = [
    ("None", starting_config),
    ("RUU,LSQ 2X", bigger_window_config),
    ("Ex. Q 2X", wide_datapath_config),
    ("MemPorts 2X", more_mem_ports_config),
]


def run_figure(
    spec: FigureSpec,
    scale: Optional[int] = None,
    seed: Optional[int] = None,
    runner: Optional[ParallelRunner] = None,
    sampling: Optional[SamplingSpec] = None,
) -> FigureResult:
    """Execute every (benchmark, series) cell of a figure.

    Cells fan out over ``runner`` (default: sequential and uncached);
    the benchmark-major job order keeps consecutive jobs on the same
    trace so pool chunking preserves per-worker trace reuse.

    With ``sampling`` set, every cell runs the sampled engine instead
    of a full detailed simulation: cells hold
    :class:`~repro.uarch.sampling.SampledResult` values and the fan-out
    happens at measurement-interval granularity (every interval of
    every cell shares one job batch).
    """
    scale = scale or bench_scale()
    runner = runner or ParallelRunner(jobs=1, use_cache=False)
    sim_jobs = [
        SimJob(bench, config, scale, seed=seed, sampling=sampling)
        for bench in spec.benchmarks
        for _, config in spec.series
    ]
    if sampling is not None:
        all_stats: List[object] = list(run_sampled_jobs(sim_jobs, runner))
    else:
        all_stats = list(runner.run(sim_jobs))
    result = FigureResult(spec, scale)
    cursor = 0
    for bench in spec.benchmarks:
        result.cells[bench] = {}
        for label, _ in spec.series:
            result.cells[bench][label] = all_stats[cursor]
            cursor += 1
    return result


def run_summary_figure(
    scale: Optional[int] = None,
    runner: Optional[ParallelRunner] = None,
    sampling: Optional[SamplingSpec] = None,
) -> Dict[str, Dict[str, float]]:
    """Fig. 6: average IPC per hardware variation per series.

    With ``sampling`` set, every cell uses the sampled engine's IPC
    estimate instead of a full detailed run.
    """
    scale = scale or bench_scale()
    runner = runner or ParallelRunner(jobs=1, use_cache=False)
    grid: List[Tuple[str, str]] = []
    sim_jobs: List[SimJob] = []
    for variation, factory in FIG6_VARIATIONS:
        base = factory()
        for label, config in _series_for(
            base, [SERIES_BASELINE, SERIES_REESE, SERIES_R2A]
        ):
            for bench in BENCHMARK_ORDER:
                grid.append((variation, label))
                sim_jobs.append(SimJob(bench, config, scale,
                                       sampling=sampling))
    if sampling is not None:
        all_stats: Sequence[object] = run_sampled_jobs(sim_jobs, runner)
    else:
        all_stats = runner.run(sim_jobs)
    sums: Dict[Tuple[str, str], float] = {}
    for (variation, label), stats in zip(grid, all_stats):
        sums[(variation, label)] = sums.get((variation, label), 0.0) + stats.ipc
    summary: Dict[str, Dict[str, float]] = {}
    for (variation, label), total in sums.items():
        summary.setdefault(variation, {})[label] = total / len(BENCHMARK_ORDER)
    return summary


#: Registry used by the CLI and the benches.
FIGURES: Dict[str, Callable[[], FigureSpec]] = {
    "fig2": figure2_spec,
    "fig3": figure3_spec,
    "fig4": figure4_spec,
    "fig5": figure5_spec,
}
