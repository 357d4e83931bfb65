"""Extension A — detection coverage vs. environmental-event duration.

The paper's §2 argument, made quantitative: if the cause of a soft
error persists for Δt and the P- and R-stream executions of an
instruction are separated by less than Δt, both are corrupted
identically and the error escapes.  We sweep Δt and report the escape
fraction; coverage must degrade monotonically (up to sampling noise)
as events outlast the P->R separation.
"""

from conftest import bench_runner, publish

from repro.harness import FaultSpec, SimJob, bench_scale, format_table
from repro.uarch import starting_config

DURATIONS = [1, 4, 16, 64, 256, 1024]
SEEDS = (5, 17, 91)
RATE = 2e-3


def run_sweep():
    config = starting_config().with_reese()
    stats = bench_runner().run([
        SimJob("ijpeg", config, bench_scale(),
               fault=FaultSpec.make("environmental", rate=RATE,
                                    duration=duration, seed=seed))
        for duration in DURATIONS for seed in SEEDS
    ])
    rows = []
    for index, duration in enumerate(DURATIONS):
        runs = stats[index * len(SEEDS):(index + 1) * len(SEEDS)]
        detected = sum(run.errors_detected for run in runs)
        escaped = sum(run.errors_undetected_same_event for run in runs)
        strikes = sum(run.strikes for run in runs)
        total = detected + escaped
        coverage = detected / total if total else 1.0
        rows.append((duration, strikes, detected, escaped, coverage))
    return rows


def test_coverage_vs_event_duration(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table = [["dt (cycles)", "strikes", "detected", "escaped", "coverage"]]
    for duration, strikes, detected, escaped, coverage in rows:
        table.append([str(duration), str(strikes), str(detected),
                      str(escaped), f"{coverage:.1%}"])
    publish(
        "ext_coverage",
        "Extension A: detection coverage vs environmental-event "
        "duration dt\n" + format_table(table),
    )
    coverages = [row[4] for row in rows]
    # Short events: near-total coverage.  Long events: mostly escapes.
    assert coverages[0] >= 0.9
    assert coverages[-1] <= 0.5
    # Broadly monotonic decrease.
    assert coverages[0] >= coverages[-1]
