"""Extension A — detection coverage vs. environmental-event duration.

The paper's §2 argument, made quantitative: if the cause of a soft
error persists for Δt and the P- and R-stream executions of an
instruction are separated by less than Δt, both are corrupted
identically and the error escapes.  We sweep Δt and report the escape
fraction; coverage must degrade monotonically (up to sampling noise)
as events outlast the P->R separation.
"""

from conftest import publish

from repro.harness import bench_scale, format_table
from repro.reese import EnvironmentalFaultModel
from repro.uarch import Pipeline, starting_config
from repro.workloads.suite import trace_for

DURATIONS = [1, 4, 16, 64, 256, 1024]
RATE = 2e-3


def run_sweep():
    program, trace = trace_for("ijpeg", scale=bench_scale())
    config = starting_config().with_reese()
    rows = []
    for duration in DURATIONS:
        detected = escaped = strikes = 0
        for seed in (5, 17, 91):
            model = EnvironmentalFaultModel(
                rate=RATE, duration=duration, seed=seed
            )
            stats = Pipeline(
                program, trace, config, fault_model=model,
                warm=True,
            ).run()
            detected += stats.errors_detected
            escaped += stats.errors_undetected_same_event
            strikes += model.strikes
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
