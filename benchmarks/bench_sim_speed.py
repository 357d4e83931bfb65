"""Simulator throughput — the one bench about *our* code, not the paper.

Measures functional-emulation and cycle-simulation speed so regressions
in the hot loops are visible.  pytest-benchmark runs these several
times (unlike the single-shot figure benches).  The parallel-layer
bench at the bottom times a full figure cold/sequential vs parallel vs
warm-cache and publishes the comparison to ``results/``.
"""

import time

import pytest

from conftest import publish

from repro.arch import emulate
from repro.harness import ParallelRunner, format_table
from repro.harness.experiments import figure2_spec, run_figure
from repro.uarch import Pipeline, starting_config
from repro.workloads.suite import clear_trace_cache, trace_for


@pytest.fixture(scope="module")
def workload():
    return trace_for("vortex", scale=6000)


def test_emulator_throughput(benchmark, workload):
    program, trace = workload

    result = benchmark(
        lambda: emulate(program, max_instructions=100_000,
                        collect_trace=False)
    )
    assert result.halted
    benchmark.extra_info["instructions"] = result.instructions


def test_baseline_pipeline_throughput(benchmark, workload):
    program, trace = workload
    config = starting_config()

    stats = benchmark(lambda: Pipeline(program, trace, config).run())
    assert stats.committed == len(trace)
    benchmark.extra_info["cycles"] = stats.cycles


def test_reese_pipeline_throughput(benchmark, workload):
    program, trace = workload
    config = starting_config().with_reese()

    stats = benchmark(lambda: Pipeline(program, trace, config).run())
    assert stats.committed == len(trace)
    benchmark.extra_info["cycles"] = stats.cycles


def test_observed_pipeline_throughput(benchmark, workload):
    """Full observability on (metrics + invariant checker).

    Not a regression gate — observation is allowed to cost what it
    costs; this exists so its price stays *visible*.  The zero-cost
    claim for the observability-off path is what the tier-1 suite's
    throughput benches above effectively pin (they run unobserved).
    """
    from repro.uarch.observe import ObserveConfig, build_observability

    program, trace = workload
    config = starting_config().with_reese()
    observe = ObserveConfig(metrics=True, check_invariants=True)

    stats = benchmark(
        lambda: Pipeline(
            program, trace, config, observer=build_observability(observe)
        ).run()
    )
    assert stats.committed == len(trace)
    assert stats.stage_metrics["cycles_sampled"] == stats.cycles
    benchmark.extra_info["cycles"] = stats.cycles


def test_parallel_figure_cache_speedup(tmp_path_factory):
    """The parallel layer's acceptance bench: fig2 cold vs warm cache.

    Times the full 30-cell Figure 2 grid three ways — cold sequential
    (the pre-parallel-layer behaviour), cold through the worker pool,
    and a warm-cache rerun — and asserts the warm rerun is at least 2x
    faster than the cold sequential run while producing identical IPC
    tables.  A reduced scale keeps the bench minutes-free; the caching
    win only grows with scale (simulation time scales, cache reads
    don't).
    """
    scale = 2_500
    spec = figure2_spec()
    cache_dir = tmp_path_factory.mktemp("repro_cache")

    clear_trace_cache()
    start = time.perf_counter()
    cold_seq = run_figure(spec, scale=scale,
                          runner=ParallelRunner(jobs=1, use_cache=False))
    t_cold_seq = time.perf_counter() - start

    clear_trace_cache()
    runner = ParallelRunner(jobs=2, cache_dir=cache_dir)
    start = time.perf_counter()
    cold_par = run_figure(spec, scale=scale, runner=runner)
    t_cold_par = time.perf_counter() - start
    assert runner.telemetry.cache_hits == 0

    start = time.perf_counter()
    warm = run_figure(spec, scale=scale, runner=runner)
    t_warm = time.perf_counter() - start
    assert runner.telemetry.simulated == 0  # every cell served from disk

    assert cold_seq.rows() == cold_par.rows() == warm.rows()
    speedup = t_cold_seq / t_warm
    assert speedup >= 2.0, f"warm-cache speedup only {speedup:.1f}x"

    rows = [
        ["run", "seconds", "vs cold sequential"],
        ["cold sequential (jobs=1)", f"{t_cold_seq:.2f}", "1.0x"],
        ["cold parallel (jobs=2)", f"{t_cold_par:.2f}",
         f"{t_cold_seq / t_cold_par:.1f}x"],
        ["warm cache rerun", f"{t_warm:.2f}", f"{speedup:.1f}x"],
    ]
    publish(
        "sim_speed_parallel",
        "fig2 execution-layer comparison "
        f"({scale} dynamic instructions per benchmark, 30 cells)\n\n"
        + format_table(rows)
        + "\n\nIPC tables byte-identical across all three runs.",
    )
