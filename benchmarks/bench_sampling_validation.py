"""Sampled-simulation validation — accuracy and speedup vs full detail.

The acceptance bench for :mod:`repro.uarch.sampling`: every suite
benchmark is simulated twice per mode (baseline and REESE) at suite
scale — once in full detail, once through the sampled engine at its
reference operating point (20 profile-placed intervals of 300
instructions) — and the bench asserts

* per-cell accuracy: sampled IPC within 2% relative of the full run;
* aggregate speedup: the sampled runs complete at least 5x faster in
  wall clock than the full runs they replace;
* figure-level fidelity: the per-benchmark REESE-vs-baseline IPC
  ratios (Figure 2's headline comparison) and the suite-average REESE
  gap (Figure 6's summary bar) reproduce under sampling.

Both sides run in-process on a single thread so the speedup is the
sampling engine's own, not the worker pool's; ``REPRO_BENCH_JOBS``
parallelism and result caching only stack on top of it.
"""

import time

from conftest import publish

from repro.harness import format_table
from repro.uarch import Pipeline, SamplingSpec, run_sampled, starting_config
from repro.workloads.suite import BENCHMARK_ORDER, trace_for

SCALE = 200_000
SPEC = SamplingSpec(20, 300)  # profile placement, warmup/cooldown 50
MAX_REL_ERROR = 0.02
MIN_SPEEDUP = 5.0


def test_sampling_validation():
    base_cfg = starting_config()
    modes = [("baseline", base_cfg), ("reese", base_cfg.with_reese())]

    rows = [["benchmark", "mode", "full IPC", "sampled IPC",
             "rel err", "speedup"]]
    errors = {}
    full_ipc = {}
    sampled_ipc = {}
    t_full_total = 0.0
    t_samp_total = 0.0

    for bench in BENCHMARK_ORDER:
        program, trace = trace_for(bench, SCALE)
        for label, cfg in modes:
            start = time.perf_counter()
            full = Pipeline(program, trace, cfg, warm=True).run()
            t_full = time.perf_counter() - start

            start = time.perf_counter()
            sampled = run_sampled(program, trace, cfg, SPEC)
            t_samp = time.perf_counter() - start

            rel = abs(sampled.ipc - full.ipc) / full.ipc
            errors[(bench, label)] = rel
            full_ipc[(bench, label)] = full.ipc
            sampled_ipc[(bench, label)] = sampled.ipc
            t_full_total += t_full
            t_samp_total += t_samp
            rows.append([
                bench, label, f"{full.ipc:.4f}", f"{sampled.ipc:.4f}",
                f"{rel * 100:.2f}%", f"{t_full / t_samp:.1f}x",
            ])

    speedup = t_full_total / t_samp_total

    # Figure 2 fidelity: per-benchmark REESE/baseline IPC ratios.
    delta_rows = [["benchmark", "full REESE/base", "sampled REESE/base"]]
    ratio_gaps = {}
    for bench in BENCHMARK_ORDER:
        r_full = full_ipc[(bench, "reese")] / full_ipc[(bench, "baseline")]
        r_samp = (sampled_ipc[(bench, "reese")]
                  / sampled_ipc[(bench, "baseline")])
        ratio_gaps[bench] = abs(r_samp - r_full)
        delta_rows.append([bench, f"{r_full:.4f}", f"{r_samp:.4f}"])

    # Figure 6 fidelity: suite-average REESE gap.
    def average_gap(ipc):
        base = sum(ipc[(b, "baseline")] for b in BENCHMARK_ORDER)
        reese = sum(ipc[(b, "reese")] for b in BENCHMARK_ORDER)
        return (base - reese) / base

    gap_full = average_gap(full_ipc)
    gap_samp = average_gap(sampled_ipc)

    detail = SPEC.intervals * SPEC.interval_length
    report = (
        f"sampled-simulation validation at suite scale "
        f"({SCALE} dynamic instructions per benchmark; "
        f"{SPEC.intervals} intervals x {SPEC.interval_length} = "
        f"{detail} measured instructions, profile placement)\n\n"
        + format_table(rows)
        + f"\n\naggregate wall-clock speedup: {speedup:.2f}x "
        f"(full {t_full_total:.1f}s vs sampled {t_samp_total:.1f}s)\n\n"
        "fig2 fidelity (REESE-vs-baseline IPC ratio per benchmark):\n"
        + format_table(delta_rows)
        + "\n\nfig6 fidelity (suite-average REESE IPC gap): "
        f"full {gap_full * 100:.2f}% vs sampled {gap_samp * 100:.2f}%"
    )
    publish("sampling_validation", report)

    bad = {k: v for k, v in errors.items() if v > MAX_REL_ERROR}
    assert not bad, f"cells above {MAX_REL_ERROR:.0%} relative error: {bad}"
    assert speedup >= MIN_SPEEDUP, \
        f"aggregate speedup only {speedup:.2f}x (< {MIN_SPEEDUP}x)"
    # The paper's comparisons survive sampling: per-benchmark ratios
    # within 2 points, the summary gap within 1 point.
    assert all(gap <= 0.02 for gap in ratio_gaps.values()), ratio_gaps
    assert abs(gap_samp - gap_full) <= 0.01
