#!/usr/bin/env python3
"""Fault-injection demo: what soft errors do with and without REESE.

Three experiments on one workload:

1. an architectural campaign on a machine WITHOUT REESE — injected bit
   flips silently corrupt results (SDC) or crash the program;
2. the same transient faults on a REESE machine — every strike whose
   P and R executions are separated by more than the event duration is
   detected and repaired by flush + re-execution;
3. the paper's §2 argument made visible: sweeping the environmental
   event duration Δt shows coverage collapsing once events outlast the
   P→R separation.

Run:  python examples/fault_injection_demo.py
"""

from repro.harness.campaign import run_campaign
from repro.reese import EnvironmentalFaultModel
from repro.uarch import Pipeline, starting_config
from repro.workloads import load
from repro.workloads.suite import trace_for


def architectural_campaign() -> None:
    print("=" * 64)
    print("1. Machine without REESE: architectural fault campaign")
    print("=" * 64)
    program = load("vortex", scale=5_000)
    result = run_campaign(program, runs=40, rate=2e-3, seed=7)
    print(result.report())
    print()


def reese_detection() -> None:
    print("=" * 64)
    print("2. REESE machine: detection and recovery")
    print("=" * 64)
    program, trace = trace_for("vortex", scale=8_000)
    config = starting_config().with_reese()
    model = EnvironmentalFaultModel(rate=1e-3, duration=2, seed=42)
    stats = Pipeline(
        program, trace, config, fault_model=model,
        warm=True,
    ).run()
    print(f"fault strikes:            {stats.strikes}")
    print(f"errors detected:          {stats.errors_detected}")
    print(f"recoveries (flush+refetch): {stats.recoveries}")
    print(f"silent corruptions:       {stats.sdc_commits}")
    print(f"instructions committed:   {stats.committed} (all verified)")
    print()


def coverage_vs_duration() -> None:
    print("=" * 64)
    print("3. Detection coverage vs environmental event duration (dt)")
    print("=" * 64)
    program, trace = trace_for("vortex", scale=8_000)
    config = starting_config().with_reese()
    print(f"{'dt (cycles)':>12s} {'detected':>9s} {'escaped':>8s} "
          f"{'coverage':>9s}")
    for duration in (1, 8, 64, 512):
        detected = escaped = 0
        for seed in (3, 11, 29):
            model = EnvironmentalFaultModel(
                rate=1e-3, duration=duration, seed=seed
            )
            stats = Pipeline(
                program, trace, config, fault_model=model,
                warm=True,
            ).run()
            detected += stats.errors_detected
            escaped += stats.errors_undetected_same_event
        total = detected + escaped
        coverage = detected / total if total else 1.0
        print(f"{duration:>12d} {detected:>9d} {escaped:>8d} "
              f"{coverage:>9.0%}")
    print()
    print("Short events are always caught; events longer than the P->R")
    print("separation corrupt both executions identically and escape --")
    print("the paper's argument for not re-executing too soon.")


if __name__ == "__main__":
    architectural_campaign()
    reese_detection()
    coverage_vs_duration()
