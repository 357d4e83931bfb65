"""Extension D — REESE vs. naive dispatch duplication (related work §3).

The paper positions REESE against Franklin-style schemes that duplicate
instructions "at the dynamic scheduler".  We implement that scheme too
(`MachineConfig.with_dispatch_dup()`) and race the three machines:
both redundancy schemes detect the same faults, but duplication at
dispatch halves the effective RUU/LSQ while REESE re-executes from a
queue *past* the window — which is the paper's whole design argument.
"""

import statistics

from conftest import bench_runner, publish

from repro.harness import SimJob, bench_scale, format_table
from repro.uarch import starting_config
from repro.workloads import BENCHMARK_ORDER


def run_comparison():
    scale = bench_scale()
    config = starting_config()
    configs = [config, config.with_reese(), config.with_dispatch_dup()]
    stats = iter(bench_runner().run([
        SimJob(name, model, scale)
        for name in BENCHMARK_ORDER for model in configs
    ]))
    return [
        (name, *(next(stats).ipc for _ in configs))
        for name in BENCHMARK_ORDER
    ]


def test_reese_vs_dispatch_duplication(benchmark):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    table = [["benchmark", "Baseline", "REESE", "DispatchDup",
              "REESE gap", "Dup gap"]]
    for name, base, reese, dup in rows:
        table.append([
            name, f"{base:.3f}", f"{reese:.3f}", f"{dup:.3f}",
            f"{1 - reese / base:+.1%}", f"{1 - dup / base:+.1%}",
        ])
    base_avg = statistics.mean(row[1] for row in rows)
    reese_avg = statistics.mean(row[2] for row in rows)
    dup_avg = statistics.mean(row[3] for row in rows)
    table.append([
        "AV.", f"{base_avg:.3f}", f"{reese_avg:.3f}", f"{dup_avg:.3f}",
        f"{1 - reese_avg / base_avg:+.1%}", f"{1 - dup_avg / base_avg:+.1%}",
    ])
    publish(
        "ext_scheme_comparison",
        "Extension D: REESE vs dispatch-duplication (same detection, "
        "different cost)\n" + format_table(table),
    )
    # The design argument: REESE is strictly cheaper on every benchmark.
    for name, base, reese, dup in rows:
        assert reese >= dup - 1e-9, name
    assert (1 - dup_avg / base_avg) > 2 * (1 - reese_avg / base_avg)
