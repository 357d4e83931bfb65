"""Extension B — partial re-execution (the paper's §7 future work).

"Future work could explore the possibility of executing less than 100%
of P-stream instructions in the R stream ... This would speed up
execution, but it would decrease the number of soft errors that REESE
would be able to detect."

We sweep the re-execution duty cycle and measure both sides of that
trade-off: IPC recovered, and faults escaping as SDC.
"""

import statistics

from conftest import bench_runner, publish

from repro.harness import FaultSpec, SimJob, bench_scale, format_table
from repro.uarch import starting_config
from repro.workloads import BENCHMARK_ORDER

DUTIES = [1.0, 0.5, 0.25, 0.125]
#: The coverage probe: per-execution faults.
FAULT = FaultSpec.make("bernoulli", rate=2e-4, seed=13)


def run_sweep():
    scale = bench_scale()
    config = starting_config()
    # Per benchmark: the baseline, then each duty cycle clean and faulted.
    per_bench = 1 + 2 * len(DUTIES)
    jobs = []
    for name in BENCHMARK_ORDER:
        jobs.append(SimJob(name, config, scale))
        for duty in DUTIES:
            reese = config.with_reese(r_duty_cycle=duty)
            jobs += [SimJob(name, reese, scale),
                     SimJob(name, reese, scale, fault=FAULT)]
    stats = bench_runner().run(jobs)
    base_ipc = statistics.mean(run.ipc for run in stats[::per_bench])
    rows = []
    for index, duty in enumerate(DUTIES):
        clean = stats[1 + 2 * index::per_bench]
        faulted = stats[2 + 2 * index::per_bench]
        detected = sum(run.errors_detected for run in faulted)
        escaped = sum(run.sdc_commits for run in faulted)
        total = detected + escaped
        coverage = detected / total if total else 1.0
        rows.append((duty, statistics.mean(run.ipc for run in clean),
                     coverage))
    return base_ipc, rows


def test_partial_reexecution_tradeoff(benchmark):
    base_ipc, rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table = [["duty cycle", "avg IPC", "gap vs base", "fault coverage"]]
    for duty, ipc, coverage in rows:
        table.append([
            f"{duty:.3f}", f"{ipc:.3f}",
            f"{1 - ipc / base_ipc:+.1%}", f"{coverage:.0%}",
        ])
    publish(
        "ext_partial_reexec",
        f"Extension B: partial re-execution (baseline IPC {base_ipc:.3f})\n"
        + format_table(table),
    )
    ipcs = [row[1] for row in rows]
    coverages = [row[2] for row in rows]
    # Lower duty -> faster ...
    assert ipcs[-1] >= ipcs[0]
    # ... but lower detection coverage, exactly the paper's trade-off.
    assert coverages[-1] < coverages[0]
    assert coverages[0] >= 0.95  # full duplication catches ~everything
