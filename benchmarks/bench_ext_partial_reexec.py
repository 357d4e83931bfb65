"""Extension B — partial re-execution (the paper's §7 future work).

"Future work could explore the possibility of executing less than 100%
of P-stream instructions in the R stream ... This would speed up
execution, but it would decrease the number of soft errors that REESE
would be able to detect."

We sweep the re-execution duty cycle and measure both sides of that
trade-off: IPC recovered, and faults escaping as SDC.
"""

import statistics

from conftest import publish

from repro.harness import bench_scale, format_table
from repro.reese import BernoulliFaultModel
from repro.uarch import Pipeline, starting_config
from repro.workloads import BENCHMARK_ORDER
from repro.workloads.suite import trace_for

DUTIES = [1.0, 0.5, 0.25, 0.125]


def run_sweep():
    scale = bench_scale()
    traces = {n: trace_for(n, scale=scale) for n in BENCHMARK_ORDER}
    config = starting_config()
    base_ipc = statistics.mean(
        Pipeline(p, t, config, warm=True).run().ipc
        for p, t in traces.values()
    )
    rows = []
    for duty in DUTIES:
        reese = config.with_reese(r_duty_cycle=duty)
        ipcs = []
        detected = escaped = 0
        for p, t in traces.values():
            stats = Pipeline(p, t, reese, warm=True).run()
            ipcs.append(stats.ipc)
            # Coverage probe with per-execution faults.
            model = BernoulliFaultModel(rate=2e-4, seed=13)
            fault_stats = Pipeline(
                p, t, reese, fault_model=model, warm=True
            ).run()
            detected += fault_stats.errors_detected
            escaped += fault_stats.sdc_commits
        total = detected + escaped
        coverage = detected / total if total else 1.0
        rows.append((duty, statistics.mean(ipcs), coverage))
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
