"""Design-choice ablations called out in DESIGN.md.

* **early removal** (§4.3's "complex RUU/R-queue interaction"): letting
  completed instructions leave mid-RUU extends the effective window and
  helps REESE — the paper's justification for the extra hardware.
* **R-stream Queue size**: the paper starts at 32 entries and ties die
  area to it; too small a queue throttles the P stream.
* **R dequeue width** (``r_issue_width``): the implicit comparator /
  dequeue-port count; the auto setting matches the machine width.
"""

import statistics

from conftest import bench_runner, publish

from repro.harness import SimJob, bench_scale, format_table
from repro.uarch import starting_config
from repro.workloads import BENCHMARK_ORDER


def _avg_ipcs(configs):
    """The suite-average IPC of each config.  The jobs run
    benchmark-major, so the configs of one trace run together."""
    scale = bench_scale()
    stats = bench_runner().run([
        SimJob(name, config, scale)
        for name in BENCHMARK_ORDER for config in configs
    ])
    return [
        statistics.mean(run.ipc for run in stats[index::len(configs)])
        for index in range(len(configs))
    ]


def test_ablation_early_remove(benchmark):
    def run():
        config = starting_config()
        return _avg_ipcs([
            config,
            config.with_reese(early_remove=False),
            config.with_reese(early_remove=True),
        ])

    base, plain, early = benchmark.pedantic(run, rounds=1, iterations=1)
    publish(
        "ext_ablation_early_remove",
        "Ablation: early removal from the RUU into the R-stream Queue\n"
        + format_table([
            ["model", "avg IPC", "gap vs baseline"],
            ["baseline", f"{base:.3f}", "-"],
            ["REESE (in-order removal)", f"{plain:.3f}",
             f"{1 - plain / base:+.1%}"],
            ["REESE (early removal)", f"{early:.3f}",
             f"{1 - early / base:+.1%}"],
        ]),
    )
    # The paper argues early removal "can increase overall efficiency".
    assert early >= plain * 0.98


def test_ablation_rqueue_size(benchmark):
    sizes = [8, 16, 32, 64]

    def run():
        config = starting_config()
        base, *ipcs = _avg_ipcs([config] + [
            config.with_reese(rqueue_size=size,
                              high_water_margin=min(8, size - 1))
            for size in sizes
        ])
        return base, dict(zip(sizes, ipcs))

    base, ipcs = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [["R-queue size", "avg IPC", "gap vs baseline"]]
    for size in sizes:
        rows.append([str(size), f"{ipcs[size]:.3f}",
                     f"{1 - ipcs[size] / base:+.1%}"])
    publish("ext_ablation_rqueue_size",
            "Ablation: R-stream Queue capacity\n" + format_table(rows))
    # Bigger queues absorb ILP bursts: weakly monotone improvement.
    assert ipcs[64] >= ipcs[8]


def test_ablation_r_issue_width(benchmark):
    widths = [1, 2, 4, 8]

    def run():
        config = starting_config()
        base, *ipcs = _avg_ipcs([config] + [
            config.with_reese(r_issue_width=width) for width in widths
        ])
        return base, dict(zip(widths, ipcs))

    base, ipcs = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [["R dequeue width", "avg IPC", "gap vs baseline"]]
    for width in widths:
        rows.append([str(width), f"{ipcs[width]:.3f}",
                     f"{1 - ipcs[width] / base:+.1%}"])
    publish("ext_ablation_r_issue_width",
            "Ablation: R-stream dequeue/comparator width\n"
            + format_table(rows))
    # A single dequeue port cripples REESE; width recovers it.
    assert ipcs[1] < ipcs[8]
