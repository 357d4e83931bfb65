#!/usr/bin/env python3
"""The paper's future-work idea: re-execute less than 100% of the P stream.

§7: "one out of every two instructions could be re-executed.  This
would speed up execution, but it would decrease the number of soft
errors that REESE would be able to detect."

Sweeps the duty cycle and prints the performance/coverage frontier.

Run:  python examples/partial_reexecution.py [benchmark]
"""

import sys

from repro.reese import BernoulliFaultModel
from repro.uarch import Pipeline, starting_config
from repro.workloads.suite import trace_for


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "gcc"
    program, trace = trace_for(benchmark, scale=12_000)
    config = starting_config()
    warm = dict(warm=True)

    base = Pipeline(program, trace, config, **warm).run()
    print(f"benchmark {benchmark}: baseline IPC {base.ipc:.3f}")
    print()
    print(f"{'duty cycle':>10s} {'IPC':>7s} {'gap':>7s} "
          f"{'detected':>9s} {'escaped':>8s} {'coverage':>9s}")

    for duty in (1.0, 0.5, 0.25, 0.125):
        reese_config = config.with_reese(r_duty_cycle=duty)
        clean = Pipeline(program, trace, reese_config, **warm).run()
        model = BernoulliFaultModel(rate=3e-4, seed=21)
        faulty = Pipeline(
            program, trace, reese_config, fault_model=model, **warm
        ).run()
        detected = faulty.errors_detected
        escaped = faulty.sdc_commits
        total = detected + escaped
        coverage = detected / total if total else 1.0
        gap = 1 - clean.ipc / base.ipc
        print(f"{duty:>10.3f} {clean.ipc:>7.3f} {gap:>+7.1%} "
              f"{detected:>9d} {escaped:>8d} {coverage:>9.0%}")

    print()
    print("Full duplication detects everything; halving the duty cycle")
    print("buys back cycles at the price of escaping faults -- the")
    print("trade-off the paper leaves as future work.")


if __name__ == "__main__":
    main()
