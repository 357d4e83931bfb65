#!/usr/bin/env python3
"""Watch REESE work, instruction by instruction.

Collects the pipeline's event trace
(:class:`~repro.uarch.observers.EventTracer` into a list) and prints it
with :func:`~repro.uarch.observers.render_timeline` as a
SimpleScalar-ptrace-style stage timeline for a small loop:

* ``F D I X``     — the normal out-of-order P-stream life cycle;
* ``Q``           — the instruction enters the R-stream Queue;
* ``R``           — its redundant execution issues into an idle slot;
* ``C``           — the P/R comparison passed and it finally commits.

A second run injects a fault so the flush-and-refetch recovery is
visible in the timeline (watch the repeated sequence numbers after the
recovery cycle).

Run:  python examples/pipeline_visualizer.py
"""

from repro import assemble, emulate, starting_config
from repro.reese import ScheduledFaultModel
from repro.uarch import CallbackSink, EventTracer, Pipeline, render_timeline

SOURCE = """
.data
vals: .word 5, 12, 7, 3
.text
main:
    la   r1, vals
    li   r2, 4
    li   r3, 0
loop:
    lw   r4, 0(r1)
    mul  r5, r4, r4
    add  r3, r3, r5
    addi r1, r1, 4
    subi r2, r2, 1
    bnez r2, loop
    putint r3
    halt
"""


def run(label: str, fault_model=None) -> None:
    print("=" * 72)
    print(label)
    print("=" * 72)
    program = assemble(SOURCE, name="vis")
    trace = emulate(program).trace
    events = []
    tracer = EventTracer(CallbackSink(events.append))
    config = starting_config().with_reese()
    stats = Pipeline(
        program, trace, config, fault_model=fault_model, observers=[tracer]
    ).run()
    print(render_timeline(events, trace, limit=40))
    print()
    print(f"cycles={stats.cycles}  committed={stats.committed}  "
          f"R-issued={stats.issued_r}  detected={stats.errors_detected}")
    print()


if __name__ == "__main__":
    run("Clean run: P stream -> R-queue -> redundant issue -> commit")
    run(
        "Faulty run: a transient event near cycle 20 triggers detection "
        "and refetch",
        fault_model=ScheduledFaultModel([(c, 2, 5) for c in range(12, 60, 4)]),
    )
