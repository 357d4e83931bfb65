#!/usr/bin/env python3
"""Bring your own workload: assembly in, microarchitectural report out.

Shows the full user pipeline of the library:

1. write a program in the mini-ISA assembly (here: CRC-style checksum
   over a buffer, with a data-dependent branch);
2. run the functional emulator to check architectural results and get
   the dynamic trace;
3. simulate it on baseline and REESE machines and compare, including
   the microarchitectural detail (mispredictions, cache behaviour,
   R-queue occupancy).

Run:  python examples/custom_workload.py
"""

from repro import assemble, emulate, starting_config
from repro.harness import run_model
from repro.uarch import ObserveConfig

SOURCE = """
.data
buffer:  .word 314, 159, 265, 358, 979, 323, 846, 264
         .word 338, 327, 950, 288, 419, 716, 939, 937
.text
main:
    la   r1, buffer
    li   r2, 16            # words to process
    li   r3, -1            # running checksum
loop:
    lw   r4, 0(r1)
    xor  r3, r3, r4
    # fold: if the low bit is set, mix with the polynomial
    andi r5, r3, 1
    beqz r5, even
    srli r3, r3, 1
    xori r3, r3, 0x6d88    # truncated CRC polynomial
    j    next
even:
    srli r3, r3, 1
next:
    addi r1, r1, 4
    subi r2, r2, 1
    bnez r2, loop
    putint r3
    halt
"""


def main() -> None:
    program = assemble(SOURCE, name="crc_demo")
    print("assembled program:")
    print(program.listing())
    print()

    emu = emulate(program)
    print(f"architectural result: checksum = {emu.output[0]}")
    print(f"dynamic instructions: {emu.instructions}")
    print()

    config = starting_config()
    baseline = run_model(program, emu.trace, config, warm=False)
    # Per-cycle occupancy is recorded only on observed runs.
    reese = run_model(program, emu.trace, config.with_reese(), warm=False,
                      observe=ObserveConfig(metrics=True))
    rqueue_occupancy = reese.stage_metrics["occupancy"]["rqueue"]

    print(f"{'metric':28s} {'baseline':>10s} {'REESE':>10s}")
    rows = [
        ("cycles", baseline.cycles, reese.cycles),
        ("IPC", f"{baseline.ipc:.3f}", f"{reese.ipc:.3f}"),
        ("branches", baseline.branches, reese.branches),
        ("mispredictions", baseline.mispredictions, reese.mispredictions),
        ("L1D misses",
         baseline.cache_stats["l1d"]["misses"],
         reese.cache_stats["l1d"]["misses"]),
        ("R-stream executions", baseline.issued_r, reese.issued_r),
        ("peak R-queue occupancy", "-",
         max(int(occ) for occ in rqueue_occupancy)),
    ]
    for label, base_value, reese_value in rows:
        print(f"{label:28s} {base_value!s:>10s} {reese_value!s:>10s}")

    overhead = reese.cycles / baseline.cycles - 1
    print()
    print(f"time redundancy cost on this kernel: {overhead:+.1%} cycles")


if __name__ == "__main__":
    main()
