"""repro — a reproduction of *REESE: A Method of Soft Error Detection in
Microprocessors* (Nickel & Somani, DSN 2001).

The package implements, from scratch:

* a small RISC ISA with assembler and functional emulator
  (:mod:`repro.isa`, :mod:`repro.arch`);
* a SimpleScalar-style cycle-level out-of-order superscalar core with
  RUU, LSQ, caches, TLB and branch prediction (:mod:`repro.uarch`,
  :mod:`repro.memhier`, :mod:`repro.bpred`);
* **REESE** — time-redundant soft-error detection via an R-stream
  Queue, idle-capacity redundant execution, result comparison and
  error recovery, plus transient-fault injection (:mod:`repro.reese`);
* six SPEC95-integer proxy workloads and a random program generator
  (:mod:`repro.workloads`);
* an experiment harness reproducing every table and figure of the
  paper's evaluation (:mod:`repro.harness`).

Quickstart::

    from repro import quick_compare
    report = quick_compare("gcc")          # baseline vs REESE IPC
    print(report)

or, at the shell::

    repro-reese figure fig2
"""

from __future__ import annotations

from ._lazy import lazy_surface

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_surface(__name__, {
    ".arch": ("EmulationResult", "Emulator", "Memory", "emulate"),
    ".harness": ("run_benchmark", "run_figure", "run_model"),
    ".isa": ("Instruction", "Op", "Program", "assemble"),
    ".reese": ("BernoulliFaultModel", "EnvironmentalFaultModel",
               "RStreamQueue", "UnrecoverableFaultError"),
    ".uarch": ("MachineConfig", "Pipeline", "ReeseConfig", "Stats",
               "starting_config"),
    ".workloads": ("BENCHMARKS", "generate_program", "load"),
})
__all__.append("quick_compare")


def quick_compare(benchmark: str = "gcc", scale: int = 20_000) -> str:
    """Run one benchmark on the baseline and REESE; return a report.

    This is the two-line demonstration of the paper's headline result.
    """
    from .harness.runner import run_benchmark
    from .uarch.config import starting_config

    config = starting_config()
    base = run_benchmark(benchmark, config, scale=scale)
    reese = run_benchmark(benchmark, config.with_reese(), scale=scale)
    spared = run_benchmark(
        benchmark, config.with_spares(alu=2).with_reese(), scale=scale
    )
    lines = [
        f"benchmark {benchmark!r} ({scale} dynamic instructions):",
        f"  baseline     IPC {base.ipc:.3f}",
        f"  REESE        IPC {reese.ipc:.3f} ({1 - reese.ipc / base.ipc:+.1%})",
        f"  REESE+2 ALUs IPC {spared.ipc:.3f} ({1 - spared.ipc / base.ipc:+.1%})",
    ]
    return "\n".join(lines)
