"""Workloads: SPEC95-int proxies, kernels and random program generation.

Every name below loads its module on first use (:mod:`repro._lazy`), so
importing ``repro.workloads.suite`` does not load the trace analysis or
the program generator.
"""

from .._lazy import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(__name__, {
    ".analysis": (
        "BranchProfile", "TraceProfile", "analyze_trace", "burstiness",
        "windowed_ilp",
    ),
    ".generator": (
        "MixProfile", "PROFILES", "ProgramGenerator", "generate_program",
    ),
    ".suite": (
        "BENCHMARK_ORDER", "BENCHMARKS", "Workload", "clear_trace_cache",
        "load", "mix_report", "trace_for",
    ),
})
