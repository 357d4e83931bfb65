"""The benchmark suite registry (paper Table 2).

Maps the six SPECint95 benchmark names to their proxy builders, with
the inputs the paper used recorded for the reproduction ledger.  The
:func:`load` / :func:`trace_for` helpers are what the experiment
harness and the benches call; traces are memoised per
``(benchmark, scale, seed)`` because five machine models share each
workload's trace in every figure.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..arch.emulator import emulate
from ..arch.trace import PackedTrace, Trace, packed
from ..env import env_int
from ..isa.program import Program
from . import profiles

#: Default dynamic-instruction target per benchmark run — the single
#: source of truth shared with the harness (``repro.harness.runner``
#: re-exports it).  Historically the suite defaulted to 30 000 while
#: the runner used 20 000, so callers mixing the two silently got
#: different traces (and distinct trace-cache entries) for "the same"
#: benchmark.
DEFAULT_SCALE = 20_000


def _trace_cache_limit() -> int:
    """Trace-cache LRU bound (``REPRO_TRACE_CACHE`` overrides)."""
    return env_int("REPRO_TRACE_CACHE", TRACE_CACHE_LIMIT)


#: Default LRU bound of the memoised-trace cache.  Sized for the
#: largest in-repo study (6 benchmarks x a handful of scales/seeds);
#: a long sweep over many (benchmark, scale, seed) keys evicts the
#: least-recently-used trace instead of growing without limit.
TRACE_CACHE_LIMIT = 48


@dataclass(frozen=True)
class Workload:
    """One benchmark: builder plus provenance metadata."""

    name: str
    description: str
    paper_input: str
    builder: Callable[[int, int], Program]
    default_seed: int

    def build(self, scale: int = DEFAULT_SCALE, seed: int = None) -> Program:
        """Assemble the proxy program targeting ``scale`` dynamic insts."""
        if seed is None:
            seed = self.default_seed
        return self.builder(scale, seed)


#: Table 2 of the paper: benchmark -> input.  Our proxies substitute the
#: workloads; the paper's inputs are recorded for provenance.
BENCHMARKS: Dict[str, Workload] = {
    "gcc": Workload(
        "gcc",
        "pointer-chasing node list with tag dispatch (compiler flavour)",
        "stmt-protoize.i",
        profiles.build_gcc,
        101,
    ),
    "go": Workload(
        "go",
        "board evaluation with data-dependent branches",
        "train",
        profiles.build_go,
        202,
    ),
    "ijpeg": Workload(
        "ijpeg",
        "blocked multiply-rich dot products (image kernel flavour)",
        "specmun.ppm (train)",
        profiles.build_ijpeg,
        303,
    ),
    "li": Workload(
        "li",
        "recursive binary-tree reduction (lisp interpreter flavour)",
        "train.lsp",
        profiles.build_li,
        404,
    ),
    "perl": Workload(
        "perl",
        "byte-string hashing with open-addressing table",
        "scrabbl.pl",
        profiles.build_perl,
        505,
    ),
    "vortex": Workload(
        "vortex",
        "hashed record store: 4-word inserts + validating lookups",
        "train",
        profiles.build_vortex,
        606,
    ),
}

#: Paper ordering of the benchmarks in every figure.
BENCHMARK_ORDER: List[str] = ["gcc", "go", "ijpeg", "li", "perl", "vortex"]

#: LRU-ordered memoisation of (program, trace) per (benchmark, scale,
#: seed).  Most-recently-used entries live at the end; lookups refresh
#: recency and inserts evict from the front once the bound is reached.
_trace_cache: ("OrderedDict[Tuple[str, int, int], "
               "Tuple[Program, PackedTrace]]") = OrderedDict()


def load(name: str, scale: int = DEFAULT_SCALE, seed: int = None) -> Program:
    """Build the proxy program for benchmark ``name``.

    Raises:
        KeyError: for an unknown benchmark name.
    """
    return BENCHMARKS[name].build(scale, seed)


def trace_for(
    name: str, scale: int = DEFAULT_SCALE, seed: int = None
) -> Tuple[Program, PackedTrace]:
    """Program and packed dynamic trace for a benchmark (memoised,
    LRU-bounded)."""
    workload = BENCHMARKS[name]
    if seed is None:
        seed = workload.default_seed
    key = (name, scale, seed)
    if key in _trace_cache:
        _trace_cache.move_to_end(key)
        return _trace_cache[key]
    program = workload.build(scale, seed)
    result = emulate(program, max_instructions=max(scale * 4, 100_000))
    if result.trace is None:  # pragma: no cover - defensive
        raise RuntimeError("emulator did not produce a trace")
    _trace_cache[key] = (program, result.trace)
    limit = _trace_cache_limit()
    while len(_trace_cache) > limit:
        _trace_cache.popitem(last=False)
    return _trace_cache[key]


def clear_trace_cache() -> None:
    """Drop memoised traces.

    Part of the worker-lifecycle story of the parallel execution layer
    (:mod:`repro.harness.parallel`): each worker process accumulates its
    own trace cache, bounded by the LRU limit above; call this between
    campaigns (or in a pool initializer) to release the memory
    deterministically.  Tests that measure memory use call it too.
    """
    _trace_cache.clear()


def mix_report(trace: Trace) -> Dict[str, float]:
    """Instruction-class mix of a trace (fractions of dynamic count)."""
    total = len(trace)
    if not total:
        return {}
    counts = {"load": 0, "store": 0, "branch": 0, "mul_div": 0, "alu": 0}
    from ..isa.instructions import FUClass

    trace = packed(trace)
    for idx, executed in Counter(trace.index).items():
        static = trace.statics[idx]
        if static.is_load:
            counts["load"] += executed
        elif static.is_store:
            counts["store"] += executed
        elif static.is_branch:
            counts["branch"] += executed
        elif static.fu in (FUClass.INT_MULT, FUClass.INT_DIV):
            counts["mul_div"] += executed
        else:
            counts["alu"] += executed
    return {key: value / total for key, value in counts.items()}
