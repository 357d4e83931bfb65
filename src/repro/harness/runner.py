"""Model runner: one simulation = (workload, machine config) -> Stats.

This is the narrow waist between the workloads and the timing models.
:func:`run_model` simulates one trace exactly as its arguments say;
:func:`run_benchmark` is the one-call spelling of a single
:class:`~repro.harness.parallel.SimJob` (memoised workload trace, warm
caches and predictor — the paper's 100 M-instruction runs are
effectively warm; see DESIGN.md §5).  :func:`bench_scale` honours the
``REPRO_BENCH_INSTRUCTIONS`` environment variable so the whole figure
suite can be scaled to the machine it runs on.

Every other simulation, faulted or sampled, is a
:class:`~repro.harness.parallel.SimJob` run by
:meth:`~repro.harness.parallel.ParallelRunner.run`, which returns a
whole sampled job's :class:`~repro.uarch.sampling.SampledResult`; a
faulted run's ``Stats.strikes`` counts the strikes its fault model
made.
"""

from __future__ import annotations

from typing import List, Optional

from ..arch.trace import Trace
from ..env import env_int
from ..isa.program import Program
from ..reese.faults import FaultModel
from ..uarch.config import MachineConfig
from ..uarch.funits import FUPool
from ..uarch.observe import ObserveConfig, build_observability
from ..uarch.pipeline import Pipeline, WarmState
from ..uarch.stats import Stats

# DEFAULT_SCALE is re-exported here for backward compatibility; the
# single source of truth lives with the workload builders so the suite
# and the harness can never disagree on "the default trace" again.
from ..workloads.suite import DEFAULT_SCALE


def bench_scale() -> int:
    """Dynamic instructions per benchmark (env-overridable).

    Precedence: an explicit ``scale`` argument (e.g. the CLI's
    ``--scale``) beats ``REPRO_BENCH_INSTRUCTIONS``, which beats
    :data:`DEFAULT_SCALE`.  A malformed or non-positive env value (e.g.
    ``"2e4"``, ``"20k"``, ``"-5"``) warns and falls back to the default
    instead of silently running every experiment at the wrong scale.
    """
    return env_int("REPRO_BENCH_INSTRUCTIONS", DEFAULT_SCALE)


def run_model(
    program: Program,
    trace: Trace,
    config: MachineConfig,
    fault_model: Optional[FaultModel] = None,
    warm: bool = True,
    max_cycles: Optional[int] = None,
    observe: Optional[ObserveConfig] = None,
    warm_state: Optional[WarmState] = None,
    pools: Optional[List[FUPool]] = None,
) -> Stats:
    """Simulate one program trace on one machine configuration.

    Runs exactly what its arguments say and reads no environment: the
    ``REPRO_*`` gates are resolved into :class:`~repro.harness.parallel.SimJob`
    fields by :meth:`~repro.harness.parallel.ParallelRunner.resolve`.

    Args:
        trace: the trace's records, or the packed trace (the pipeline
            builds one record per fetch from it, and warms from the
            columns).
        observe: the observers to attach (event trace, per-stage
            metrics, invariant checker, cycle accountant); ``None``
            keeps the observer-free fast path.
        warm_state: the :class:`~repro.uarch.pipeline.WarmState` to run
            on, as :class:`~repro.uarch.pipeline.Pipeline` takes it
            (``warm`` is then ignored).
        pools: when given, the run's :class:`~repro.uarch.funits.FUPool`
            is appended to it, so the caller can read after the run
            which pools were never exhausted.
    """
    pipeline = Pipeline(
        program,
        trace,
        config,
        fault_model=fault_model,
        warm=warm,
        warm_state=warm_state,
        observers=build_observability(observe),
    )
    if pools is not None:
        pools.append(pipeline.fupool)
    return pipeline.run(max_cycles=max_cycles)


def run_benchmark(
    name: str,
    config: MachineConfig,
    scale: Optional[int] = None,
    seed: Optional[int] = None,
    warm: bool = True,
) -> Stats:
    """Simulate one named benchmark on one machine configuration.

    A one-job :class:`~repro.harness.parallel.ParallelRunner` run
    (in process, uncached), so the ``REPRO_CHECK_INVARIANTS`` and
    ``REPRO_PROFILE`` gates apply exactly as they do to every other
    harness-driven simulation.
    """
    from .parallel import ParallelRunner, SimJob

    job = SimJob(name, config, scale or bench_scale(), seed=seed, warm=warm)
    return ParallelRunner(jobs=1, use_cache=False).run([job])[0]

