"""The pipeline's observer protocol.

A :class:`~repro.uarch.pipeline.Pipeline` calls its observers through
the typed stage hooks of :data:`HOOKS`, which :class:`StageHooks`
resolves once per pipeline, and :func:`build_observability` turns an
:class:`ObserveConfig` into the observer list.  The observers (the
event tracer and its sinks, the per-stage metrics and the invariant
checker in :mod:`repro.uarch.observers`, and the cycle accountant in
:mod:`repro.uarch.accounting`) load only when a run asks for one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence


#: The pipeline's observer hooks, in stage order (signatures in
#: :class:`~repro.uarch.pipeline.Pipeline`); ``bind`` is called once.
HOOKS = (
    "on_fetch", "on_dispatch", "on_issue", "on_complete", "on_rqueue",
    "on_r_issue", "on_r_complete", "on_compare", "on_commit", "on_squash",
    "on_recover", "on_fu_block", "on_cycle", "reset", "finalize",
)


class StageHooks:
    """Each of :data:`HOOKS` resolved once over a list of observers:
    ``None`` when no observer has it, the one subscriber's bound method,
    or a fan-out over the subscribers in list order."""

    __slots__ = HOOKS

    def __init__(self, observers: Sequence[Any]) -> None:
        for name in HOOKS:
            setattr(self, name, _resolve([getattr(obs, name)
                                          for obs in observers
                                          if hasattr(obs, name)]))


def _resolve(hooks: List[Callable]) -> Optional[Callable]:
    if len(hooks) <= 1:
        return hooks[0] if hooks else None

    def fan_out(*args) -> None:
        for hook in hooks:
            hook(*args)

    return fan_out


@dataclass(frozen=True)
class ObserveConfig:
    """Which observers to attach to a run (see :func:`build_observability`)."""

    #: Collect the per-stage metrics registry into ``Stats.stage_metrics``.
    metrics: bool = False
    #: Attach the runtime invariant checker (raises InvariantViolation).
    check_invariants: bool = False
    #: Write a JSONL event trace to this path.
    trace_path: Optional[str] = None
    #: Attach the cycle accountant: ``Stats.accounting`` carries the
    #: run's slot/cycle attribution.
    profile: bool = False


#: The config that attaches nothing (what an unobserved job resolves to).
_NO_OBSERVERS = ObserveConfig()


def build_observability(observe: Optional[ObserveConfig]) -> List[Any]:
    """The observers ``observe`` asks for (empty for ``None`` or a config
    that asks for none, which loads no observer module).

    In hook order: the checker first, so a violation is raised before
    its event is written; then the metrics, the JSONL
    :class:`EventTracer` and the accountant.
    """
    if observe is None or observe == _NO_OBSERVERS:
        return []
    from .observers import (EventTracer, InvariantChecker, JSONLSink,
                            StageMetrics)

    observers: List[Any] = []
    if observe.check_invariants:
        observers.append(InvariantChecker())
    if observe.metrics:
        observers.append(StageMetrics())
    if observe.trace_path:
        observers.append(EventTracer(JSONLSink(observe.trace_path)))
    if observe.profile:
        from .accounting import CycleAccountant

        observers.append(CycleAccountant())
    return observers
