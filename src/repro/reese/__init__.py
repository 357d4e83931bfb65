"""REESE: REdundant Execution using Spare Elements.

The paper's contribution, as reusable pieces plugged into the
out-of-order core (:mod:`repro.uarch.pipeline`):

* :class:`~repro.reese.rqueue.RStreamQueue` — the FIFO of completed
  P-stream instructions (the pipeline's own entries) awaiting redundant
  execution;
* :mod:`~repro.reese.comparator` — re-execution from stored operands and
  the P/R result comparison;
* :mod:`~repro.reese.faults` — transient-fault models (environmental
  events with duration Δt, per-execution Bernoulli flips) and value
  corruption helpers;
* :mod:`~repro.reese.recovery` — flush/refetch retry policy and the
  unrecoverable-fault stop condition.
"""

from .comparator import p_value, reexecute, values_equal, verify
from .faults import (
    BernoulliFaultModel,
    BernoulliPlan,
    EnvironmentalFaultModel,
    FaultModel,
    NoFaults,
    PlannedInjector,
    ScheduledFaultModel,
    corrupt_instruction,
    corrupt_value,
    flip_float_bit,
    flip_int_bit,
)
from .recovery import RetryTracker, UnrecoverableFaultError
from .rqueue import R_DONE, R_ISSUED, R_WAITING, RStreamQueue

__all__ = [
    "p_value",
    "reexecute",
    "values_equal",
    "verify",
    "BernoulliFaultModel",
    "BernoulliPlan",
    "EnvironmentalFaultModel",
    "FaultModel",
    "NoFaults",
    "PlannedInjector",
    "ScheduledFaultModel",
    "corrupt_instruction",
    "corrupt_value",
    "flip_float_bit",
    "flip_int_bit",
    "RetryTracker",
    "UnrecoverableFaultError",
    "R_DONE",
    "R_ISSUED",
    "R_WAITING",
    "RStreamQueue",
]
