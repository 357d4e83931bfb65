"""Transient-fault (soft-error) models.

The REESE paper argues about soft errors analytically; to make the
claims measurable this module provides injectable fault models for both
the timing simulators and the functional emulator:

* :class:`EnvironmentalFaultModel` — the paper's §2 model: environmental
  events (e.g. a particle strike) arrive as a Poisson process and persist
  for a **duration Δt**; *every* execution completing inside the event
  window suffers the same bit flip.  If an instruction's P and R
  executions both fall inside one event they are corrupted identically
  and the error is **undetectable** — exactly the paper's argument for
  separating P and R executions by more than Δt.
* :class:`BernoulliFaultModel` — independent per-execution bit flips
  with probability ``rate`` (the classic SER-per-instruction model).
* :class:`ScheduledFaultModel` — an explicit list of (start, duration,
  bit) events, for deterministic unit tests.
* :class:`BernoulliPlan` — per-instruction strikes for the functional
  emulator's campaigns, as a plan of the eligible instructions to
  corrupt, which a :class:`PlannedInjector` applies (see
  :mod:`repro.harness.campaign`).

Corruption helpers flip one bit of a comparable value: integers flip a
bit of their 32-bit representation, floats a bit of their IEEE-754
double representation, stores flip a bit of the store data.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..arch.trace import DynInst
from ..isa.semantics import bits_to_float, float_to_bits, to_i32

Comparable = Union[int, float, Tuple, None]

#: An emulator run's faults: ascending ``(ordinal, bit)`` pairs, where
#: ordinals number the run's eligible instructions (see
#: :mod:`repro.arch.emulator`).  A plan is read lazily and once.
Plan = Iterable[Tuple[int, int]]


def flip_int_bit(value: int, bit: int) -> int:
    """Flip one bit of a 32-bit integer value."""
    return to_i32((value & 0xFFFFFFFF) ^ (1 << (bit & 31)))


def flip_float_bit(value: float, bit: int) -> float:
    """Flip one bit of a double's IEEE-754 representation."""
    return bits_to_float(float_to_bits(value) ^ (1 << (bit & 63)))


def corrupt_value(value: Comparable, bit: int) -> Comparable:
    """Flip one bit of a comparable value.

    Tuples (store address/data, jalr link/target) corrupt their last
    element — the data payload.  ``None`` values (instructions with no
    data-dependent result) are returned unchanged: there is nothing to
    corrupt, so such instructions are immune by construction.
    """
    if value is None:
        return None
    if isinstance(value, tuple):
        return value[:-1] + (corrupt_value(value[-1], bit),)
    if isinstance(value, float):
        return flip_float_bit(value, bit)
    return flip_int_bit(int(value), bit)


class FaultModel(abc.ABC):
    """Interface queried by the timing models at execution completion."""

    def __init__(self) -> None:
        self.queries = 0
        self.strikes = 0

    @abc.abstractmethod
    def fault_bit_at(self, cycle: int) -> Optional[int]:
        """Bit index to flip for an execution completing at ``cycle``.

        Returns ``None`` when no fault is active.  Callers query with
        non-decreasing cycles within one simulation.
        """

    def sample(self, cycle: int) -> Optional[int]:
        """Query with bookkeeping; use this instead of fault_bit_at."""
        self.queries += 1
        bit = self.fault_bit_at(cycle)
        if bit is not None:
            self.strikes += 1
        return bit


class NoFaults(FaultModel):
    """The default: a perfectly quiet environment."""

    def fault_bit_at(self, cycle: int) -> Optional[int]:
        return None


class ScheduledFaultModel(FaultModel):
    """Deterministic fault events: a list of (start, duration, bit).

    The event list is validated at construction: durations must be
    positive, bits in range, and windows must not overlap — two
    concurrent events would make :meth:`fault_bit_at` silently prefer
    whichever sorts first, which is never what a test means.
    """

    def __init__(self, events: Sequence[Tuple[int, int, int]]) -> None:
        super().__init__()
        self.events: List[Tuple[int, int, int]] = sorted(events)
        previous_end: Optional[int] = None
        for start, duration, bit in self.events:
            if duration <= 0:
                raise ValueError("event duration must be positive")
            if not 0 <= bit < 64:
                raise ValueError("bit must be in [0, 64)")
            if previous_end is not None and start < previous_end:
                raise ValueError(
                    f"fault events overlap: the event at cycle {start} "
                    f"starts before the previous one ends at "
                    f"{previous_end}"
                )
            previous_end = start + duration

    def fault_bit_at(self, cycle: int) -> Optional[int]:
        for start, duration, bit in self.events:
            if start <= cycle < start + duration:
                return bit
            if start > cycle:
                break
        return None


class EnvironmentalFaultModel(FaultModel):
    """Poisson-arriving environmental events of fixed duration Δt."""

    def __init__(
        self,
        rate: float,
        duration: int,
        seed: int = 2001,
        bits: int = 32,
    ) -> None:
        """
        Args:
            rate: expected events per cycle (e.g. ``1e-4``).
            duration: Δt, the cycles an event persists.
            seed: RNG seed (deterministic runs).
            bits: width of the bit-position distribution.
        """
        super().__init__()
        if rate <= 0:
            raise ValueError("rate must be positive")
        if duration <= 0:
            raise ValueError("duration must be positive")
        self.rate = rate
        self.duration = duration
        self._rng = random.Random(seed)
        self._bits = bits
        self._event_start = self._sample_gap(0)
        self._event_bit = self._rng.randrange(bits)

    def _sample_gap(self, now: float) -> float:
        return now + self._rng.expovariate(self.rate)

    def fault_bit_at(self, cycle: int) -> Optional[int]:
        # Advance past expired events.
        while cycle >= self._event_start + self.duration:
            self._event_start = self._sample_gap(
                self._event_start + self.duration
            )
            self._event_bit = self._rng.randrange(self._bits)
        if cycle >= self._event_start:
            return self._event_bit
        return None


class BernoulliFaultModel(FaultModel):
    """Independent per-execution bit flips with fixed probability."""

    def __init__(self, rate: float, seed: int = 2001, bits: int = 32) -> None:
        super().__init__()
        if not 0 <= rate <= 1:
            raise ValueError("rate must be a probability")
        self.rate = rate
        self._rng = random.Random(seed)
        self._bits = bits

    def fault_bit_at(self, cycle: int) -> Optional[int]:
        if self._rng.random() < self.rate:
            return self._rng.randrange(self._bits)
        return None


class PlannedInjector:
    """Corrupts the instructions a plan names, on the functional emulator.

    Pass :attr:`hook` as ``inject`` and :meth:`schedule` as ``schedule``
    to :func:`repro.arch.emulator.emulate`.  The hook flips the planned
    bit by :func:`corrupt_instruction`, and :attr:`log` accrues an
    ``(ordinal, op_name, bit)`` record for each instruction it corrupted.
    """

    def __init__(self, plan: Plan) -> None:
        self.plan = plan
        self.log: List[Tuple[int, str, int]] = []
        self._ordinal = -1
        self._bit = 0

    def schedule(self) -> Iterator[int]:
        # The emulator draws the next ordinal only after the hook has
        # run at the current one, so ``_ordinal`` and ``_bit`` are the
        # due ordinal and its bit.
        for self._ordinal, self._bit in self.plan:
            yield self._ordinal

    def hook(self, dyn: DynInst) -> None:
        if corrupt_instruction(dyn, self._bit):
            self.log.append((self._ordinal, dyn.static.op.name, self._bit))


def corrupt_instruction(dyn: DynInst, bit: int) -> bool:
    """The emulator campaigns' corruption rule: flip one bit of an outcome.

    A store corrupts its data, a conditional branch its direction, and
    anything else its result.  An instruction with none of these
    (``j``, ``putint``, ...) is left as it is, and the call returns
    False; otherwise it returns True.
    """
    static = dyn.static
    if static.is_store:
        dyn.store_value = corrupt_value(dyn.store_value, bit)
    elif static.is_cond_branch:
        dyn.taken = not dyn.taken
    elif dyn.result is not None:
        dyn.result = corrupt_value(dyn.result, bit)
    else:
        return False
    return True


@dataclass(frozen=True)
class BernoulliPlan:
    """Independent per-instruction strikes as a lazy ``(ordinal, bit)`` plan.

    Every eligible emulated instruction (see :mod:`repro.arch.emulator`)
    is struck with probability ``rate``.  The plan replays the draws of
    a per-instruction hook on ``random.Random(seed)``: one ``random()``
    per eligible instruction, then ``randrange(32)`` for the bit of each
    strike.  Ordinals stop at ``limit``, the run's instruction budget,
    so that a plan at ``rate=0`` ends.  Used for silent-data-corruption
    campaigns on a machine *without* REESE (extension C in DESIGN.md).
    """

    rate: float
    seed: int
    limit: int

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        rng = random.Random(self.seed)
        draw = rng.random
        rate = self.rate
        for ordinal in range(self.limit):
            if draw() < rate:
                yield ordinal, rng.randrange(32)
