"""Architectural fault-injection campaigns (extension C in DESIGN.md).

Runs a program repeatedly on the *functional emulator* while injecting
single-bit faults, and classifies each run's architectural outcome —
the classic dependability-benchmarking taxonomy:

=========  =============================================================
masked      a fault struck but the program's outputs and memory match
            the golden run (the error was logically masked);
sdc         silent data corruption: outputs or final memory differ;
crash       the corrupted value caused an architectural exception
            (misaligned access, wild jump) — a detected-by-accident
            failure;
hang        the program exceeded its instruction budget;
clean       no fault struck this run.
=========  =============================================================

This is the "machine without REESE" side of the reproduction's fault
study; the timing-level REESE campaign (detection/recovery) lives in
the pipeline itself via :class:`repro.reese.faults.FaultModel`.

Both campaigns run on one engine.  Each injected run follows a *plan*:
ascending ``(ordinal, bit)`` pairs, where ordinals number the eligible
instructions of the run (every instruction but ``nop`` and ``halt``;
see :mod:`repro.arch.emulator`).  The emulator calls the injection hook
at the planned ordinals only, and the hook corrupts the instruction by
:func:`repro.reese.faults.corrupt_instruction`.  A Bernoulli campaign
plans each run with a :class:`repro.reese.faults.BernoulliPlan`; a site
campaign plans one pair, the ordinal at which the golden run executes
the sampled occurrence of the sampled instruction.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis import AnalysisResult, CLASS_DEAD, CLASSES, analyze_program
from ..arch.emulator import EmulatorError, emulate
from ..arch.memory import MisalignedAccessError
from ..isa.program import Program
from ..reese.faults import BernoulliPlan, Plan, PlannedInjector
from .parallel import parallel_map

#: Outcome labels in severity order.
OUTCOMES = ("clean", "masked", "sdc", "crash", "hang")

#: Outcomes that count as architecturally visible corruption.
VISIBLE_OUTCOMES = ("sdc", "crash", "hang")


@dataclass
class CampaignResult:
    """Aggregated outcome counts of an injection campaign."""

    program_name: str
    runs: int
    rate: float
    outcomes: Counter = field(default_factory=Counter)
    injections: int = 0

    @property
    def sdc_fraction(self) -> float:
        struck = self.runs - self.outcomes["clean"]
        return self.outcomes["sdc"] / struck if struck else 0.0

    def report(self) -> str:
        lines = [
            f"fault campaign on {self.program_name!r}: "
            f"{self.runs} runs, per-instruction rate {self.rate:g}, "
            f"{self.injections} total injections",
        ]
        for outcome in OUTCOMES:
            count = self.outcomes.get(outcome, 0)
            share = count / self.runs if self.runs else 0.0
            lines.append(f"  {outcome:7s} {count:5d} ({share:.0%})")
        return "\n".join(lines)


def _classify(
    program: Program,
    plan: Plan,
    max_instructions: int,
    golden_state: Tuple,
) -> Tuple[str, List[Tuple[int, str, int]]]:
    """One injected emulation: its outcome label and its injection log.

    A run whose plan corrupted nothing is ``clean``.
    """
    injector = PlannedInjector(plan)
    try:
        run = emulate(program, max_instructions=max_instructions,
                      collect_trace=False, inject=injector.hook,
                      schedule=injector.schedule())
    except (MisalignedAccessError, EmulatorError):
        return "crash", injector.log
    if not injector.log:
        return "clean", injector.log
    if not run.halted:
        return "hang", injector.log
    if (run.output, run.memory.snapshot()) == golden_state:
        return "masked", injector.log
    return "sdc", injector.log


def _plans_chunk(payload) -> List[Tuple[str, int]]:
    """Pool worker: ``(outcome, injections)`` of each plan of a chunk."""
    program, max_instructions, golden_state, plans = payload
    out: List[Tuple[str, int]] = []
    for plan in plans:
        outcome, log = _classify(program, plan, max_instructions,
                                 golden_state)
        out.append((outcome, len(log)))
    return out


def _run_plans(
    program: Program,
    plans: Sequence[Plan],
    max_instructions: int,
    golden_state: Tuple,
    jobs: Optional[int],
) -> List[Tuple[str, int]]:
    """``(outcome, injections)`` of every plan, in plan order.

    Every plan is fixed in the parent as a function of the campaign's
    seed, so the results do not depend on ``jobs`` or on chunking.
    """
    payloads = [
        (program, max_instructions, golden_state,
         [plans[i] for i in chunk])
        for chunk in _chunk_indices(len(plans), jobs or 1)
    ]
    return [
        result
        for chunk in parallel_map(_plans_chunk, payloads, jobs)
        for result in chunk
    ]


def run_campaign(
    program: Program,
    runs: int = 50,
    rate: float = 1e-3,
    seed: int = 0,
    max_instructions: int = 200_000,
    jobs: Optional[int] = None,
) -> CampaignResult:
    """Inject faults over ``runs`` emulations and classify outcomes.

    Args:
        program: the workload (must normally halt within the budget).
        runs: number of injected runs.
        rate: per-instruction bit-flip probability.
        seed: base RNG seed; run ``i`` draws its
            :class:`~repro.reese.faults.BernoulliPlan` from ``seed + i``.
        max_instructions: hang-detection budget.
        jobs: worker processes (``None``/``1`` = sequential).  Outcome
            counts are identical for any value.

    Raises:
        ValueError: when ``rate`` is not a probability, or the golden
            run does not halt within ``max_instructions``.
    """
    if not 0 <= rate <= 1:
        raise ValueError("rate must be a probability")
    golden = emulate(program, max_instructions=max_instructions,
                     collect_trace=False)
    if not golden.halted:
        raise ValueError("golden run did not halt; raise max_instructions")
    golden_state = (golden.output, golden.memory.snapshot())

    result = CampaignResult(program.name, runs, rate)
    plans = [BernoulliPlan(rate, seed + run_index, max_instructions)
             for run_index in range(runs)]
    for outcome, injections in _run_plans(program, plans, max_instructions,
                                          golden_state, jobs):
        result.outcomes[outcome] += 1
        result.injections += injections
    return result


# ---------------------------------------------------------------------------
# Site-level campaigns: stratified sampling and the static-analysis oracle.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SiteSample:
    """One planned injection at a classified fault site.

    ``occurrence`` selects which dynamic execution of the static
    instruction is corrupted (0 = the first), ``bit`` which result bit
    flips.  Samples are drawn once, up front, from the run seed — so
    campaign outcomes are independent of worker count and chunking.
    """

    index: int        # static instruction index
    reg: int          # destination register (unified index)
    klass: str        # static prediction: dead / live / control
    occurrence: int
    bit: int


@dataclass(frozen=True)
class MismatchRecord:
    """A dynamic outcome that contradicts the static prediction."""

    program_name: str
    index: int
    reg: int
    klass: str
    occurrence: int
    bit: int
    outcome: str
    instruction: str

    def render(self) -> str:
        return (
            f"{self.program_name}@{self.index} ({self.instruction}): "
            f"{self.klass}-classified site produced {self.outcome!r} "
            f"(occurrence {self.occurrence}, bit {self.bit})"
        )


class OracleMismatch(Exception):
    """A ``dead``-classified fault site produced visible corruption.

    Either the static analysis or the simulator is wrong; the records
    name the exact injections so the disagreement is reproducible.
    """

    def __init__(self, mismatches: Sequence[MismatchRecord]) -> None:
        self.mismatches = list(mismatches)
        lines = [f"{len(self.mismatches)} static-oracle mismatch(es):"]
        lines += [f"  {record.render()}" for record in self.mismatches]
        super().__init__("\n".join(lines))


class ExecutionCounts(Counter):
    """Golden-run executions per static instruction, and their order.

    A Counter of static index -> executions.  ``order`` holds the static
    index of each eligible instruction of the golden run, by ordinal
    (see :mod:`repro.arch.emulator`).
    """

    order: List[int]

    def ordinal(self, index: int, occurrence: int) -> Optional[int]:
        """The ordinal of execution ``occurrence`` (from 0) of ``index``.

        ``None`` when the golden run executes ``index`` fewer times.
        """
        if not 0 <= occurrence < self[index]:
            return None
        position = -1
        for _ in range(occurrence + 1):
            position = self.order.index(index, position + 1)
        return position


def count_site_executions(
    program: Program, max_instructions: int = 200_000
) -> Tuple[Tuple, ExecutionCounts]:
    """Golden run plus per-static-instruction execution counts.

    Returns ``(golden_state, counts)`` where ``golden_state`` is the
    ``(output, memory snapshot)`` pair campaigns compare against.

    Raises:
        ValueError: when the golden run does not halt in budget.
    """
    order: List[int] = []
    record = order.append

    def counting_hook(dyn) -> None:
        record(dyn.static_index)

    golden = emulate(program, max_instructions=max_instructions,
                     collect_trace=False, inject=counting_hook)
    if not golden.halted:
        raise ValueError("golden run did not halt; raise max_instructions")
    counts = ExecutionCounts(order)
    counts.order = order
    return (golden.output, golden.memory.snapshot()), counts


def sample_sites(
    analysis: AnalysisResult,
    exec_counts: Counter,
    runs: int,
    seed: int = 0,
    classes: Optional[Sequence[str]] = None,
) -> List[SiteSample]:
    """Draw a stratified plan of ``runs`` injections.

    The run budget is split across the predicted classes proportionally
    to each class's share of *executed* fault sites (largest-remainder
    rounding; every non-empty class gets at least one sample when the
    budget allows), then sites, occurrences and bits are drawn uniformly
    within each class.  Purely a function of ``(analysis, exec_counts,
    runs, seed)`` — never of worker count.
    """
    wanted = tuple(classes) if classes else CLASSES
    pools: Dict[str, List[Tuple[int, int]]] = {}
    for klass in wanted:
        pool = [
            (index, reg)
            for index, reg in analysis.sites_of(klass)
            if exec_counts.get(index, 0) > 0
        ]
        if pool:
            pools[klass] = pool
    if not pools or runs <= 0:
        return []

    total_sites = sum(len(pool) for pool in pools.values())
    quotas: Dict[str, int] = {}
    remainders: List[Tuple[float, str]] = []
    assigned = 0
    for klass in sorted(pools):
        exact = runs * len(pools[klass]) / total_sites
        quotas[klass] = int(exact)
        assigned += quotas[klass]
        remainders.append((exact - quotas[klass], klass))
    remainders.sort(key=lambda pair: (-pair[0], pair[1]))
    for _, klass in remainders:
        if assigned >= runs:
            break
        quotas[klass] += 1
        assigned += 1
    if runs >= len(pools):
        for klass in sorted(pools):
            if quotas[klass] == 0:
                donor = max(sorted(quotas), key=lambda k: quotas[k])
                if quotas[donor] > 1:
                    quotas[donor] -= 1
                    quotas[klass] = 1

    rng = random.Random(seed)
    samples: List[SiteSample] = []
    for klass in sorted(pools):
        pool = pools[klass]
        for _ in range(quotas[klass]):
            index, reg = pool[rng.randrange(len(pool))]
            occurrence = rng.randrange(exec_counts[index])
            bit = rng.randrange(32)
            samples.append(SiteSample(index, reg, klass, occurrence, bit))
    return samples


def site_plan(counts: ExecutionCounts, sample: SiteSample) -> Plan:
    """The one-injection plan of ``sample``.

    Up to the injection, the run is the golden run, so the sampled
    occurrence falls at the ordinal the golden run gave it.  A plan for
    an occurrence the golden run never reaches is empty.
    """
    ordinal = counts.ordinal(sample.index, sample.occurrence)
    return () if ordinal is None else ((ordinal, sample.bit),)


@dataclass
class SiteCampaignResult:
    """Aggregated outcome of a site-level (oracle) campaign."""

    program_name: str
    runs: int
    seed: int
    #: static prediction -> Counter of dynamic outcomes.
    by_class: Dict[str, Counter] = field(default_factory=dict)
    #: executable fault sites per class (the sampling pool).
    site_pool: Counter = field(default_factory=Counter)
    mismatches: List[MismatchRecord] = field(default_factory=list)
    #: ``dead`` samples settled statically (``skip_dead``), no emulation.
    skipped_dead: int = 0
    #: injected emulations actually performed.
    emulations: int = 0
    analysis_from_cache: bool = False

    @property
    def outcomes(self) -> Counter:
        total: Counter = Counter()
        for counter in self.by_class.values():
            total.update(counter)
        return total

    def visible(self, klass: str) -> int:
        """Architecturally visible corruptions among one class."""
        counter = self.by_class.get(klass, Counter())
        return sum(counter[outcome] for outcome in VISIBLE_OUTCOMES)

    def raise_on_mismatch(self) -> None:
        if self.mismatches:
            raise OracleMismatch(self.mismatches)

    def report(self) -> str:
        lines = [
            f"site campaign on {self.program_name!r}: {self.runs} "
            f"stratified injections, seed {self.seed} "
            f"({self.emulations} emulations, {self.skipped_dead} dead "
            f"sites settled statically; analysis "
            f"{'cached' if self.analysis_from_cache else 'fresh'})",
            f"  site pool: " + ", ".join(
                f"{klass}={self.site_pool.get(klass, 0)}"
                for klass in CLASSES
            ),
        ]
        header = ["class"] + list(OUTCOMES[1:]) + ["visible"]
        lines.append("  " + "  ".join(f"{cell:>7s}" for cell in header))
        for klass in CLASSES:
            counter = self.by_class.get(klass, Counter())
            row = [klass] + [
                str(counter.get(outcome, 0)) for outcome in OUTCOMES[1:]
            ] + [str(self.visible(klass))]
            lines.append("  " + "  ".join(f"{cell:>7s}" for cell in row))
        if self.mismatches:
            lines.append(f"  ORACLE MISMATCHES: {len(self.mismatches)}")
            lines += [f"    {r.render()}" for r in self.mismatches]
        else:
            lines.append("  oracle: 0 mismatches (every dead-classified "
                         "injection was masked)")
        return "\n".join(lines)


def run_site_campaign(
    program: Program,
    runs: int = 60,
    seed: int = 0,
    max_instructions: int = 200_000,
    jobs: Optional[int] = None,
    classes: Optional[Sequence[str]] = None,
    skip_dead: bool = False,
    use_analysis_cache: bool = True,
    analysis_cache_dir: Optional[str] = None,
    strict: bool = False,
) -> SiteCampaignResult:
    """Stratified fault-site campaign cross-checked against the analyzer.

    Each run corrupts one specific ``(instruction, destination
    register)`` site at one dynamic occurrence and classifies the
    architectural outcome; the site's static masking class
    (:func:`repro.analysis.analyze_program`) predicts what is allowed.
    A ``dead``-classified site producing visible corruption is recorded
    as a :class:`MismatchRecord` (and raised as :class:`OracleMismatch`
    when ``strict``).

    Args:
        program: the workload (must halt within ``max_instructions``).
        runs: number of planned injections.
        seed: sampling seed (outcomes are a function of it alone).
        jobs: worker processes; outcomes are worker-count invariant.
        classes: restrict sampling to these classes (default: all).
        skip_dead: settle ``dead`` samples statically as ``masked``
            without emulating them — the campaign-speedup mode (the
            oracle is vacuous for skipped samples).
        use_analysis_cache / analysis_cache_dir: forwarded to
            :func:`analyze_program`.
        strict: raise :class:`OracleMismatch` instead of returning
            mismatches in the result.
    """
    analysis = analyze_program(program, use_cache=use_analysis_cache,
                               cache_dir=analysis_cache_dir)
    golden_state, exec_counts = count_site_executions(
        program, max_instructions
    )
    samples = sample_sites(analysis, exec_counts, runs, seed,
                           classes=classes)

    result = SiteCampaignResult(
        program_name=program.name,
        runs=len(samples),
        seed=seed,
        analysis_from_cache=analysis.from_cache,
    )
    for klass in CLASSES:
        executable = sum(
            1 for index, _reg in analysis.sites_of(klass)
            if exec_counts.get(index, 0) > 0
        )
        if executable:
            result.site_pool[klass] = executable
        result.by_class[klass] = Counter()

    pending: List[SiteSample] = []
    for sample in samples:
        if skip_dead and sample.klass == CLASS_DEAD:
            result.by_class[CLASS_DEAD]["masked"] += 1
            result.skipped_dead += 1
        else:
            pending.append(sample)

    plans = [site_plan(exec_counts, sample) for sample in pending]
    outcomes = _run_plans(program, plans, max_instructions, golden_state,
                          jobs)
    for sample, (outcome, _injections) in zip(pending, outcomes):
        result.by_class[sample.klass][outcome] += 1
        result.emulations += 1
        if sample.klass == CLASS_DEAD and outcome in VISIBLE_OUTCOMES:
            result.mismatches.append(MismatchRecord(
                program_name=program.name,
                index=sample.index,
                reg=sample.reg,
                klass=sample.klass,
                occurrence=sample.occurrence,
                bit=sample.bit,
                outcome=outcome,
                instruction=str(program.code[sample.index]),
            ))
    if strict:
        result.raise_on_mismatch()
    return result


def _chunk_indices(runs: int, jobs: int) -> List[Sequence[int]]:
    """Split ``range(runs)`` into at most ``4 * jobs`` contiguous chunks.

    Over-decomposing (4x) keeps the pool load-balanced when run times
    vary (hangs cost the full instruction budget; crashes return early).
    """
    if runs <= 0:
        return []
    target = max(1, min(runs, 4 * max(1, jobs)))
    size, remainder = divmod(runs, target)
    chunks: List[Sequence[int]] = []
    start = 0
    for index in range(target):
        stop = start + size + (1 if index < remainder else 0)
        chunks.append(range(start, stop))
        start = stop
    return chunks
