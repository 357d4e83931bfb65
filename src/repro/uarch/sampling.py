"""Sampled + fast-forward simulation (SMARTS-style systematic sampling).

The paper's results come from 100 M-instruction SimpleScalar runs; the
detailed cycle-level :class:`~repro.uarch.pipeline.Pipeline` makes
anything past ~10⁵ instructions per configuration impractical in
Python.  This module trades a statistically controlled amount of
detail for wall clock: split the dynamic trace into ``k`` evenly
spaced **measurement intervals** of ``U`` instructions, run *only*
those intervals (plus small detailed warm-up and drain-padding
windows) through the detailed pipeline, and **functionally
fast-forward** between them on the structures a full run warms
(:class:`~repro.uarch.pipeline.WarmState`: cache touch plus the
fetch-time predictors, trained as fetch trains them).

Design (mirrors SMARTS / RepTFD's checkpoint-and-replay split):

* **Interval selection** (``placement="profile"``, the default) works
  on the grid of contiguous ``U``-instruction windows.  A cheap
  functional control-flow pass (:func:`mispredict_profile`) replays
  the fetch-time predictors over the whole trace — the pipeline trains
  them at fetch with trace ground truth, so mispredict events are a
  *pure trace property*, reproduced exactly — and the selector picks
  the median window of each of ``k`` mispredict-density quantiles.
  That guarantees the sample spans the workload's fast and slow phases
  (an interpreter's dispatch storms, a compiler's quiet stretches)
  instead of hoping stratified-random placement hits them.  ``"random"``
  (seeded, stratified per segment) and ``"end"`` (classic systematic)
  placements remain available.  Requesting coverage ≥ the whole trace
  degenerates to a contiguous partition — full detailed simulation.
* **IPC estimation** under profile placement is a regression (control
  variate) estimator rather than the raw sample ratio: per-window
  cycles fit ``cycles ≈ a·instructions + b·mispredicts`` almost
  perfectly (R² > 0.99 on every suite workload — branch recovery
  dominates what varies between windows), and both regressor totals
  are known *exactly* for the full trace, so total cycles extrapolate
  as ``a·N + b·M``.  Workloads whose per-window IPC is bimodal (the
  ``li`` interpreter: slow phases are 50 % of cycles in 25 % of
  instructions) defeat plain ratio estimates at small ``k`` — the
  regression estimator holds them to ≲2 % error at ``k=15``.  When the
  mispredict spread is too small to identify ``b`` the estimator falls
  back to the ratio automatically.
* **Warm state** for a detailed window starting at ``w`` is a
  deterministic fold: (1) the full-trace architectural warm pass
  (:meth:`WarmState.warm_full`, the one ``warm=True`` full runs make —
  the paper's caches run warm) then (2) a functional replay of the
  prefix ``[0, w)`` (:meth:`WarmState.advance`).  The fold
  depends only on ``(trace, config, w)`` — and of the config only on
  :data:`WARM_FIELDS` — and is associative over trace prefixes.  A
  :class:`WarmSweep` exploits both: the intervals of one *warm group*
  (jobs that agree on the trace, ``WARM_FIELDS``, ``warm`` and the
  spec bar ``index``) share one interval selection (one mispredict
  profile), one warm pass and one replay that advances through their
  starts in trace order, and
  each interval still gets **bit-identical Stats** to a from-scratch
  fold — the property the jobs-invariance tests pin, whichever
  intervals a group holds.  Snapshots use the model classes' cheap
  ``clone_state`` methods, not ``copy.deepcopy``.
* **Detailed warm-up and drain padding** bound the two truncation
  biases of short intervals.  The pipeline runs ``warmup`` extra
  instructions before the measured region and resets every statistic
  when the first measured instruction commits (``measure_from``), so
  measurement starts on a full, busy machine rather than an empty one;
  it keeps fetching ``cooldown`` successor instructions past the
  region but terminates at the last measured commit (``stop_after``),
  so the interval tail overlaps with younger work exactly as it would
  mid-run instead of draining into an artificial void (REESE's
  R-stream queue makes that drain expensive, which would bias its
  sampled IPC low).
* **Interval traces are slices**: a record's trace position is its
  index in the trace the pipeline runs on (commit bookkeeping,
  recovery refetch), so each detailed window runs on a plain slice of
  the trace, its records the trace's own.  The pipeline never writes
  to its trace records, so every interval of every job of a warm group
  runs on the records the trace holds.
* **Statistics**: per-interval :class:`~repro.uarch.stats.Stats` merge
  through :meth:`Stats.merge` into a whole-run view (the headline IPC
  is committed/cycles over all measured windows), and the sampler also
  reports the mean of per-interval IPCs with a CLT confidence
  interval — the SMARTS-style point estimate ± error bound.

Baseline, dispatch-duplication and REESE configurations all sample
identically: the engine is a driver around ``Pipeline``, not a model
change.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Tuple

from ..arch.trace import Records, Trace, packed
from ..reese.faults import FaultModel
from .config import MachineConfig
from .funits import FUPool
from .observe import ObserveConfig, build_observability
from .pipeline import Pipeline, WarmState
from .stats import Stats

#: Two-sided 95 % normal quantile for the CLT confidence interval.
Z_95 = 1.96

#: The :class:`MachineConfig` fields a warm state depends on: the memory
#: hierarchy the functional replay warms and the direction predictor,
#: BTB and return-address stack it trains — which also decide the
#: mispredict profile that places profile-sampled intervals.  Two
#: configs that agree on these fields share every interval's bounds
#: and warm state.
WARM_FIELDS = ("mem", "predictor", "predictor_kwargs", "btb_entries",
               "ras_depth")

#: An interval: (warm_start, measure_start, end) trace positions.
#: Detailed simulation covers ``[warm_start, end + cooldown)``;
#: statistics cover ``[measure_start, end)``.
IntervalBounds = Tuple[int, int, int]


@dataclass(frozen=True)
class SamplingSpec:
    """How to sample one workload trace.

    Attributes:
        intervals: number of measurement intervals ``k``.
        interval_length: measured instructions per interval ``U``.
        warmup: detailed warm-up instructions run through the pipeline
            ahead of each measured region and excluded from its Stats
            (the pipeline-fill transient; functional fast-forward
            already handles caches and predictor).
        cooldown: successor instructions kept in flight past the
            measured region so its tail overlaps younger work; they
            execute but never commit.
        placement: how measurement intervals are chosen.
            ``"profile"`` (default) picks the median window of each
            mispredict-density quantile on the ``U``-window grid and
            estimates IPC by regression against the exact trace-wide
            mispredict total (see module docstring) — deterministic
            given ``(trace, config, spec)``.  ``"random"`` draws a
            seeded uniform offset per equal segment — stratified random
            sampling, immune to aliasing against periodic workloads.
            ``"end"`` is classic systematic placement at segment ends.
        seed: RNG seed for ``"random"`` placement; the same
            ``(total, spec)`` always selects the same intervals, on any
            worker.  Unused (but still part of the cache fingerprint)
            for the deterministic placements.
        index: restrict execution to one interval (used by the
            harness's interval-level job fan-out); ``None`` runs all.
    """

    intervals: int
    interval_length: int = 300
    warmup: int = 50
    cooldown: int = 50
    placement: str = "profile"
    seed: int = 12345
    index: Optional[int] = None

    def __post_init__(self) -> None:
        if self.intervals <= 0:
            raise ValueError("intervals must be positive")
        if self.interval_length <= 0:
            raise ValueError("interval_length must be positive")
        if self.warmup < 0:
            raise ValueError("warmup must be non-negative")
        if self.cooldown < 0:
            raise ValueError("cooldown must be non-negative")
        if self.placement not in ("profile", "random", "end"):
            raise ValueError(
                "placement must be 'profile', 'random' or 'end', "
                f"not {self.placement!r}"
            )
        if self.index is not None and not 0 <= self.index < self.intervals:
            raise ValueError(
                f"index {self.index} outside [0, {self.intervals})"
            )


def mispredict_profile(program, trace: Trace, config: MachineConfig) -> List[int]:
    """Prefix sums of fetch-time branch mispredictions over ``trace``.

    Replays :meth:`WarmState.predict_next`, the policy the pipeline's
    fetch stage predicts with, over the whole trace on a fresh state.
    Because the timing models train the predictors at fetch with the
    trace's ground truth (oracle update timing, DESIGN.md §5), the
    sequence of mispredict events is independent of pipeline timing —
    this pass reproduces the detailed simulator's total misprediction
    count exactly, at functional-replay speed.

    Returns ``pre`` with ``len(trace) + 1`` entries; mispredictions in
    ``trace[i:j]`` are ``pre[j] - pre[i]``.
    """
    trace = packed(trace)
    statics = trace.statics
    predict_next = WarmState(program, config).predict_next
    pre = [0] * (len(trace) + 1)
    acc = 0
    for i, (idx, taken, target) in enumerate(trace.rows(), 1):
        static = statics[idx]
        if static.is_branch:
            # The successor: a conditional branch falls through when
            # not taken; every other control transfer goes to its target.
            actual = target if taken or not static.is_cond_branch else idx + 1
            if predict_next(static, taken, target) != actual:
                acc += 1
        pre[i] = acc
    return pre


def _window_grid(total: int, length: int) -> List[Tuple[int, int]]:
    """The contiguous ``length``-instruction window grid over a trace."""
    return [
        (start, min(start + length, total))
        for start in range(0, total, length)
    ]


def select_intervals(
    total: int,
    spec: SamplingSpec,
    profile: Optional[List[int]] = None,
) -> List[IntervalBounds]:
    """Measurement intervals over a trace of ``total`` instructions.

    ``"profile"`` placement ranks the contiguous ``U``-window grid by
    exact mispredict density (``profile`` must be the prefix sums from
    :func:`mispredict_profile`) and takes the median window of each of
    ``k`` density quantiles, returned in trace order.  ``"end"`` and
    ``"random"`` split the trace into ``k`` equal segments and place
    one window per segment (at the end, or at a seeded uniform
    offset).  When the requested coverage meets or exceeds the trace,
    every placement degenerates to the contiguous partition — full
    detailed simulation.

    Deterministic: the same ``(total, spec, profile)`` always yields
    the same intervals, on any worker.
    """
    if total <= 0:
        return []
    k, length = spec.intervals, spec.interval_length
    if k * length >= total:
        return [
            (start, start, end) for start, end in _window_grid(total, length)
        ]
    if spec.placement == "profile":
        if profile is None:
            raise ValueError(
                "placement 'profile' needs the mispredict_profile prefix sums"
            )
        grid = _window_grid(total, length)
        windows = len(grid)
        order = sorted(
            range(windows),
            key=lambda w: (profile[grid[w][1]] - profile[grid[w][0]], w),
        )
        picks = sorted(
            order[(((i * windows) // k) + (((i + 1) * windows) // k)) // 2]
            for i in range(k)
        )
        bounds: List[IntervalBounds] = []
        previous_end = 0
        for w in picks:
            measure_start, end = grid[w]
            warm_start = max(measure_start - spec.warmup, previous_end)
            bounds.append((warm_start, measure_start, end))
            previous_end = end
        return bounds
    rng = (
        random.Random(spec.seed * 1_000_003 + total)
        if spec.placement == "random"
        else None
    )
    bounds = []
    previous_end = 0
    for i in range(k):
        segment_end = ((i + 1) * total) // k
        if rng is None:
            measure_start = max(segment_end - length, previous_end)
        else:
            lo = max((i * total) // k, previous_end)
            hi = segment_end - length
            measure_start = rng.randint(lo, hi) if hi > lo else lo
        end = min(measure_start + length, segment_end)
        warm_start = max(measure_start - spec.warmup, previous_end)
        bounds.append((warm_start, measure_start, end))
        previous_end = end
    return bounds


def interval_count(total: int, spec: SamplingSpec) -> int:
    """How many intervals :func:`select_intervals` returns for a trace of
    ``total`` instructions — known without the mispredict profile."""
    if total <= 0:
        return 0
    if spec.intervals * spec.interval_length >= total:
        return -(-total // spec.interval_length)
    return spec.intervals


class Selection(NamedTuple):
    """A warm group's measurement intervals and their regressor data.

    ``bounds`` are the intervals in trace order.  Under profile
    placement ``mispredicts`` holds the exact mispredict count of each
    measured region and ``total_mispredicts`` the trace-wide count (the
    regression estimator's inputs); otherwise both are ``None``.
    """

    bounds: List[IntervalBounds]
    mispredicts: Optional[List[int]] = None
    total_mispredicts: Optional[int] = None


def interval_selection(
    program,
    trace: Trace,
    config: MachineConfig,
    spec: SamplingSpec,
    profiler: Optional[Callable[..., List[int]]] = None,
) -> Selection:
    """The :class:`Selection` of ``spec`` (bar ``index``) over ``trace``.

    A pure function of the trace, ``spec`` and the config's
    :data:`WARM_FIELDS`.  ``profiler`` computes the mispredict prefix
    sums (default :func:`mispredict_profile`); the whole-trace profile
    lives only for the length of this call.
    """
    if spec.placement != "profile":
        return Selection(select_intervals(len(trace), spec))
    profile = (profiler or mispredict_profile)(program, trace, config)
    bounds = select_intervals(len(trace), spec, profile)
    return Selection(
        bounds,
        [profile[end] - profile[m0] for _, m0, end in bounds],
        profile[-1],
    )


class WarmSweep:
    """The work the intervals of one warm group share.

    Selects the intervals once (:func:`interval_selection` of ``spec``,
    whose ``index`` it ignores) and keeps one live :class:`WarmState`
    that :func:`build_warm_state` advances through the group's interval
    starts in trace order.  Every job of the group may pass its own
    ``config``: only :data:`WARM_FIELDS` reach the sweep, and those the
    group agrees on.  The sweep keeps the trace packed and materializes
    only the windows its intervals run (:meth:`window`).
    """

    __slots__ = ("program", "trace", "config", "spec", "warm", "selection",
                 "state", "position", "_window")

    def __init__(
        self,
        program,
        trace: Trace,
        config: MachineConfig,
        spec: SamplingSpec,
        warm: bool = True,
    ) -> None:
        self.program = program
        self.trace = trace = packed(trace)
        self.config = config
        self.spec = spec
        self.warm = warm
        self.selection = interval_selection(program, trace, config, spec)
        #: The live fold (built by the first :func:`build_warm_state`)
        #: and the trace position its replay has reached.
        self.state: Optional[WarmState] = None
        self.position = 0
        self._window: Optional[Tuple[Tuple[int, int], Records]] = None

    def window(self, start: int, stop: int) -> Records:
        """The records of trace positions ``[start, stop)``.

        The latest window is held, so the group's jobs of one interval
        (its configs, which arrive together) share one materialization;
        the pipeline never writes its records.
        """
        if self._window is None or self._window[0] != (start, stop):
            self._window = ((start, stop), self.trace.records(start, stop))
        return self._window[1]


def build_warm_state(sweep: WarmSweep, start: int) -> WarmState:
    """Warm state for a detailed window starting at ``start``.

    The first call on a sweep runs the full-trace warm pass (when
    ``sweep.warm``); every call then replays only the trace since the
    previous call's start and snapshots the result.  Because the fold
    is associative over trace prefixes, each snapshot equals the state
    a fresh sweep builds for ``start`` alone — so ``start`` may not lie
    behind an earlier call's.
    """
    if start < sweep.position:
        raise ValueError(
            f"warm sweep is at {sweep.position}, past start {start}"
        )
    state = sweep.state
    if state is None:
        state = sweep.state = WarmState(sweep.program, sweep.config)
        if sweep.warm:
            state.warm_full(sweep.trace)
    state.advance(sweep.trace, sweep.position, start)
    sweep.position = start
    return state.snapshot()


@dataclass
class SampledResult:
    """Outcome of one sampled simulation.

    ``stats`` is the merged whole-run view (counters summed over the
    measured intervals); ``interval_stats`` keeps the per-interval
    Stats for the statistics below and for callers that want the raw
    points.  When the run used profile placement,
    ``interval_mispredicts`` / ``total_mispredicts`` carry the exact
    regressor data the regression estimator needs (see module
    docstring); otherwise they are ``None`` and the estimate is the
    plain measured ratio.
    """

    spec: SamplingSpec
    total_instructions: int
    intervals: List[IntervalBounds]
    interval_stats: List[Stats]
    interval_mispredicts: Optional[List[int]] = None
    total_mispredicts: Optional[int] = None
    stats: Stats = field(init=False)

    def __post_init__(self) -> None:
        self.stats = Stats.merged(self.interval_stats)

    # -- point estimate and error bound ---------------------------------

    def _regression(self) -> Optional[Tuple[float, float]]:
        """(estimated total cycles, 95 % CI half-width on them).

        Fits ``cycles = a·committed + b·mispredicts`` over the sampled
        windows (no intercept) and extrapolates with the exact
        trace-wide totals.  Returns None when regressor data is absent
        or the mispredict spread cannot identify ``b`` — callers fall
        back to the ratio estimate.
        """
        if self.interval_mispredicts is None or self.total_mispredicts is None:
            return None
        if self.measured_instructions >= self.total_instructions:
            return None  # full coverage: the measured ratio is exact
        rows = [
            (stats.committed, mispred, stats.cycles)
            for stats, mispred in zip(
                self.interval_stats, self.interval_mispredicts
            )
        ]
        k = len(rows)
        if k < 2:
            return None
        mean_x = sum(x for _, x, _ in rows) / k
        var_x = sum((x - mean_x) ** 2 for _, x, _ in rows) / k
        if var_x < 1e-9:
            return None
        s_nn = sum(n * n for n, _, _ in rows)
        s_xx = sum(x * x for _, x, _ in rows)
        s_xn = sum(n * x for n, x, _ in rows)
        s_ny = sum(n * y for n, _, y in rows)
        s_xy = sum(x * y for _, x, y in rows)
        det = s_nn * s_xx - s_xn * s_xn
        if det <= 0:
            return None
        a = (s_xx * s_ny - s_xn * s_xy) / det
        b = (s_nn * s_xy - s_xn * s_ny) / det
        total_n = self.total_instructions
        total_x = self.total_mispredicts
        cycles = a * total_n + b * total_x
        if b < 0 or cycles <= 0:
            return None  # unphysical fit: mispredicts cannot save cycles
        if k > 2:
            rss = sum((y - a * n - b * x) ** 2 for n, x, y in rows)
            sigma2 = rss / (k - 2)
            var_cycles = (
                sigma2
                * (
                    total_n * total_n * s_xx
                    - 2 * total_n * total_x * s_xn
                    + total_x * total_x * s_nn
                )
                / det
            )
            ci = Z_95 * math.sqrt(max(var_cycles, 0.0))
        else:
            ci = 0.0
        return cycles, ci

    @property
    def estimated_cycles(self) -> float:
        """Estimated total cycles for the full trace.

        Regression extrapolation when regressor data is available,
        otherwise the measured-ratio extrapolation
        ``measured_cycles · N / measured_instructions``.
        """
        fit = self._regression()
        if fit is not None:
            return fit[0]
        measured = self.measured_instructions
        if not measured:
            return 0.0
        return self.stats.cycles * self.total_instructions / measured

    @property
    def ipc(self) -> float:
        """Estimated full-trace IPC.

        ``N / estimated_cycles`` under the regression estimator; the
        instruction-weighted measured ratio otherwise (the two coincide
        when sampling degenerates to a contiguous partition).
        """
        fit = self._regression()
        if fit is not None:
            return self.total_instructions / fit[0]
        return self.stats.ipc

    @property
    def interval_ipcs(self) -> List[float]:
        return [stats.ipc for stats in self.interval_stats]

    @property
    def ipc_mean(self) -> float:
        """Mean of per-interval IPCs (the SMARTS point estimate)."""
        ipcs = self.interval_ipcs
        return sum(ipcs) / len(ipcs) if ipcs else 0.0

    @property
    def ipc_std(self) -> float:
        """Sample standard deviation of per-interval IPCs."""
        ipcs = self.interval_ipcs
        if len(ipcs) < 2:
            return 0.0
        mean = self.ipc_mean
        return math.sqrt(
            sum((x - mean) ** 2 for x in ipcs) / (len(ipcs) - 1)
        )

    @property
    def ipc_ci(self) -> float:
        """95 % confidence-interval half-width on :attr:`ipc`.

        Under the regression estimator this propagates the fit's
        prediction variance through ``IPC = N / cycles`` (delta
        method); otherwise it is the CLT half-width on the mean of
        per-interval IPCs.
        """
        fit = self._regression()
        if fit is not None:
            cycles, cycles_ci = fit
            return self.total_instructions / (cycles * cycles) * cycles_ci
        ipcs = self.interval_ipcs
        if len(ipcs) < 2:
            return 0.0
        return Z_95 * self.ipc_std / math.sqrt(len(ipcs))

    @property
    def measured_instructions(self) -> int:
        return sum(end - m0 for _, m0, end in self.intervals)

    @property
    def detail_fraction(self) -> float:
        """Fraction of the trace measured through the detailed pipeline.

        Excludes warm-up/cooldown padding — see
        :attr:`simulated_fraction` for the cost-side view.
        """
        if not self.total_instructions:
            return 0.0
        return self.measured_instructions / self.total_instructions

    @property
    def simulated_fraction(self) -> float:
        """Fraction of the trace that entered the detailed pipeline at
        all (measured regions plus warm-up and drain padding) — the
        detailed-simulation cost of the run."""
        if not self.total_instructions:
            return 0.0
        simulated = sum(
            min(end + self.spec.cooldown, self.total_instructions) - w0
            for w0, _, end in self.intervals
        )
        return simulated / self.total_instructions

    def summary(self) -> str:
        estimator = (
            "regression" if self._regression() is not None else "ratio"
        )
        return (
            f"sampled {len(self.intervals)}x"
            f"{self.spec.interval_length} of {self.total_instructions} "
            f"insts ({self.detail_fraction:.1%} measured, {estimator}): "
            f"IPC {self.ipc:.3f} ± {self.ipc_ci:.3f}"
        )

    @classmethod
    def from_interval_stats(
        cls,
        spec: SamplingSpec,
        total_instructions: int,
        interval_stats: List[Stats],
        selection: Selection,
    ) -> "SampledResult":
        """A result from one Stats per interval of ``selection`` (the
        warm group's :func:`interval_selection`), in interval order.

        The one merge of :func:`run_sampled` and of the harness's
        interval jobs.
        """
        if len(interval_stats) != len(selection.bounds):
            raise ValueError(
                f"expected {len(selection.bounds)} interval Stats, "
                f"got {len(interval_stats)}"
            )
        return cls(
            spec, total_instructions, list(selection.bounds), interval_stats,
            selection.mispredicts, selection.total_mispredicts,
        )


def run_interval(
    program,
    trace: Trace,
    config: MachineConfig,
    spec: SamplingSpec,
    index: int,
    fault_model: Optional[FaultModel] = None,
    warm: bool = True,
    observe: Optional[ObserveConfig] = None,
    sweep: Optional[WarmSweep] = None,
    pools: Optional[List[FUPool]] = None,
) -> Stats:
    """Detailed simulation of one measurement interval.

    Without ``sweep`` the call builds its own, so it depends only on
    its arguments — what makes interval-level jobs safe to fan out over
    workers in any order.  A warm group passes its shared ``sweep``
    instead and runs its intervals in trace order; the Stats are
    bit-identical either way.

    Args:
        observe: the observers to attach; with ``profile`` the
            interval's Stats carry a slot/cycle attribution account
            covering exactly the measured window (the accountant
            resets with every other counter at ``measure_from``).
        sweep: the warm group's :class:`WarmSweep`, built from this
            trace, ``spec`` (bar ``index``) and ``warm``.
        pools: when given, the run's :class:`~repro.uarch.funits.FUPool`
            is appended to it (as :func:`repro.harness.runner.run_model`
            does).
    """
    if sweep is None:
        sweep = WarmSweep(program, trace, config, spec, warm)
    warm_start, measure_start, end = sweep.selection.bounds[index]
    state = build_warm_state(sweep, warm_start)
    pipeline = Pipeline(
        program,
        sweep.window(warm_start, end + spec.cooldown),
        config,
        fault_model=fault_model,
        observers=build_observability(observe),
        warm_state=state,
        measure_from=measure_start - warm_start,
        stop_after=end - 1 - warm_start,
    )
    if pools is not None:
        pools.append(pipeline.fupool)
    return pipeline.run()


def run_sampled(
    program,
    trace: Trace,
    config: MachineConfig,
    spec: SamplingSpec,
    warm: bool = True,
    observe: Optional[ObserveConfig] = None,
) -> SampledResult:
    """Sampled simulation of one workload, in process.

    Runs every interval as one warm group: a single
    :class:`WarmSweep` selects the intervals, warms once and
    fast-forwards through the trace, snapshotting at each window
    start — so warming cost is paid once per run rather than once per
    interval.  The sweep only ever sees the functional replay, never
    the detailed runs' cache/predictor side effects, so each interval's
    Stats equal a from-scratch :func:`run_interval`.

    The run is fault-free; a faulted interval takes its own fault model
    through :func:`run_interval`.

    Args:
        warm: apply the full-trace warm pass first (the ``warm=True``
            semantics of the full-run path).
        observe: the observers to attach, fresh ones to every
            interval.  With ``profile`` the aggregate view's attribution
            account is the sum of the per-interval accounts
            (``Stats.merge``), under which the completeness identities
            survive because each interval satisfies them individually.
    """
    sweep = WarmSweep(program, trace, config, spec, warm)
    return SampledResult.from_interval_stats(spec, len(sweep.trace), [
        run_interval(
            program, trace, config, spec, index,
            warm=warm, observe=observe, sweep=sweep,
        )
        for index in range(len(sweep.selection.bounds))
    ], sweep.selection)
