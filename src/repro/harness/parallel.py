"""Parallel experiment execution: fan simulation jobs over worker processes.

Every experiment in the reproduction — the figure suites, the
spare-capacity sweep, the fault campaigns — decomposes into independent
``(benchmark, config, seed, fault model)`` simulation jobs.  This module
is the single execution layer they all route through:

* :class:`SimJob` is the one description of a simulation;
  :func:`job_fingerprint` hashes every one of its fields except
  :data:`UNKEYED_FIELDS` (the resolved seed, the full
  :class:`~repro.uarch.config.MachineConfig` contents minus the cosmetic
  ``name``, the fault and sampling specs, the observability flags).
* :class:`ResultCache` persists :class:`~repro.uarch.stats.Stats` under
  ``.repro_cache/`` (override with ``REPRO_CACHE_DIR``) keyed by that
  fingerprint, so re-running a figure after an unrelated code change is
  a cache hit.
* :meth:`ParallelRunner.resolve` is the one step that turns run knobs
  (the runner's CLI-derived flags and the ``REPRO_CHECK_INVARIANTS``
  and ``REPRO_PROFILE`` environment gates) into job fields, before
  fingerprinting — so a gated run never hits an ungated entry.
* :class:`ParallelRunner` executes a job list: cache lookups first, then
  the misses over :func:`parallel_map`'s process pool (in-process when
  one worker suffices), where a dead worker raises
  :class:`WorkerLostError` instead of hanging the run.  Results come
  back in input order and are bit-identical regardless of worker count
  or scheduling, because each job is fully determined by its own
  fields — nothing is sampled from shared state.
  The pool's unit of work is a *warm group* (:func:`warm_key`): the
  pending single-interval sampled jobs that share one functional sweep.
* :class:`RunTelemetry` records per-job timing/outcome for
  :func:`repro.harness.reporting.telemetry_report`.
* Sampled simulation (:mod:`repro.uarch.sampling`) plugs in at two
  granularities.  A :class:`SimJob` whose ``sampling`` spec names a
  single interval (``spec.index`` set) simulates just that measurement
  window — the cacheable unit; one with ``index=None`` runs as its
  interval jobs, in process, as one warm group.  :func:`run_sampled_jobs`
  expands whole sampled jobs into those interval jobs, runs them all in
  one flat batch (so every interval of every cell shares the pool), and
  merges each job's interval Stats back into a
  :class:`~repro.uarch.sampling.SampledResult`.  Interval jobs are
  cached one by one but executed per warm group: the jobs of a group
  run in trace order on one :class:`~repro.uarch.sampling.WarmSweep`,
  which gives each the Stats it would get alone.  The sweep selects
  the group's intervals itself, and the runner caches that selection
  next to the interval Stats, so the parent replays no trace to merge.

Worker lifecycle: each worker process keeps its own module-level
memoised trace cache (:func:`repro.workloads.suite.trace_for`), so a
worker pays trace generation once per ``(benchmark, scale, seed)`` and
amortises it across every config it simulates.  The cache is
LRU-bounded; long-lived workers that sweep many distinct workloads stay
within :data:`repro.workloads.suite.TRACE_CACHE_LIMIT` entries, and
:func:`repro.workloads.suite.clear_trace_cache` drops it entirely
between campaigns.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import pathlib
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..env import env_flag
from ..reese.faults import (
    BernoulliFaultModel,
    EnvironmentalFaultModel,
    FaultModel,
    ScheduledFaultModel,
)
from ..uarch.config import MachineConfig
from ..uarch.observe import ObserveConfig
from ..uarch.sampling import (
    WARM_FIELDS,
    SampledResult,
    SamplingSpec,
    Selection,
    WarmSweep,
    interval_count,
    interval_selection,
    mispredict_profile,
    run_interval,
)
from ..uarch.stats import Stats
from ..workloads.suite import BENCHMARKS, trace_for
from .runner import run_model
from .telemetry import write_job_telemetry

#: Bump to invalidate every on-disk cache entry after a model change.
#: v2: Stats gained ``stage_metrics`` and jobs gained observability
#: fields that change the payload (observed runs populate the registry).
#: v3: jobs gained the ``sampling`` spec (every field of which changes
#: which instructions are simulated), so sampled and full runs — and
#: sampled runs with different specs — never share an entry.
#: v4: Stats gained ``accounting`` and jobs gained the ``profile``
#: flag (profiled runs populate the attribution account).
#: v5: Stats gained the ``detect_latency``/``rqueue_residency``
#: histograms (recorded on every REESE run; the account lost its copies)
#: and lost ``pr_separation_*``, ``rqueue_occ_*``, ``ifq_empty_cycles``
#: and ``stage_metrics["stalls"]``.
#: v6: ``comparisons`` counts a store that waits at commit for a memory
#: port once, not once per cycle it waits (dispatch-dup and duty-cycled
#: REESE runs changed); a baseline measurement window that opens at a
#: store counts that store's port use and D-cache write; and
#: ``stage_metrics`` lost ``fu_issued`` (``Stats.fu_issues`` and
#: ``issued_r`` carry the per-pool and R-stream issue counts).
#: v7: the full-run warm-up zeroes the D-TLB counters with the caches'.
#: Only ``cache_stats["dtlb"]`` (``hits``, ``misses``, ``miss_rate``) of
#: warm full runs changed: it no longer counts the warm pass's accesses.
CACHE_VERSION = 7

#: Default on-disk cache location (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro_cache"

_T = TypeVar("_T")
_R = TypeVar("_R")

_FAULT_KINDS: Dict[str, Callable[..., FaultModel]] = {
    "environmental": EnvironmentalFaultModel,
    "bernoulli": BernoulliFaultModel,
    "scheduled": ScheduledFaultModel,
}


@dataclass(frozen=True)
class FaultSpec:
    """A picklable, fingerprintable description of a fault model.

    Fault models themselves carry live RNG state, so jobs ship this
    spec instead and each worker builds a fresh model — which is also
    what makes injected runs reproducible across worker counts.
    """

    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {sorted(_FAULT_KINDS)}"
            )

    @classmethod
    def make(cls, kind: str, **params: Any) -> "FaultSpec":
        return cls(kind, tuple(sorted(params.items())))

    def build(self) -> FaultModel:
        return _FAULT_KINDS[self.kind](**dict(self.params))


@dataclass(frozen=True)
class SimJob:
    """One simulation: a benchmark on a machine config, optionally faulted."""

    benchmark: str
    config: MachineConfig
    scale: int
    seed: Optional[int] = None
    fault: Optional[FaultSpec] = None
    warm: bool = True
    #: Collect per-stage metrics into ``Stats.stage_metrics``.
    observe: bool = False
    #: Run the pipeline under the runtime invariant checker.
    check_invariants: bool = False
    #: Write the structured event trace to this JSONL path.  Trace
    #: files are a side effect the result cache cannot replay, so jobs
    #: with a trace path always simulate (no cache read).
    trace_path: Optional[str] = None
    #: Sampled simulation (``None`` = full detailed run).  With
    #: ``sampling.index`` set the job simulates that one measurement
    #: interval; with ``index=None`` it runs its interval jobs in
    #: process and returns the merged interval Stats (use
    #: :func:`run_sampled_jobs` to fan intervals over workers and keep
    #: the :class:`~repro.uarch.sampling.SampledResult` estimate).
    sampling: Optional[SamplingSpec] = None
    #: Attach the cycle-accounting profiler: the job's Stats carry the
    #: top-down slot/cycle attribution account and detection-latency
    #: telemetry (``Stats.accounting``).  Sampled jobs profile each
    #: measurement interval and merge the accounts.
    profile: bool = False

    def resolved_seed(self) -> int:
        """The seed actually used (``None`` means the workload default)."""
        if self.seed is not None:
            return self.seed
        return BENCHMARKS[self.benchmark].default_seed


def derive_seed(base: int, *parts: Any) -> int:
    """Derive a per-job seed from a base seed and the job's identity.

    Stable across processes and Python versions (no ``hash()``), so a
    job's RNG stream depends only on what the job *is*, never on which
    worker runs it or in what order.
    """
    text = json.dumps([base, *[str(part) for part in parts]])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


#: SimJob fields left out of :func:`job_fingerprint`.  A trace file is
#: a side effect the result cache cannot replay, so a job with a trace
#: path always simulates and its destination never changes the Stats.
UNKEYED_FIELDS = frozenset({"trace_path"})

_KEYED_FIELDS = tuple(
    spec.name for spec in dataclasses.fields(SimJob)
    if spec.name not in UNKEYED_FIELDS
)


def canonical_config(config: MachineConfig) -> Dict[str, Any]:
    """The keyed contents of a config: every field but the cosmetic
    ``name``."""
    return {name: value for name, value in dataclasses.asdict(config).items()
            if name != "name"}


def job_fingerprint(
    job: SimJob, config: Optional[Dict[str, Any]] = None,
) -> str:
    """Content hash of everything that determines a job's Stats.

    Derived from ``dataclasses.fields(SimJob)``: every field but
    :data:`UNKEYED_FIELDS` is keyed — nested dataclasses (config, fault
    and sampling specs) by their full contents — so a new field is part
    of the key unless it is declared unkeyed.  Two normalisations let
    equal runs share an entry: the seed is the resolved seed, and the
    config's cosmetic ``name`` is dropped.  ``config`` is
    ``canonical_config(job.config)`` when the caller already has it; it
    is read, never changed.
    """
    payload: Dict[str, Any] = {"version": CACHE_VERSION}
    for name in _KEYED_FIELDS:
        value = getattr(job, name)
        if name == "config":
            value = canonical_config(value) if config is None else config
        elif dataclasses.is_dataclass(value):
            value = dataclasses.asdict(value)
        payload[name] = value
    payload["seed"] = job.resolved_seed()
    blob = json.dumps(payload, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()


def selection_fingerprint(key: str) -> str:
    """Cache key of the interval selection of the warm group ``key``
    (:func:`warm_key`)."""
    blob = json.dumps({"version": CACHE_VERSION, "selection": key})
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultCache:
    """On-disk Stats cache keyed by :func:`job_fingerprint`, which also
    holds each warm group's interval
    :class:`~repro.uarch.sampling.Selection` keyed by
    :func:`selection_fingerprint`.

    Entries are JSON files under ``<root>/<fp[:2]>/<fp>.json``; writes
    go through a temp file + ``os.replace`` so concurrent workers never
    expose a torn entry.  Every entry that is not what :meth:`put` (or
    :meth:`put_selection`) writes for the requested fingerprint at this
    :data:`CACHE_VERSION` — unreadable, not a JSON object, another
    version or fingerprint, payload not an object — is a miss.
    """

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = pathlib.Path(
            root
            if root is not None
            else os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
        )
        self._write_warned = False

    def path_for(self, fingerprint: str) -> pathlib.Path:
        return self.root / fingerprint[:2] / f"{fingerprint}.json"

    def _read(self, fingerprint: str, kind: str) -> Optional[Dict[str, Any]]:
        try:
            data = json.loads(self.path_for(fingerprint).read_text())
        except (OSError, ValueError):
            return None
        if (
            not isinstance(data, dict)
            or data.get("version") != CACHE_VERSION
            or data.get("fingerprint") != fingerprint
            or not isinstance(data.get(kind), dict)
        ):
            return None
        return data[kind]

    def get(self, fingerprint: str) -> Optional[Stats]:
        state = self._read(fingerprint, "stats")
        return None if state is None else Stats.from_state_dict(state)

    def put(self, fingerprint: str, stats: Stats) -> None:
        self._write(fingerprint, "stats", stats.state_dict())

    def get_selection(self, fingerprint: str) -> Optional[Selection]:
        state = self._read(fingerprint, "selection")
        if state is None:
            return None
        try:
            return Selection(
                [(int(w0), int(m0), int(end))
                 for w0, m0, end in state["bounds"]],
                state["mispredicts"], state["total_mispredicts"],
            )
        except (KeyError, TypeError, ValueError):
            return None

    def put_selection(self, fingerprint: str, selection: Selection) -> None:
        self._write(fingerprint, "selection", selection._asdict())

    def _write(self, fingerprint: str, kind: str, state: Any) -> None:
        blob = json.dumps(
            {"version": CACHE_VERSION, "fingerprint": fingerprint, kind: state}
        )
        try:
            path = self.path_for(fingerprint)
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_text(blob)
            os.replace(tmp, path)
        except OSError as error:
            # A broken cache must never kill an hour-long sweep: results
            # are already in hand, so degrade to uncached and say so once.
            if not self._write_warned:
                self._write_warned = True
                warnings.warn(
                    f"result cache at {self.root} is not writable "
                    f"({error}); continuing without caching",
                    RuntimeWarning,
                    stacklevel=2,
                )


@dataclass
class JobRecord:
    """Telemetry for one executed (or cache-served) job."""

    index: int
    benchmark: str
    config: str
    scale: int
    seed: int
    cached: bool
    elapsed: float
    worker: int
    #: Simulated cycles of the job's Stats (cache hits report the
    #: cached run's count).  Defaulted so older positional callers
    #: keep constructing records unchanged.
    cycles: int = 0


@dataclass
class RunTelemetry:
    """Aggregate outcome of one :meth:`ParallelRunner.run` call."""

    jobs: int
    workers: int
    cache_hits: int
    wall_seconds: float
    records: List[JobRecord] = field(default_factory=list)

    @property
    def simulated(self) -> int:
        return self.jobs - self.cache_hits

    def summary(self) -> str:
        sim_time = sum(r.elapsed for r in self.records if not r.cached)
        return (
            f"[parallel] {self.jobs} jobs ({self.cache_hits} cache hits, "
            f"{self.simulated} simulated) on {self.workers} worker(s); "
            f"wall {self.wall_seconds:.2f}s, sim {sim_time:.2f}s"
        )


def _mp_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (workers inherit already-memoised traces for free)."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def interval_fault_spec(fault: FaultSpec, index: int) -> FaultSpec:
    """The per-interval FaultSpec of a sampled fault-injection job.

    Fault models carry live RNG streams, so each measurement interval
    gets its own model seeded from ``(base seed, interval index)`` —
    a function of the interval's identity alone, which keeps interval
    jobs order-independent across workers and makes the in-process and
    fanned-out sampled paths draw identical fault sequences.  Specs
    without a ``seed`` parameter (e.g. ``scheduled``) pass through
    unchanged; their cycle offsets are relative to each interval's run.
    """
    params = dict(fault.params)
    if "seed" in params:
        params["seed"] = derive_seed(params["seed"], "interval", index)
    return FaultSpec.make(fault.kind, **params)


def warm_key(job: SimJob) -> str:
    """What a sampled job's interval bounds and warm states depend on.

    The trace (benchmark, scale, resolved seed), ``warm``, the config's
    :data:`~repro.uarch.sampling.WARM_FIELDS` and the sampling spec bar
    ``index``.  Pending interval jobs with one key form a warm group
    and share one :class:`~repro.uarch.sampling.WarmSweep`; everything
    else about a job (its other config fields, fault, observability)
    only affects its detailed window.
    """
    return json.dumps(
        [
            job.benchmark, job.scale, job.resolved_seed(), job.warm,
            dataclasses.replace(job.sampling, index=None),
            {name: getattr(job.config, name) for name in WARM_FIELDS},
        ],
        sort_keys=True, default=repr,
    )


def _simulate(job: SimJob, sweep: Optional[WarmSweep] = None) -> Stats:
    """Simulate one resolved job in this process.

    ``sweep`` is the warm group's shared sweep for an interval job.
    """
    spec = job.sampling
    program, trace = trace_for(job.benchmark, job.scale, job.seed)
    if spec is not None and spec.index is None:
        sweep = WarmSweep(program, trace, job.config, spec, job.warm)
        interval_jobs = _interval_jobs(job, interval_count(len(trace), spec))
        return sweep.result([
            _simulate(interval_job, sweep) for interval_job in interval_jobs
        ]).stats
    observe = ObserveConfig(
        metrics=job.observe,
        check_invariants=job.check_invariants,
        trace_path=job.trace_path,
        profile=job.profile,
    )
    fault = job.fault.build() if job.fault else None
    if spec is not None:
        return run_interval(
            program, trace, job.config, spec, spec.index,
            fault_model=fault, warm=job.warm, observe=observe, sweep=sweep,
        )
    return run_model(program, trace, job.config, fault_model=fault,
                     warm=job.warm, observe=observe)


def _warm_groups(jobs: Sequence[SimJob], indices: Sequence[int],
                 workers: int) -> List[List[int]]:
    """Partition ``indices`` into the pool's units of work.

    Single-interval sampled jobs with one :func:`warm_key` form a warm
    group, in interval (= trace) order; every other job is a unit of
    its own.  Units keep the order of their first job.  When there are
    fewer units than ``workers``, each warm group is cut into
    contiguous runs so every worker gets one (each run pays its own
    warm pass).
    """
    units: List[List[int]] = []
    groups: Dict[str, List[int]] = {}
    for index in indices:
        spec = jobs[index].sampling
        if spec is None or spec.index is None:
            units.append([index])
            continue
        key = warm_key(jobs[index])
        if key not in groups:
            groups[key] = []
            units.append(groups[key])
        groups[key].append(index)
    for group in groups.values():
        group.sort(key=lambda index: jobs[index].sampling.index)
    if not units or len(units) >= workers:
        return units
    parts = -(-workers // len(units))
    split: List[List[int]] = []
    for unit in units:
        size = -(-len(unit) // parts)
        split.extend(unit[i:i + size] for i in range(0, len(unit), size))
    return split


def _execute_group(
    group: Sequence[SimJob],
) -> Tuple[List[Tuple[Stats, float]], Optional[Selection], int]:
    """Worker entry point: simulate one unit of work; report each job's
    Stats and seconds, a warm group's interval selection, and the pid.

    A warm group's jobs share one sweep, which selects the group's
    intervals itself.  Each job is charged the time since the previous
    job finished, so the sweep's shared work (profile, warm pass,
    replay) lands in the jobs' times and they sum to the unit's wall
    time.
    """
    mark = time.perf_counter()
    first = group[0]
    sweep = None
    if first.sampling is not None and first.sampling.index is not None:
        program, trace = trace_for(first.benchmark, first.scale, first.seed)
        sweep = WarmSweep(program, trace, first.config, first.sampling,
                          first.warm)
    out: List[Tuple[Stats, float]] = []
    for job in group:
        stats = _simulate(job, sweep)
        now = time.perf_counter()
        out.append((stats, now - mark))
        mark = now
    return out, sweep.selection if sweep else None, os.getpid()


class WorkerLostError(RuntimeError):
    """A pool worker died, and with it chunk ``index`` (the first lost)."""

    def __init__(self, index: int, total: int) -> None:
        super().__init__(f"a pool worker died; chunk {index} of {total} lost")
        self.index = index
        self.total = total

    def __reduce__(self):
        return type(self), (self.index, self.total)


def parallel_map(
    fn: Callable[[_T], _R],
    items: Sequence[_T],
    jobs: Optional[int] = None,
) -> List[_R]:
    """Order-preserving pool map; runs in-process when one worker suffices.

    ``fn`` must be a picklable module-level callable.  Used by the
    fault-campaign driver and by :class:`ParallelRunner`; figure/sweep
    work should go through the runner to get caching and telemetry.
    A worker that dies raises :class:`WorkerLostError`.
    """
    items = list(items)
    workers = min(jobs or (os.cpu_count() or 1), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import process  # 1.4 MB: load when needed
    results: List[_R] = []
    # Batches as multiprocessing.Pool.map cuts them, about four per
    # worker: consecutive items (the runner's benchmark-major jobs) then
    # share a worker and its memoised traces.
    chunksize = -(-len(items) // (4 * workers))
    pool = process.ProcessPoolExecutor(workers, mp_context=_mp_context())
    with pool:
        try:
            results.extend(pool.map(fn, items, chunksize=chunksize))
        except process.BrokenProcessPool as error:
            raise WorkerLostError(len(results), len(items)) from error
    return results


class ParallelRunner:
    """Execute SimJobs over a worker pool with an on-disk result cache.

    Args:
        jobs: worker-process count; ``None`` means all cores.
        use_cache: consult/populate the on-disk result cache.
        cache_dir: cache location (default ``REPRO_CACHE_DIR`` or
            ``.repro_cache``).
        observe: collect per-stage metrics for every job.
        check_invariants: run every job under the runtime invariant
            checker.
        profile: attach the cycle-accounting profiler to every job.
        telemetry_path: after every :meth:`run`, write the per-job
            records as an atomic JSONL file at this path (see
            :mod:`repro.harness.telemetry`).

    The three flags, like the environment gates, are folded into each
    job by :meth:`resolve`.  After each :meth:`run`, :attr:`telemetry`
    holds the :class:`RunTelemetry` for that call.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        use_cache: bool = True,
        cache_dir: Optional[os.PathLike] = None,
        observe: bool = False,
        check_invariants: bool = False,
        profile: bool = False,
        telemetry_path: Optional[os.PathLike] = None,
    ) -> None:
        self.jobs = max(1, int(jobs)) if jobs else (os.cpu_count() or 1)
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_dir) if use_cache else None
        )
        self.observe = observe
        self.check_invariants = check_invariants
        self.profile = profile
        self.telemetry_path = telemetry_path
        self.telemetry: Optional[RunTelemetry] = None
        #: :func:`warm_key` to the interval selection of every warm
        #: group the latest :meth:`run` executed.
        self.selections: Dict[str, Selection] = {}

    def resolve(self, job: SimJob) -> SimJob:
        """The one step that turns run knobs into job fields.

        Folds the runner's flags and the ``REPRO_CHECK_INVARIANTS`` and
        ``REPRO_PROFILE`` environment gates into the job before it is
        fingerprinted, so the cache key always says what a run
        collected.  The invariant gate skips fault-injected jobs, which
        commit corrupted values on purpose.
        """
        return dataclasses.replace(
            job,
            observe=job.observe or self.observe,
            check_invariants=(
                job.check_invariants
                or self.check_invariants
                or (job.fault is None
                    and env_flag("REPRO_CHECK_INVARIANTS"))
            ),
            profile=(job.profile or self.profile
                     or env_flag("REPRO_PROFILE")),
        )

    def run(self, sim_jobs: Sequence[SimJob]) -> List[Stats]:
        """Run every job; results are returned in input order.

        Each warm group that runs reports its interval selection, which
        lands in :attr:`selections` and, with the Stats, in the cache.
        """
        start = time.perf_counter()
        sim_jobs = [self.resolve(job) for job in sim_jobs]
        # One canonical config dict per distinct config object.
        configs: Dict[int, Dict[str, Any]] = {}
        fingerprints = []
        for job in sim_jobs:
            config = configs.get(id(job.config))
            if config is None:
                config = configs[id(job.config)] = canonical_config(job.config)
            fingerprints.append(job_fingerprint(job, config))
        results: List[Optional[Stats]] = [None] * len(sim_jobs)
        records: List[Optional[JobRecord]] = [None] * len(sim_jobs)

        pending: List[int] = []
        for index, (job, fp) in enumerate(zip(sim_jobs, fingerprints)):
            # A job that writes a trace file must actually run — a cache
            # hit would return the Stats but silently skip the trace.
            servable = self.cache is not None and job.trace_path is None
            cached = self.cache.get(fp) if servable else None
            if cached is not None:
                results[index] = cached
                records[index] = JobRecord(
                    index, job.benchmark, job.config.name, job.scale,
                    job.resolved_seed(), True, 0.0, os.getpid(),
                    cached.cycles,
                )
            else:
                pending.append(index)

        units = _warm_groups(sim_jobs, pending, self.jobs)
        workers = max(1, min(self.jobs, len(units)))
        self.selections = {}
        if units:
            outputs = parallel_map(
                _execute_group,
                [[sim_jobs[i] for i in unit] for unit in units],
                workers)
            for unit, (timed, selection, pid) in zip(units, outputs):
                if selection is not None:
                    key = warm_key(sim_jobs[unit[0]])
                    if self.cache and key not in self.selections:
                        self.cache.put_selection(
                            selection_fingerprint(key), selection)
                    self.selections[key] = selection
                for index, (stats, elapsed) in zip(unit, timed):
                    job = sim_jobs[index]
                    results[index] = stats
                    records[index] = JobRecord(
                        index, job.benchmark, job.config.name, job.scale,
                        job.resolved_seed(), False, elapsed, pid,
                        stats.cycles,
                    )
                    if self.cache:
                        self.cache.put(fingerprints[index], stats)

        self.telemetry = RunTelemetry(
            jobs=len(sim_jobs),
            workers=workers if pending else 0,
            cache_hits=len(sim_jobs) - len(pending),
            wall_seconds=time.perf_counter() - start,
            records=[record for record in records if record is not None],
        )
        if self.telemetry_path is not None:
            write_job_telemetry(self.telemetry_path, self.telemetry)
        return [stats for stats in results if stats is not None]

    def selection(self, job: SimJob) -> Selection:
        """The interval selection of a sampled job's warm group.

        From the latest :meth:`run`, else from the cache, else — when
        every interval was served from the cache but the selection was
        not — computed here and cached.
        """
        key = warm_key(job)
        selection = self.selections.get(key)
        if selection is not None:
            return selection
        fingerprint = selection_fingerprint(key)
        if self.cache:
            selection = self.cache.get_selection(fingerprint)
        if selection is None:
            program, trace = trace_for(job.benchmark, job.scale, job.seed)
            selection = interval_selection(program, trace, job.config,
                                           job.sampling, mispredict_profile)
            if self.cache:
                self.cache.put_selection(fingerprint, selection)
        self.selections[key] = selection
        return selection


def _interval_jobs(job: SimJob, count: int) -> List[SimJob]:
    """The first ``count`` interval jobs of a whole sampled job."""
    return [
        dataclasses.replace(
            job,
            sampling=dataclasses.replace(job.sampling, index=index),
            fault=interval_fault_spec(job.fault, index) if job.fault else None,
            trace_path=None,
        )
        for index in range(count)
    ]


def expand_sampled_job(job: SimJob) -> Tuple[List[SimJob], int]:
    """Interval-level SimJobs for one sampled job, plus its trace length.

    Returns ``(interval_jobs, trace_length)`` where ``interval_jobs[i]``
    simulates measurement interval ``i`` (its spec carries ``index=i``
    and, for injected jobs, a per-interval derived fault seed).  The
    interval count is a function of the trace length and the spec
    alone (:func:`~repro.uarch.sampling.interval_count`); the length is
    a property of the generated workload, not of ``scale`` (traces stop
    at program halt or continue past ``scale`` to a clean boundary),
    and the merge needs it too.

    Trace-path side effects are dropped from interval jobs: one JSONL
    destination cannot serve k concurrent pipelines.
    """
    spec = job.sampling
    if spec is None:
        raise ValueError("expand_sampled_job needs a job with a sampling spec")
    if spec.index is not None:
        raise ValueError("job is already a single-interval job "
                         f"(index={spec.index})")
    _, trace = trace_for(job.benchmark, job.scale, job.seed)
    return _interval_jobs(job, interval_count(len(trace), spec)), len(trace)


def run_sampled_jobs(
    sim_jobs: Sequence[SimJob],
    runner: ParallelRunner,
) -> List[SampledResult]:
    """Run sampled jobs with interval-level parallelism.

    Expands every job into its per-interval SimJobs, executes them all
    as one flat batch — so the pool balances the warm groups of *all*
    cells, not one cell at a time — and merges each job's interval
    Stats into a :class:`~repro.uarch.sampling.SampledResult` (point
    estimate plus confidence interval) with its warm group's interval
    selection (:meth:`ParallelRunner.selection`: from the group's unit,
    which computed it, or from the cache).  Interval jobs are cached
    individually, so re-running with a different grouping, job order or
    worker count is a pure cache hit, and results are bit-identical to
    :func:`~repro.uarch.sampling.run_sampled` in process.
    """
    expanded = [expand_sampled_job(job) for job in sim_jobs]
    flat = [ij for interval_jobs, _ in expanded for ij in interval_jobs]
    all_stats = runner.run(flat)
    results: List[SampledResult] = []
    cursor = 0
    for job, (interval_jobs, total) in zip(sim_jobs, expanded):
        chunk = all_stats[cursor:cursor + len(interval_jobs)]
        cursor += len(interval_jobs)
        results.append(SampledResult.from_interval_stats(
            job.sampling, total, chunk, runner.selection(job)))
    return results
