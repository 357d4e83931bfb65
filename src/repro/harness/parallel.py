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
* Sampled simulation (:mod:`repro.uarch.sampling`) takes the same
  path.  A :class:`SimJob` whose ``sampling`` spec names a single
  interval (``spec.index`` set) simulates just that measurement window
  — the cacheable unit.  :meth:`ParallelRunner.run` expands a whole
  sampled job (``index=None``) into its interval jobs inside the one
  flat batch (so every interval of every cell shares the pool) and
  merges their Stats back into a
  :class:`~repro.uarch.sampling.SampledResult`.  Interval jobs are
  cached one by one but executed per warm group: the jobs of a group
  run in trace order on one :class:`~repro.uarch.sampling.WarmSweep`,
  which gives each the Stats it would get alone.  The sweep selects
  the group's intervals itself, and the runner caches that selection
  next to the interval Stats, so the parent replays no trace to merge.
* A job whose config only adds units to pools that a held run of the
  same trace (or interval) never exhausted is served that run's Stats
  (:func:`_held_source`): the added units would never have been used.

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

import copy
import dataclasses
import hashlib
import json
import os
import pathlib
import time
import warnings
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, FrozenSet, List, Optional,
                    Sequence, Tuple, TypeVar, Union)

from ..arch.trace import PackedTrace, Records
from ..env import env_flag
from ..reese.faults import (
    BernoulliFaultModel,
    EnvironmentalFaultModel,
    FaultModel,
    ScheduledFaultModel,
)
from ..uarch.config import MachineConfig
from ..uarch.funits import POOL_FIELDS, FUPool
from ..uarch.observe import ObserveConfig
from ..uarch.pipeline import WarmState
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
#: v8: Stats gained ``strikes``; it is 0 in every unfaulted run, and no
#: other field changed.
CACHE_VERSION = 8

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
    #: interval; with ``index=None`` :meth:`ParallelRunner.run` runs its
    #: interval jobs and returns their
    #: :class:`~repro.uarch.sampling.SampledResult`.
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
    #: The config name of the held result the job was served from
    #: (:func:`_held_source`), or ``None`` when it was simulated or
    #: served from the cache.
    served_from: Optional[str] = None


@dataclass
class RunTelemetry:
    """Aggregate outcome of one :meth:`ParallelRunner.run` call."""

    jobs: int
    workers: int
    cache_hits: int
    wall_seconds: float
    records: List[JobRecord] = field(default_factory=list)

    @property
    def reused(self) -> int:
        """Jobs served from a held result of the same process."""
        return sum(record.served_from is not None for record in self.records)

    @property
    def simulated(self) -> int:
        """Jobs that ran a simulation."""
        return self.jobs - self.cache_hits - self.reused

    def summary(self) -> str:
        sim_time = sum(r.elapsed for r in self.records if not r.cached)
        return (
            f"[parallel] {self.jobs} jobs ({self.cache_hits} cache hits, "
            f"{self.simulated} simulated), {self.reused} reused, on "
            f"{self.workers} worker(s); wall {self.wall_seconds:.2f}s, "
            f"sim {sim_time:.2f}s"
        )


def _mp_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (workers inherit already-memoised traces for free)."""
    import multiprocessing  # loaded only by a run that starts a pool

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
    """What a job's interval bounds and warm states depend on.

    The trace (benchmark, scale, resolved seed), ``warm``, the config's
    :data:`~repro.uarch.sampling.WARM_FIELDS` and the sampling spec bar
    ``index`` (``None`` for a full run).  Pending interval jobs with one
    key form a warm group and share one
    :class:`~repro.uarch.sampling.WarmSweep`; warm full runs with one
    key share one warmed state.  Everything else about a job (its other
    config fields, fault, observability) only affects its detailed run.
    """
    sampling = job.sampling and dataclasses.replace(job.sampling,
                                                    index=None)
    return json.dumps(
        [
            job.benchmark, job.scale, job.resolved_seed(), job.warm,
            sampling,
            {name: getattr(job.config, name) for name in WARM_FIELDS},
        ],
        sort_keys=True, default=repr,
    )


#: The warmed state of this process's latest warm full run, under its
#: :func:`warm_key`.  One is held at a time, and dropped before its
#: replacement is built: the runner's jobs are benchmark-major, so the
#: configs of one trace arrive together.
_held_warm: Dict[str, WarmState] = {}

#: The materialized records of this process's latest full run, under
#: its trace key (benchmark, scale, resolved seed); held one at a time
#: like :data:`_held_warm`, so the configs of one trace share them.
_held_records: Dict[Tuple[str, int, int], Records] = {}

#: The simulated results of this process's latest trace (full runs) or
#: sampled interval, under that key (benchmark, scale, resolved seed,
#: sampling spec): per result the job, a copy of its Stats and the
#: :data:`~repro.uarch.funits.POOL_FIELDS` whose pools it never
#: exhausted.  Held one key at a time like :data:`_held_records`.
_held_results: Dict[Tuple[Any, ...], List[Tuple[SimJob, Stats,
                                                FrozenSet[str]]]] = {}


def _reuse_key(job: SimJob) -> Tuple[Any, ...]:
    return job.benchmark, job.scale, job.resolved_seed(), job.sampling


def _hold(job: SimJob, stats: Stats, spare: FrozenSet[str]) -> None:
    """Hold a simulated result that has a never-exhausted pool."""
    if not spare or job.trace_path is not None:
        return
    key = _reuse_key(job)
    held = _held_results.get(key)
    if held is None:
        _held_results.clear()
        held = _held_results[key] = []
    held.append((job, copy.deepcopy(stats), spare))


def _held_source(job: SimJob) -> Optional[Tuple[Stats, str]]:
    """A copy of a held result that is exactly ``job``'s, with the name
    of the config it was simulated on.

    A held job serves ``job`` when the two differ only in the config's
    ``name`` and :data:`~repro.uarch.funits.POOL_FIELDS`, and every
    count that differs is larger in ``job``, in a pool the held run
    never exhausted: the extra units would never have been used.  A
    config equal to a held one is the result cache's to serve, and a
    job with a trace path always runs, because it must write its file.
    """
    if job.trace_path is not None:
        return None
    for held, stats, spare in _held_results.get(_reuse_key(job), ()):
        counts = {name: getattr(held.config, name) for name in POOL_FIELDS}
        grown = [name for name, count in counts.items()
                 if getattr(job.config, name) != count]
        if not grown or any(name not in spare
                            or getattr(job.config, name) < counts[name]
                            for name in grown):
            continue
        config = dataclasses.replace(job.config, name=held.config.name,
                                     **counts)
        if dataclasses.replace(job, config=config) == held:
            return copy.deepcopy(stats), held.config.name
    return None


def _records(job: SimJob, trace: PackedTrace) -> Records:
    """The records of ``job``'s trace, materializing them only when the
    held ones are of another trace."""
    key = (job.benchmark, job.scale, job.resolved_seed())
    records = _held_records.get(key)
    if records is None:
        _held_records.clear()  # before the new records exist
        records = _held_records[key] = trace.records()
    return records


def _warm_state(job: SimJob, program, trace) -> WarmState:
    """A snapshot of ``job``'s warmed state, warming it only when the
    held state is for another trace or warm config."""
    key = warm_key(job)
    state = _held_warm.get(key)
    if state is None:
        _held_warm.clear()  # before the new state exists
        state = WarmState(program, job.config)
        state.warm_full(trace)
        _held_warm[key] = state
    return state.snapshot()


def _simulate(job: SimJob, sweep: Optional[WarmSweep] = None) -> Stats:
    """Simulate one resolved job in this process, and hold its result
    for :func:`_held_source`.

    ``sweep`` is the warm group's shared sweep for an interval job.
    """
    spec = job.sampling
    program, trace = trace_for(job.benchmark, job.scale, job.seed)
    observe = ObserveConfig(
        metrics=job.observe,
        check_invariants=job.check_invariants,
        trace_path=job.trace_path,
        profile=job.profile,
    )
    fault = job.fault.build() if job.fault else None
    pools: List[FUPool] = []
    if spec is not None:
        stats = run_interval(
            program, trace, job.config, spec, spec.index,
            fault_model=fault, warm=job.warm, observe=observe, sweep=sweep,
            pools=pools,
        )
    else:
        warm_state = _warm_state(job, program, trace) if job.warm else None
        stats = run_model(program, _records(job, trace), job.config,
                          fault_model=fault, warm=job.warm, observe=observe,
                          warm_state=warm_state, pools=pools)
    _hold(job, stats, pools[0].never_exhausted())
    return stats


def _warm_groups(jobs: Sequence[SimJob], indices: Sequence[int],
                 workers: int) -> List[List[int]]:
    """Partition ``indices`` into the pool's units of work.

    Interval jobs with one :func:`warm_key` form a warm group, in
    interval (= trace) order; every full run is a unit of its own.
    Units keep the order of their first job.  When there are fewer
    units than ``workers``, each warm group is cut into contiguous runs
    so every worker gets one (each run pays its own warm pass).
    """
    units: List[List[int]] = []
    groups: Dict[str, List[int]] = {}
    for index in indices:
        if jobs[index].sampling is None:
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
) -> Tuple[List[Tuple[Stats, float, Optional[str]]], Optional[Selection],
           int]:
    """Worker entry point: simulate one unit of work; report each job's
    Stats, seconds and the config it was served from (``None`` when it
    was simulated), a warm group's interval selection, and the pid.

    A warm group's jobs share one sweep, which selects the group's
    intervals itself.  Each job is charged the time since the previous
    job finished, so the sweep's shared work (profile, warm pass,
    replay) lands in the jobs' times and they sum to the unit's wall
    time.  A job that a held result serves (:func:`_held_source`) skips
    its simulation; a group's jobs of one interval arrive together, so
    an interval's results serve its later configs.
    """
    mark = time.perf_counter()
    first = group[0]
    sweep = None
    if first.sampling is not None:
        program, trace = trace_for(first.benchmark, first.scale, first.seed)
        sweep = WarmSweep(program, trace, first.config, first.sampling,
                          first.warm)
    out: List[Tuple[Stats, float, Optional[str]]] = []
    for job in group:
        stats, source = _held_source(job) or (_simulate(job, sweep), None)
        now = time.perf_counter()
        out.append((stats, now - mark, source))
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

    def run(
        self, sim_jobs: Sequence[SimJob],
    ) -> List[Union[Stats, SampledResult]]:
        """Run every job; results are returned in input order.

        A full or single-interval job returns its Stats.  A whole
        sampled job (``sampling.index`` is ``None``) runs as its
        interval jobs (:func:`_expand`) in the one flat batch and
        returns their :class:`~repro.uarch.sampling.SampledResult`.
        :attr:`telemetry` holds one record per job of the flat batch.
        """
        start = time.perf_counter()
        sim_jobs = [self.resolve(job) for job in sim_jobs]
        expanded = [_expand(job) for job in sim_jobs]
        batch = [part for parts, _ in expanded for part in parts]
        # Only the cache reads fingerprints: one canonical config dict
        # per distinct config object, and one key per job.
        fingerprints: List[Optional[str]] = [None] * len(batch)
        if self.cache is not None:
            configs: Dict[int, Dict[str, Any]] = {}
            for index, job in enumerate(batch):
                config = configs.get(id(job.config))
                if config is None:
                    config = configs[id(job.config)] = canonical_config(
                        job.config)
                fingerprints[index] = job_fingerprint(job, config)
        results: List[Optional[Stats]] = [None] * len(batch)
        records: List[Optional[JobRecord]] = [None] * len(batch)

        pending: List[int] = []
        for index, (job, fp) in enumerate(zip(batch, fingerprints)):
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

        units = _warm_groups(batch, pending, self.jobs)
        workers = max(1, min(self.jobs, len(units)))
        selections: Dict[str, Selection] = {}  # of the groups that ran
        if units:
            outputs = parallel_map(
                _execute_group,
                [[batch[i] for i in unit] for unit in units],
                workers)
            for unit, (timed, selection, pid) in zip(units, outputs):
                if selection is not None:
                    key = warm_key(batch[unit[0]])
                    if self.cache and key not in selections:
                        self.cache.put_selection(
                            selection_fingerprint(key), selection)
                    selections[key] = selection
                for index, (stats, elapsed, source) in zip(unit, timed):
                    job = batch[index]
                    results[index] = stats
                    records[index] = JobRecord(
                        index, job.benchmark, job.config.name, job.scale,
                        job.resolved_seed(), False, elapsed, pid,
                        stats.cycles, source,
                    )
                    if self.cache:
                        self.cache.put(fingerprints[index], stats)

        out: List[Union[Stats, SampledResult]] = []
        done = iter(results)
        for job, (parts, total) in zip(sim_jobs, expanded):
            chunk = [next(done) for _ in parts]
            out.append(chunk[0] if total is None else
                       SampledResult.from_interval_stats(
                           job.sampling, total, chunk,
                           self._selection(job, selections)))
        self.telemetry = RunTelemetry(
            jobs=len(batch),
            workers=workers if pending else 0,
            cache_hits=len(batch) - len(pending),
            wall_seconds=time.perf_counter() - start,
            records=[record for record in records if record is not None],
        )
        if self.telemetry_path is not None:
            write_job_telemetry(self.telemetry_path, self.telemetry)
        return out

    def _selection(self, job: SimJob, ran: Dict[str, Selection]) -> Selection:
        """The interval selection of a sampled job's warm group: from
        ``ran`` (the groups :meth:`run` executed), else from the cache,
        else — when every interval was served from the cache but the
        selection was not — computed here and cached."""
        key = warm_key(job)
        selection = ran.get(key)
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
        ran[key] = selection
        return selection


def _expand(job: SimJob) -> Tuple[List[SimJob], Optional[int]]:
    """The jobs ``job`` runs as, and its trace length if it is a whole
    sampled job (else ``None``; it runs as itself).

    Interval ``i``'s spec carries ``index=i`` and, for an injected job,
    a per-interval derived fault seed (:func:`interval_fault_spec`);
    the count is :func:`interval_count` of the trace length.  Trace-path
    side effects are dropped: one JSONL destination cannot serve k
    pipelines.
    """
    spec = job.sampling
    if spec is None or spec.index is not None:
        return [job], None
    _, trace = trace_for(job.benchmark, job.scale, job.seed)
    return [
        dataclasses.replace(
            job,
            sampling=dataclasses.replace(spec, index=index),
            fault=interval_fault_spec(job.fault, index) if job.fault else None,
            trace_path=None,
        )
        for index in range(interval_count(len(trace), spec))
    ], len(trace)
