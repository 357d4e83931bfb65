"""Simulation statistics.

A plain attribute bag with integer counters incremented from the hot
loop (attribute store on a ``__slots__`` object is the cheapest thing
Python offers short of locals), plus derived metrics and a reporting
dict.  The headline metric throughout the paper is **committed IPC** —
committed *P-stream* instructions per cycle; REESE's R-stream
executions are accounted separately and never inflate IPC.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional


def _merge_cache_level(
    into: Dict[str, float], other: Dict[str, Any]
) -> None:
    """Merge one cache/TLB stat block: sum counts, recompute rates."""
    for key, value in other.items():
        if key.endswith("rate"):
            continue
        if isinstance(value, (int, float)):
            into[key] = into.get(key, 0) + value
    accesses = into.get("accesses", into.get("hits", 0) + into.get("misses", 0))
    if "misses" in into:
        into["miss_rate"] = into["misses"] / accesses if accesses else 0.0


def _merge_stage_metrics(
    into: Dict[str, Any], other: Dict[str, Any]
) -> Dict[str, Any]:
    """Merge two ``Stats.stage_metrics`` registries.

    Tolerant of empty/missing pieces: entries written by cache versions
    that predate a field (or runs where only one side was observed)
    merge as if the absent piece were zero.
    """
    if not other:
        return into
    if not into:
        return {key: _copy_json(value) for key, value in other.items()}
    into["schema"] = max(into.get("schema", 0), other.get("schema", 0))
    into["cycles_sampled"] = (
        into.get("cycles_sampled", 0) + other.get("cycles_sampled", 0)
    )
    occupancy = into.setdefault("occupancy", {})
    for structure, hist in other.get("occupancy", {}).items():
        merged = occupancy.setdefault(structure, {})
        for bin_key, count in hist.items():
            merged[bin_key] = merged.get(bin_key, 0) + count
    return into


def _copy_json(value: Any) -> Any:
    """Deep copy of a JSON-shaped value (dicts/lists/scalars)."""
    if isinstance(value, dict):
        return {key: _copy_json(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_copy_json(item) for item in value]
    return value


def merge_accounting(
    into: Dict[str, Any], other: Dict[str, Any]
) -> Dict[str, Any]:
    """Merge two cycle accounts (``Stats.accounting``, laid out by
    :mod:`repro.uarch.accounting`): the sampled-interval aggregation path.

    Mirrors the tolerance rules of the other ``Stats`` registry merges:
    either side may be empty or written by an older schema; missing
    pieces merge as zero.
    """
    if not other:
        return into
    if not into:
        return _copy_account(other)
    into["schema"] = max(into.get("schema", 0), other.get("schema", 0))
    into["width"] = max(into.get("width", 0), other.get("width", 0))
    into["cycles_total"] = (
        into.get("cycles_total", 0) + other.get("cycles_total", 0)
    )
    into["slots_total"] = (
        into.get("slots_total", 0) + other.get("slots_total", 0)
    )
    for field in ("slots", "cycles"):
        merged = into.setdefault(field, {})
        for key, count in other.get(field, {}).items():
            merged[key] = merged.get(key, 0) + count
    return into


def _copy_account(account: Dict[str, Any]) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for key, value in account.items():
        out[key] = dict(value) if isinstance(value, dict) else value
    return out


def hist_count(hist: Dict[Any, int]) -> int:
    """Total observation count of a lag histogram."""
    return sum(hist.values())


def hist_mean(hist: Dict[Any, int]) -> float:
    """Mean value of a ``{value: count}`` histogram (0.0 when empty)."""
    total = 0
    weight = 0
    for lag, count in hist.items():
        total += int(lag) * count
        weight += count
    return total / weight if weight else 0.0


def hist_percentile(hist: Dict[Any, int], q: float) -> int:
    """The smallest lag at or below which ``q`` of observations fall.

    Nearest-rank percentile over integer lags; 0 for an empty
    histogram.  ``q`` is a fraction (0.5 for p50, 0.99 for p99).
    """
    weight = sum(hist.values())
    if not weight:
        return 0
    rank = max(1, int(-(-weight * q // 1)))  # ceil without floats drift
    seen = 0
    for lag in sorted(hist, key=int):
        seen += hist[lag]
        if seen >= rank:
            return int(lag)
    return int(max((int(lag) for lag in hist), default=0))


def hist_max(hist: Dict[Any, int]) -> int:
    """Largest observed lag (0 when empty)."""
    return max((int(lag) for lag in hist), default=0)


class Stats:
    """Counters for one simulation run."""

    #: Counters combined by summation when merging interval Stats (and
    #: zeroed when a measurement window opens).
    _SUM_FIELDS = (
        "cycles", "committed", "fetched", "fetched_wrong_path",
        "dispatched", "dispatched_wrong_path", "issued",
        "issued_wrong_path", "issued_r", "squashed", "branches",
        "cond_branches", "mispredictions", "loads", "stores",
        "load_forwards", "ruu_full_events", "lsq_full_events",
        "rqueue_full_events", "rqueue_moves", "r_skipped_duty",
        "comparisons", "errors_detected", "errors_undetected_same_event",
        "sdc_commits", "recoveries",
    )

    __slots__ = _SUM_FIELDS + (
        "unrecoverable",
        "halted",
        "bpred_accuracy",
        "fu_issues",
        "cache_stats",
        "detect_latency",
        "rqueue_residency",
        "stage_metrics",
        "accounting",
    )

    def __init__(self) -> None:
        for name in self._SUM_FIELDS:
            setattr(self, name, 0)
        self.unrecoverable = False
        self.halted = False
        self.bpred_accuracy = 0.0
        self.fu_issues: Dict[str, int] = {}
        self.cache_stats: Dict[str, Dict[str, float]] = {}
        #: REESE lag histograms ``{str(lag): count}`` (str keys survive
        #: the JSON cache): R-queue insertion -> R completion, the §2
        #: P->R separation (``detect_latency``), and insertion -> final
        #: commit (``rqueue_residency``).  Empty unless REESE ran.
        self.detect_latency: Dict[str, int] = {}
        self.rqueue_residency: Dict[str, int] = {}
        #: Per-stage metrics registry (occupancy histograms, P/R FU
        #: split) — populated only when the run was
        #: observed (``repro.uarch.observers.StageMetrics``), empty
        #: otherwise.  JSON-serialisable by construction, so it rides
        #: the on-disk result cache with every other counter.
        self.stage_metrics: Dict[str, Any] = {}
        #: Top-down cycle/slot attribution account — populated only
        #: when the run was profiled
        #: (:class:`repro.uarch.accounting.CycleAccountant`), empty
        #: otherwise.  JSON-serialisable; rides the result cache.
        self.accounting: Dict[str, Any] = {}

    # -- derived metrics -------------------------------------------------

    @property
    def ipc(self) -> float:
        """Committed P-stream instructions per cycle."""
        return self.committed / self.cycles if self.cycles else 0.0

    @property
    def misprediction_rate(self) -> float:
        return (
            self.mispredictions / self.cond_branches
            if self.cond_branches
            else 0.0
        )

    @property
    def mean_pr_separation(self) -> float:
        """Mean cycles between queue insertion and R-execution completion.

        The paper's §2 detection condition: an environmental event of
        duration Δt escapes exactly when the P and R executions both
        fall inside it, so this separation is the machine's effective
        coverage window (events shorter than it are always caught).
        The mean of the :attr:`detect_latency` histogram.
        """
        return hist_mean(self.detect_latency)

    def detection_latency(self) -> Dict[str, Dict[str, float]]:
        """mean/p50/p99/max of the REESE detection-latency telemetry.

        Summarises the two lag histograms (``detect_latency``: queue
        insertion -> R-verify; ``rqueue_residency``: queue insertion ->
        final commit).  All zeros when the run was not REESE.
        """
        out: Dict[str, Dict[str, float]] = {}
        for field in self._HIST_FIELDS:
            hist = getattr(self, field)
            out[field] = {
                "count": hist_count(hist),
                "mean": hist_mean(hist),
                "p50": hist_percentile(hist, 0.50),
                "p99": hist_percentile(hist, 0.99),
                "max": hist_max(hist),
            }
        return out

    # -- aggregation (the sampled-simulation merge path) -----------------

    #: ``{key: count}`` histograms combined by key-wise summation.
    _HIST_FIELDS = ("detect_latency", "rqueue_residency")

    def merge(self, other: "Stats") -> "Stats":
        """Fold another run's counters into this one, in place.

        This is the aggregation path of the sampled-simulation engine
        (:mod:`repro.uarch.sampling`): per-interval Stats merge into one
        whole-run view.  Counters and histograms sum,
        ``unrecoverable`` ORs, ``halted`` ANDs (the merged run finished
        only if every interval did), predictor accuracy is weighted by
        conditional-branch count, and the nested registries
        (``fu_issues``, ``cache_stats``, ``stage_metrics`` histograms)
        merge key-wise — tolerating entries from older cache versions
        that lack newer fields.

        Returns ``self`` so reductions can chain.
        """
        own_weight = self.cond_branches
        other_weight = other.cond_branches
        total_weight = own_weight + other_weight
        if total_weight:
            self.bpred_accuracy = (
                self.bpred_accuracy * own_weight
                + other.bpred_accuracy * other_weight
            ) / total_weight
        for name in self._SUM_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for name in self._HIST_FIELDS:
            hist = getattr(self, name)
            for key, count in (getattr(other, name) or {}).items():
                hist[key] = hist.get(key, 0) + count
        self.unrecoverable = self.unrecoverable or other.unrecoverable
        self.halted = self.halted and other.halted
        for unit, count in (other.fu_issues or {}).items():
            self.fu_issues[unit] = self.fu_issues.get(unit, 0) + count
        for level, block in (other.cache_stats or {}).items():
            _merge_cache_level(self.cache_stats.setdefault(level, {}), block)
        self.stage_metrics = _merge_stage_metrics(
            self.stage_metrics, other.stage_metrics or {}
        )
        self.accounting = merge_accounting(
            self.accounting, other.accounting or {}
        )
        return self

    @classmethod
    def merged(cls, runs: Iterable["Stats"]) -> "Stats":
        """A fresh Stats holding the merge of every run in ``runs``."""
        total = cls()
        total.halted = True  # identity for the AND fold; empty input: True
        for stats in runs:
            total.merge(stats)
        return total

    def state_dict(self) -> Dict[str, Any]:
        """Raw counter state only — the JSON-serialisable cache payload."""
        return {name: getattr(self, name) for name in self.__slots__}

    @classmethod
    def from_state_dict(cls, state: Dict[str, Any]) -> "Stats":
        """Rebuild a Stats from :meth:`state_dict` (or :meth:`to_dict`).

        Tolerant by design — this is what loads on-disk result-cache
        entries, which may have been written by an older code version:
        unknown keys (e.g. the derived metrics ``to_dict`` adds) are
        ignored, missing counters keep their zero defaults, and a
        ``None`` where a registry dict belongs (``fu_issues``,
        ``cache_stats``, ``stage_metrics``) loads as empty instead of
        poisoning later ``merge()`` calls with ``KeyError``/
        ``TypeError``.
        """
        stats = cls()
        for name in cls.__slots__:
            if name in state and state[name] is not None:
                setattr(stats, name, state[name])
        return stats

    def to_dict(self) -> Dict[str, Any]:
        """Flat reporting dict with counters and derived metrics."""
        out: Dict[str, Any] = self.state_dict()
        out["ipc"] = self.ipc
        out["misprediction_rate"] = self.misprediction_rate
        out["mean_pr_separation"] = self.mean_pr_separation
        return out

    def summary(self) -> str:
        """A short human-readable summary line."""
        parts = [
            f"cycles={self.cycles}",
            f"committed={self.committed}",
            f"IPC={self.ipc:.3f}",
            f"mispred={self.misprediction_rate:.1%}",
        ]
        if self.issued_r:
            parts.append(f"R-issued={self.issued_r}")
        if self.errors_detected:
            parts.append(f"detected={self.errors_detected}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"<Stats {self.summary()}>"
