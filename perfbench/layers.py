"""Which ``repro`` callables the traced run wraps, and the per-layer
metrics it derives from their spans.

Every target is a name the program looks up at call time — a module
global another module calls through, or a method on a class — so a
wrapper installed there sees every call.  Counts come from what the call
returned; times are self times (see :func:`tracing.self_times`).
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, Iterable, List, Tuple

from repro.harness import campaign, parallel
from repro.reese.faults import NoFaults
from repro.uarch import pipeline, sampling
from repro.workloads import suite

from .tracing import Span, Target, self_times

#: The benchmark's declared metrics; the per-layer (name, unit) pairs
#: are reported in the order ``BENCHMARK.json`` lists them.
BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
PER_LAYER: List[Tuple[str, str]] = [
    (m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]

#: Simulated or campaign counts (and ratios of them): they must repeat
#: exactly between runs at one seed.  Every other per-layer metric is a
#: host time or a rate derived from one.
COUNT_METRICS = [
    "arch.emulated_insts",
    "harness.campaign.emulations",
    "harness.campaign.skipped_dead",
    "harness.campaign.oracle_mismatches",
    "uarch.runs",
    "uarch.cycles.baseline",
    "uarch.cycles.reese",
    "uarch.committed.baseline",
    "uarch.committed.reese",
    "uarch.fetched_wrong_path",
    "reese.issued_r",
    "reese.comparisons",
    "reese.errors_detected",
    "reese.recoveries",
    "reese.same_event_escapes",
    "memhier.l1d_accesses",
    "memhier.l1d_miss_rate",
    "memhier.l2_miss_rate",
    "bpred.lookups",
    "bpred.accuracy",
    "sampling.intervals",
    "harness.cache_hits",
    "harness.cache_misses",
    "harness.cache_bytes",
]


def _emulated(golden_aware: bool):
    def counts(args, kwargs, result) -> Dict[str, Any]:
        out = {"insts": result.instructions}
        if golden_aware:
            out["golden"] = kwargs.get("inject") is None
        return out
    return counts


def _site_campaign(args, kwargs, result) -> Dict[str, Any]:
    return {"emulations": result.emulations,
            "skipped_dead": result.skipped_dead,
            "mismatches": len(result.mismatches)}


def _bernoulli_campaign(args, kwargs, result) -> Dict[str, Any]:
    return {"runs": result.runs}


def _pipeline_run(args, kwargs, stats) -> Dict[str, Any]:
    pipe = args[0]
    cache = stats.cache_stats
    return {
        "reese": pipe.reese_on,
        "faulted": not isinstance(pipe.fault_model, NoFaults),
        "cycles": stats.cycles,
        "committed": stats.committed,
        "fetched_wrong_path": stats.fetched_wrong_path,
        "issued_r": stats.issued_r,
        "comparisons": stats.comparisons,
        "errors_detected": stats.errors_detected,
        "recoveries": stats.recoveries,
        "same_event": stats.errors_undetected_same_event,
        "l1d_accesses": cache["l1d"]["accesses"],
        "l1d_misses": cache["l1d"]["misses"],
        "l2_accesses": cache["l2"]["accesses"],
        "l2_misses": cache["l2"]["misses"],
        "bp_lookups": pipe.predictor.lookups,
        "bp_correct": pipe.predictor.correct,
    }


def _cache_get(args, kwargs, result) -> Dict[str, Any]:
    return {"hit": result is not None}


def _cache_put(args, kwargs, result) -> Dict[str, Any]:
    cache, fingerprint = args[0], args[1]
    try:
        return {"bytes": cache.path_for(fingerprint).stat().st_size}
    except OSError:
        return {"bytes": 0}


def targets() -> List[Target]:
    """Every wrapped name: (owner, attribute, span name, counts)."""
    return [
        (suite.Workload, "build", "workloads.build", None),
        (suite, "emulate", "arch.emulate", _emulated(False)),
        (campaign, "emulate", "arch.emulate", _emulated(True)),
        (campaign, "analyze_program", "analysis.analyze", None),
        (campaign, "count_site_executions", "harness.campaign.golden", None),
        (campaign, "run_site_campaign", "harness.campaign.site",
         _site_campaign),
        (campaign, "run_campaign", "harness.campaign.bernoulli",
         _bernoulli_campaign),
        (pipeline.Pipeline, "run", "uarch.run", _pipeline_run),
        (pipeline, "warm_caches_over", "memhier.warm", None),
        (pipeline, "warm_predictor_over", "bpred.warm", None),
        (parallel, "run_interval", "sampling.interval", None),
        (sampling, "build_warm_state", "sampling.warm_state", None),
        (sampling, "mispredict_profile", "sampling.profile", None),
        (parallel, "mispredict_profile", "sampling.profile", None),
        (parallel, "job_fingerprint", "harness.fingerprint", None),
        (parallel.ResultCache, "get", "harness.cache_get", _cache_get),
        (parallel.ResultCache, "put", "harness.cache_put", _cache_put),
    ]


def _div(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Iterable[Span]) -> Dict[str, float]:
    """Per-layer metrics of one traced phase (all but the two the run loop
    measures itself: ``harness.pool_overhead_s`` and
    ``trace.overhead_frac``)."""
    spans = list(spans)
    own = self_times(spans)
    t: Dict[str, float] = defaultdict(float)   # self seconds
    n: Dict[str, float] = defaultdict(float)   # counts
    for span in spans:
        c = span.counts
        name = span.name
        seconds = own[span.id]
        t[name] += seconds
        if name == "arch.emulate":
            n["insts"] += c.get("insts", 0)
            if c.get("golden"):
                t["golden"] += span.duration
        elif name == "harness.campaign.golden":
            t["golden"] += span.duration
        elif name == "harness.campaign.site":
            n["emulations"] += c.get("emulations", 0)
            n["skipped_dead"] += c.get("skipped_dead", 0)
            n["mismatches"] += c.get("mismatches", 0)
        elif name == "harness.campaign.bernoulli":
            n["emulations"] += c.get("runs", 0)
        elif name == "uarch.run":
            n["runs"] += 1
            if not c:
                continue  # the run raised: time counts, nothing returned
            kind = "reese" if c["reese"] else "baseline"
            t[f"run.{kind}"] += seconds
            if c["faulted"]:
                t["run.faulted"] += seconds
            else:
                t[f"run.{kind}.clean"] += seconds
                n[f"committed.{kind}.clean"] += c["committed"]
            n[f"cycles.{kind}"] += c["cycles"]
            n[f"committed.{kind}"] += c["committed"]
            for key in ("fetched_wrong_path", "issued_r", "comparisons",
                        "errors_detected", "recoveries", "same_event",
                        "l1d_accesses", "l1d_misses", "l2_accesses",
                        "l2_misses", "bp_lookups", "bp_correct"):
                n[key] += c[key]
        elif name == "sampling.interval":
            n["intervals"] += 1
        elif name == "harness.cache_get":
            n["hits" if c.get("hit") else "misses"] += 1
        elif name == "harness.cache_put":
            n["bytes"] += c.get("bytes", 0)

    base_cost = _div(t["run.baseline.clean"], n["committed.baseline.clean"])
    reese_cost = _div(t["run.reese.clean"], n["committed.reese.clean"])
    return {
        "workloads.build_s": t["workloads.build"],
        "arch.emulate_s": t["arch.emulate"],
        "arch.emulated_insts": n["insts"],
        "arch.emulate_kips": _div(n["insts"], t["arch.emulate"]) / 1e3,
        "analysis.analyze_s": t["analysis.analyze"],
        "harness.campaign.golden_s": t["golden"],
        "harness.campaign.emulations": n["emulations"],
        "harness.campaign.skipped_dead": n["skipped_dead"],
        "harness.campaign.oracle_mismatches": n["mismatches"],
        "uarch.run_s.baseline": t["run.baseline"],
        "uarch.run_s.reese": t["run.reese"],
        "uarch.runs": n["runs"],
        "uarch.cycles.baseline": n["cycles.baseline"],
        "uarch.cycles.reese": n["cycles.reese"],
        "uarch.committed.baseline": n["committed.baseline"],
        "uarch.committed.reese": n["committed.reese"],
        "uarch.fetched_wrong_path": n["fetched_wrong_path"],
        "uarch.us_per_cycle.baseline":
            _div(t["run.baseline"], n["cycles.baseline"]) * 1e6,
        "uarch.us_per_cycle.reese":
            _div(t["run.reese"], n["cycles.reese"]) * 1e6,
        "reese.cost_ratio": _div(reese_cost, base_cost),
        "reese.issued_r": n["issued_r"],
        "reese.comparisons": n["comparisons"],
        "reese.faulted_run_s": t["run.faulted"],
        "reese.errors_detected": n["errors_detected"],
        "reese.recoveries": n["recoveries"],
        "reese.same_event_escapes": n["same_event"],
        "memhier.warm_s": t["memhier.warm"],
        "memhier.l1d_accesses": n["l1d_accesses"],
        "memhier.l1d_miss_rate": _div(n["l1d_misses"], n["l1d_accesses"]),
        "memhier.l2_miss_rate": _div(n["l2_misses"], n["l2_accesses"]),
        "bpred.warm_s": t["bpred.warm"],
        "bpred.lookups": n["bp_lookups"],
        "bpred.accuracy": _div(n["bp_correct"], n["bp_lookups"]),
        "sampling.profile_s": t["sampling.profile"],
        "sampling.warm_state_s": t["sampling.warm_state"],
        "sampling.interval_self_s": t["sampling.interval"],
        "sampling.intervals": n["intervals"],
        "harness.fingerprint_s": t["harness.fingerprint"],
        "harness.cache_get_s": t["harness.cache_get"],
        "harness.cache_put_s": t["harness.cache_put"],
        "harness.cache_hits": n["hits"],
        "harness.cache_misses": n["misses"],
        "harness.cache_bytes": n["bytes"],
    }
