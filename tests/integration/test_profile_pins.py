"""Pinned profiler accounts and detection-lag histograms.

The cycle accountant derives its inputs from per-cycle deltas of the
pipeline's ``Stats`` counters, and the detection-lag histograms are
``Stats`` fields.  These literals are the slot/cycle accounts and the
two histograms as the accountant recorded them when it was fed by
direct notes from the stage code, so any drift in how a counter is
read (or where a lag is recorded) shows up here first.  The
cross-check hashes cover every proxy under the same four machines.
"""

import hashlib
import json

import pytest

from repro.harness.runner import run_model
from repro.reese import EnvironmentalFaultModel
from repro.uarch import starting_config
from repro.uarch.sampling import SamplingSpec, run_interval
from repro.workloads.suite import BENCHMARKS, trace_for

SCALE = 2000

PINNED = {
    "baseline": {
        "slots": {
            "fetch_starved": 48, "fu_busy_p": 322, "idle": 23,
            "ifq_empty_mispredict": 2094, "issued_p": 6933, "issued_wp": 587,
            "operands_not_ready": 1808, "ruu_full": 6505,
        },
        "cycles": {
            "active": 2163, "fetch_starved": 1, "ifq_empty_mispredict": 1,
            "operands_not_ready": 125,
        },
        "detect_latency": {},
        "rqueue_residency": {},
    },
    "reese": {
        "slots": {
            "fetch_starved": 13, "fu_busy_p": 77, "fu_busy_r": 9032,
            "idle": 8, "ifq_empty_mispredict": 158, "issued_p": 6933,
            "issued_r": 6933, "issued_wp": 555, "operands_not_ready": 378,
            "r_drain": 18, "ruu_full": 503,
        },
        "cycles": {
            "active": 3072, "fetch_starved": 1, "operands_not_ready": 3,
        },
        "detect_latency": {
            "1": 167, "2": 1100, "3": 364, "4": 239, "5": 366, "6": 531,
            "7": 691, "8": 686, "9": 1233, "10": 605, "11": 312, "12": 467,
            "13": 172,
        },
        "rqueue_residency": {
            "2": 28, "3": 476, "4": 382, "5": 297, "6": 497, "7": 658,
            "8": 871, "9": 793, "10": 1290, "11": 663, "12": 336, "13": 471,
            "14": 172,
        },
    },
    "dispatch_dup": {
        "slots": {
            "fetch_starved": 484, "fu_busy_r": 1493, "idle": 21,
            "ifq_empty_mispredict": 995, "issued_p": 6933, "issued_r": 6933,
            "issued_wp": 132, "operands_not_ready": 5482, "ruu_full": 11335,
        },
        "cycles": {
            "active": 4102, "fetch_starved": 1, "ifq_empty_mispredict": 31,
            "operands_not_ready": 92,
        },
        "detect_latency": {},
        "rqueue_residency": {},
    },
    "reese_env_faults": {
        "slots": {
            "fetch_starved": 20, "fu_busy_p": 104, "fu_busy_r": 8976,
            "idle": 8, "ifq_empty_mispredict": 538, "issued_p": 7096,
            "issued_r": 6989, "issued_wp": 735, "operands_not_ready": 689,
            "r_drain": 18, "recovery": 162, "ruu_full": 641,
        },
        "cycles": {
            "active": 3204, "fetch_starved": 1, "ifq_empty_mispredict": 6,
            "operands_not_ready": 19, "recovery": 17,
        },
        "detect_latency": {
            "1": 276, "2": 1112, "3": 406, "4": 246, "5": 391, "6": 567,
            "7": 635, "8": 621, "9": 1201, "10": 607, "11": 288, "12": 437,
            "13": 179,
        },
        "rqueue_residency": {
            "2": 76, "3": 611, "4": 417, "5": 290, "6": 525, "7": 685,
            "8": 796, "9": 708, "10": 1252, "11": 648, "12": 310, "13": 439,
            "14": 177,
        },
    },
    "sampled_interval": {
        "slots": {
            "fu_busy_p": 3, "fu_busy_r": 145, "issued_p": 121,
            "issued_r": 114, "issued_wp": 7, "operands_not_ready": 5,
            "ruu_full": 5,
        },
        "cycles": {
            "active": 50,
        },
        "detect_latency": {
            "1": 1, "2": 19, "3": 13, "4": 14, "5": 12, "6": 10, "7": 4,
            "8": 5, "9": 15, "10": 5, "11": 11, "12": 12,
        },
        "rqueue_residency": {
            "3": 12, "4": 9, "5": 17, "6": 16, "7": 10, "8": 6, "9": 5,
            "10": 17, "11": 5, "12": 11, "13": 12,
        },
    },
}

#: sha256 of the canonical JSON (sorted keys, no whitespace) of
#: ``[bench, label, slots_total, cycles_total, slots, cycles]`` and of
#: ``[bench, label, detect_latency, rqueue_residency]`` (histograms in
#: ascending lag order) over every proxy x the four machines.
ACCOUNTS_SHA = (
    "3393b8d635f1256fe9326ef36b8ba2aa90b9d9c2946133d790a551e2a63752c0"
)
LATENCY_SHA = (
    "ded8d784dd8a306eeb86c29a754a2ce3942275c416141b6b3c2a82cd3fa60506"
)


def _runs(bench):
    program, trace = trace_for(bench, SCALE)
    base = starting_config()
    machines = [
        ("baseline", base, None),
        ("reese", base.with_reese(), None),
        ("dispatch_dup", base.with_dispatch_dup(), None),
        ("reese_env_faults", base.with_reese(),
         EnvironmentalFaultModel(2e-3, 3)),
    ]
    for label, config, fault_model in machines:
        yield label, run_model(program, trace, config,
                               fault_model=fault_model, profile=True)


def _by_lag(hist):
    return {lag: hist[lag] for lag in sorted(hist, key=int)}


def _sha(rows):
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _observed(stats):
    return {
        "slots": stats.accounting["slots"],
        "cycles": stats.accounting["cycles"],
        "detect_latency": stats.detect_latency,
        "rqueue_residency": stats.rqueue_residency,
    }


@pytest.fixture(scope="module")
def gcc_runs():
    return dict(_runs("gcc"))


class TestPinnedAccounts:
    @pytest.mark.parametrize(
        "label", ["baseline", "reese", "dispatch_dup", "reese_env_faults"]
    )
    def test_full_run(self, gcc_runs, label):
        assert _observed(gcc_runs[label]) == PINNED[label]

    def test_sampled_interval(self):
        program, trace = trace_for("gcc", SCALE)
        stats = run_interval(
            program, trace, starting_config().with_reese(),
            SamplingSpec(4, 120, warmup=30, cooldown=30), 1,
            profile_run=True,
        )
        assert _observed(stats) == PINNED["sampled_interval"]

    def test_every_proxy_matches_the_pinned_hashes(self):
        accounts, latencies = [], []
        for bench in BENCHMARKS:
            for label, stats in _runs(bench):
                account = stats.accounting
                accounts.append([
                    bench, label, account["slots_total"],
                    account["cycles_total"], account["slots"],
                    account["cycles"],
                ])
                latencies.append([
                    bench, label, _by_lag(stats.detect_latency),
                    _by_lag(stats.rqueue_residency),
                ])
        assert _sha(accounts) == ACCOUNTS_SHA
        assert _sha(latencies) == LATENCY_SHA
