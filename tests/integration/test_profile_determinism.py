"""Worker-count invariance of the profiled accounting payload.

The attribution account and the detection-latency histograms are part
of the Stats payload, so they ride the result cache and feed
golden comparisons.  They must therefore be a pure function of the
job — byte-identical canonical JSON whether the suite ran on one
worker or fanned out over four, fresh or via the cache.
"""

import json

import pytest

from repro.harness.parallel import ParallelRunner, SimJob
from repro.uarch.config import starting_config


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


def _profiled_jobs():
    config = starting_config()
    return [
        SimJob("go", config, 400, profile=True),
        SimJob("go", config.with_reese(), 400, profile=True),
        SimJob("vortex", config.with_reese(), 400, profile=True),
    ]


def _canonical_accounts(jobs_n):
    runner = ParallelRunner(jobs=jobs_n, use_cache=False)
    results = runner.run(_profiled_jobs())
    return [
        json.dumps(
            [stats.accounting, stats.detect_latency, stats.rqueue_residency],
            sort_keys=True,
        )
        for stats in results
    ]


class TestProfileDeterminism:
    def test_accounting_byte_stable_across_worker_counts(self):
        serial = _canonical_accounts(1)
        fanned = _canonical_accounts(4)
        assert serial == fanned

    def test_detection_histograms_populated_for_reese_only(self):
        runner = ParallelRunner(jobs=1, use_cache=False)
        base, reese, _ = runner.run(_profiled_jobs())
        assert base.detect_latency == {} and base.rqueue_residency == {}
        assert reese.detect_latency and reese.rqueue_residency
        # str-keyed: the form that round-trips through the JSON cache.
        for hist in (reese.detect_latency, reese.rqueue_residency):
            assert all(isinstance(lag, str) for lag in hist)

    def test_cache_round_trip_preserves_account(self):
        jobs = _profiled_jobs()[:1]
        fresh = ParallelRunner(jobs=1, use_cache=True).run(jobs)[0]
        cached = ParallelRunner(jobs=1, use_cache=True).run(jobs)[0]
        assert json.dumps(cached.accounting, sort_keys=True) == json.dumps(
            fresh.accounting, sort_keys=True
        )
