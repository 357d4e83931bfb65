"""Harness wiring of the sampled simulation engine.

Covers the interval-level SimJob fan-out, cache fingerprinting of
sampling parameters, per-interval fault-seed derivation and the
figure/sweep sampled entry points.
"""

import dataclasses

import pytest

from repro.harness.experiments import figure2_spec, run_figure
from repro.harness.parallel import (
    CACHE_VERSION,
    FaultSpec,
    ParallelRunner,
    SimJob,
    expand_sampled_job,
    interval_fault_spec,
    job_fingerprint,
    run_sampled_jobs,
)
from repro.harness.runner import run_sampled_benchmark
from repro.harness.sweep import run_sweep
from repro.uarch import SampledResult, SamplingSpec, run_sampled
from repro.uarch.config import starting_config
from repro.workloads.suite import trace_for

SCALE = 2000
SPEC = SamplingSpec(4, 120, warmup=30, cooldown=30)


@pytest.fixture
def runner(tmp_path):
    return ParallelRunner(jobs=1, cache_dir=tmp_path)


class TestFingerprint:
    def test_cache_version_covers_sampling(self):
        assert CACHE_VERSION >= 3

    def test_sampled_and_full_jobs_never_share_entries(self):
        cfg = starting_config()
        full = SimJob("li", cfg, SCALE)
        sampled = SimJob("li", cfg, SCALE, sampling=SPEC)
        assert job_fingerprint(full) != job_fingerprint(sampled)

    def test_every_spec_field_changes_the_fingerprint(self):
        cfg = starting_config()
        base = job_fingerprint(SimJob("li", cfg, SCALE, sampling=SPEC))
        for variant in (
            dataclasses.replace(SPEC, intervals=5),
            dataclasses.replace(SPEC, interval_length=150),
            dataclasses.replace(SPEC, warmup=31),
            dataclasses.replace(SPEC, cooldown=31),
            dataclasses.replace(SPEC, placement="end"),
            dataclasses.replace(SPEC, seed=99),
            dataclasses.replace(SPEC, index=0),
        ):
            other = job_fingerprint(SimJob("li", cfg, SCALE,
                                           sampling=variant))
            assert other != base, variant

    def test_interval_jobs_have_distinct_fingerprints(self):
        cfg = starting_config()
        fps = {
            job_fingerprint(
                SimJob("li", cfg, SCALE,
                       sampling=dataclasses.replace(SPEC, index=i))
            )
            for i in range(SPEC.intervals)
        }
        assert len(fps) == SPEC.intervals


class TestExpansion:
    def test_requires_sampling_spec(self):
        with pytest.raises(ValueError, match="sampling spec"):
            expand_sampled_job(SimJob("li", starting_config(), SCALE))

    def test_rejects_already_indexed_job(self):
        job = SimJob("li", starting_config(), SCALE,
                     sampling=dataclasses.replace(SPEC, index=1))
        with pytest.raises(ValueError, match="single-interval"):
            expand_sampled_job(job)

    def test_expands_one_job_per_interval(self):
        job = SimJob("li", starting_config(), SCALE, sampling=SPEC,
                     trace_path="out.jsonl")
        interval_jobs, total, profile = expand_sampled_job(job)
        _, trace = trace_for("li", SCALE)
        assert total == len(trace)
        assert profile is not None and len(profile) == total + 1
        assert [ij.sampling.index for ij in interval_jobs] == \
            list(range(len(interval_jobs)))
        # Trace-path side effects cannot be split across k pipelines.
        assert all(ij.trace_path is None for ij in interval_jobs)

    def test_injected_jobs_get_per_interval_seeds(self):
        fault = FaultSpec.make("environmental", rate=1e-4, duration=3,
                               seed=11)
        job = SimJob("li", starting_config(), SCALE, fault=fault,
                     sampling=SPEC)
        interval_jobs, _, _ = expand_sampled_job(job)
        seeds = {dict(ij.fault.params)["seed"] for ij in interval_jobs}
        assert len(seeds) == len(interval_jobs)


class TestIntervalFaultSpec:
    def test_deterministic_per_index(self):
        fault = FaultSpec.make("bernoulli", rate=1e-3, seed=5)
        assert interval_fault_spec(fault, 2) == interval_fault_spec(fault, 2)
        assert interval_fault_spec(fault, 2) != interval_fault_spec(fault, 3)

    def test_seedless_spec_passes_through(self):
        fault = FaultSpec.make("scheduled", events=((10, 2, 3),))
        assert interval_fault_spec(fault, 4) == fault


class TestRunSampledJobs:
    def test_matches_in_process_run_sampled(self, runner):
        cfg = starting_config().with_reese()
        job = SimJob("li", cfg, SCALE, sampling=SPEC)
        [result] = run_sampled_jobs([job], runner)
        program, trace = trace_for("li", SCALE)
        # The runner folds the REPRO_PROFILE gate into the job.
        reference = run_sampled(program, trace, cfg, SPEC,
                                profile_run=runner.resolve(job).profile)
        assert isinstance(result, SampledResult)
        assert [s.state_dict() for s in result.interval_stats] == \
            [s.state_dict() for s in reference.interval_stats]
        assert result.ipc == reference.ipc

    def test_worker_count_invariant(self, tmp_path):
        cfg = starting_config()
        job = SimJob("go", cfg, SCALE, sampling=SPEC)
        [seq] = run_sampled_jobs(
            [job], ParallelRunner(jobs=1, cache_dir=tmp_path / "a")
        )
        [par] = run_sampled_jobs(
            [job], ParallelRunner(jobs=2, cache_dir=tmp_path / "b")
        )
        assert [s.state_dict() for s in seq.interval_stats] == \
            [s.state_dict() for s in par.interval_stats]

    def test_second_run_is_pure_cache_hit(self, runner):
        job = SimJob("li", starting_config(), SCALE, sampling=SPEC)
        run_sampled_jobs([job], runner)
        assert runner.telemetry.cache_hits == 0
        [again] = run_sampled_jobs([job], runner)
        assert runner.telemetry.cache_hits == runner.telemetry.jobs
        assert again.ipc > 0

    def test_whole_run_sampled_job_returns_merged_stats(self, runner):
        cfg = starting_config()
        job = SimJob("li", cfg, SCALE, sampling=SPEC)
        [merged] = runner.run([job])
        program, trace = trace_for("li", SCALE)
        reference = run_sampled(program, trace, cfg, SPEC,
                                profile_run=runner.resolve(job).profile)
        assert merged.state_dict() == reference.stats.state_dict()


    def test_whole_run_sampled_job_observes_like_its_intervals(
        self, runner
    ):
        job = SimJob("li", starting_config().with_reese(), SCALE,
                     sampling=SPEC, observe=True, check_invariants=True)
        [whole] = runner.run([job])
        [fanned] = run_sampled_jobs([job], runner)
        assert whole.stage_metrics
        assert whole.state_dict() == fanned.stats.state_dict()


class TestSampledEntryPoints:
    def test_run_sampled_benchmark(self):
        result = run_sampled_benchmark(
            "li", starting_config(), SPEC, scale=SCALE
        )
        assert isinstance(result, SampledResult)
        assert result.ipc > 0

    def test_run_figure_sampled_cells(self, runner):
        spec = dataclasses.replace(
            figure2_spec(), benchmarks=("li",),
            series=figure2_spec().series[:2],
        )
        result = run_figure(spec, scale=SCALE, runner=runner,
                            sampling=SPEC)
        for label, _ in spec.series:
            cell = result.cells["li"][label]
            assert isinstance(cell, SampledResult)
            assert result.ipc("li", label) == cell.ipc
        assert result.average_ipc(spec.series_labels[0]) > 0

    def test_run_sweep_sampled_cells(self, runner):
        cfg = starting_config()
        points = [("baseline", cfg), ("reese", cfg.with_reese())]
        results = run_sweep(points, benchmarks=["li"], scale=SCALE,
                            runner=runner, sampling=SPEC)
        assert all(
            isinstance(p.stats["li"], SampledResult) for p in results
        )
        assert results[0].average_ipc > 0
