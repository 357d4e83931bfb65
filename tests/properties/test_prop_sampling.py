"""Property-based guarantees of the sampled simulation engine.

Two families:

* statistical — the sampled IPC estimate converges towards the full
  detailed run's IPC as coverage grows, for generated programs as well
  as suite workloads;
* determinism — the harness fan-out produces byte-identical results
  for any worker count and any grouping of interval jobs.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import emulate
from repro.harness.parallel import ParallelRunner, SimJob, run_sampled_jobs
from repro.uarch import Pipeline, SamplingSpec, run_sampled, starting_config
from repro.workloads import MixProfile, generate_program
from repro.workloads.suite import trace_for


@st.composite
def program_and_trace(draw):
    seed = draw(st.integers(min_value=0, max_value=2**16))
    profile = MixProfile(
        mul=draw(st.sampled_from([0.0, 0.1])),
        load=draw(st.sampled_from([0.1, 0.25])),
        store=draw(st.sampled_from([0.0, 0.1])),
        branch=draw(st.sampled_from([0.05, 0.15])),
        branch_predictability=draw(st.sampled_from([0.4, 0.9])),
    )
    program = generate_program(profile, n_dynamic=2500, seed=seed)
    trace = emulate(program, max_instructions=30_000).trace
    return program, trace


class TestSamplingAccuracy:
    @given(program_and_trace())
    @settings(max_examples=6, deadline=None)
    def test_sampled_ipc_tracks_full_ipc(self, data):
        program, trace = data
        cfg = starting_config()
        full = Pipeline(program, trace, cfg, warm=True).run()
        spec = SamplingSpec(6, 150, warmup=40, cooldown=40)
        result = run_sampled(program, trace, cfg, spec)
        assert result.ipc == pytest.approx(full.ipc, rel=0.10)

    def test_error_shrinks_as_coverage_grows(self):
        # Convergence on a suite workload: the largest spec must land
        # within the acceptance band, and growing coverage must not
        # blow the estimate up.
        program, trace = trace_for("li", 4000)
        cfg = starting_config()
        full = Pipeline(program, trace, cfg, warm=True).run()
        errors = {}
        for k in (3, 6, 12):
            spec = SamplingSpec(k, 150, warmup=40, cooldown=40)
            result = run_sampled(program, trace, cfg, spec)
            errors[k] = abs(result.ipc - full.ipc) / full.ipc
        assert errors[12] <= 0.02
        assert errors[12] <= errors[3] + 0.01

    def test_full_coverage_matches_windowed_reference(self):
        # Degenerate contiguous sampling measures every instruction;
        # the only difference from one detailed run is the per-window
        # pipeline restart, a small documented windowing cost.
        program, trace = trace_for("go", 3000)
        cfg = starting_config()
        full = Pipeline(program, trace, cfg, warm=True).run()
        spec = SamplingSpec(len(trace) // 300 + 1, 300)
        result = run_sampled(program, trace, cfg, spec)
        assert result.detail_fraction == 1.0
        assert result.stats.committed == full.committed
        assert result.ipc == pytest.approx(full.ipc, rel=0.05)


class TestSamplingDeterminism:
    def test_results_identical_across_worker_counts(self, tmp_path):
        # The acceptance property: --jobs 1 and --jobs 4 byte-identical.
        cfg = starting_config()
        spec = SamplingSpec(5, 120, warmup=30, cooldown=30)
        jobs = [
            SimJob("li", cfg, 2500, sampling=spec),
            SimJob("li", cfg.with_reese(), 2500, sampling=spec),
        ]
        results = {}
        for workers in (1, 4):
            runner = ParallelRunner(jobs=workers,
                                    cache_dir=tmp_path / str(workers))
            results[workers] = run_sampled_jobs(jobs, runner)
        for seq, par in zip(results[1], results[4]):
            assert [s.state_dict() for s in seq.interval_stats] == \
                [s.state_dict() for s in par.interval_stats]
            assert seq.ipc == par.ipc
            assert seq.ipc_ci == par.ipc_ci

    def test_grouping_invariant(self, tmp_path):
        # One batch of two sampled jobs vs two batches of one: the
        # per-interval jobs are self-contained, so grouping is free.
        cfg = starting_config()
        spec = SamplingSpec(4, 120)
        job_a = SimJob("go", cfg, 2500, sampling=spec)
        job_b = SimJob("go", cfg.with_reese(), 2500, sampling=spec)
        runner = ParallelRunner(jobs=1, cache_dir=tmp_path)
        both = run_sampled_jobs([job_a, job_b], runner)
        solo_a = run_sampled_jobs([job_a], runner)[0]
        solo_b = run_sampled_jobs([job_b], runner)[0]
        assert [s.state_dict() for s in both[0].interval_stats] == \
            [s.state_dict() for s in solo_a.interval_stats]
        assert [s.state_dict() for s in both[1].interval_stats] == \
            [s.state_dict() for s in solo_b.interval_stats]

    def test_interval_spec_index_only_differs(self):
        cfg = starting_config()
        spec = SamplingSpec(4, 120)
        job = SimJob("li", cfg, 2500, sampling=spec)
        from repro.harness.parallel import expand_sampled_job

        interval_jobs, _ = expand_sampled_job(job)
        for index, interval_job in enumerate(interval_jobs):
            assert interval_job.sampling == \
                dataclasses.replace(spec, index=index)
