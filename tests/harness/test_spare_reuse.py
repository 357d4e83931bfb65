"""Exact spare-unit reuse: a job whose extra functional units sit in
pools the held run never exhausted is served that run's Stats.

Every served result is compared with a direct simulation
(:func:`~repro.harness.runner.run_model` /
:func:`~repro.uarch.sampling.run_interval`), byte for byte.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import emulate
from repro.harness import parallel
from repro.harness.experiments import (
    SERIES_R2A,
    SERIES_R2A1M,
    figure2_spec,
    figure3_spec,
    figure4_spec,
    run_figure,
)
from repro.harness.parallel import (
    ParallelRunner,
    ResultCache,
    SimJob,
    job_fingerprint,
)
from repro.harness.runner import run_model
from repro.uarch import SamplingSpec, run_interval, starting_config
from repro.uarch.funits import POOL_FIELDS
from repro.workloads import MixProfile, generate_program
from repro.workloads.suite import trace_for

SCALE = 900
SPEC = SamplingSpec(4, 120, warmup=30, cooldown=30)


@pytest.fixture(autouse=True)
def no_held_results():
    parallel._held_results.clear()
    yield
    parallel._held_results.clear()


def _bytes(stats):
    return json.dumps(stats.state_dict(), sort_keys=True)


def _series(label):
    return dict(figure2_spec().series)[label]


FIGURES = (figure2_spec(), figure3_spec(), figure4_spec())


@pytest.fixture(scope="module")
def direct_cells():
    """(figure, benchmark, series) -> a direct run's Stats, as bytes."""
    out = {}
    for spec in FIGURES:
        for bench in spec.benchmarks:
            program, trace = trace_for(bench, SCALE)
            for label, config in spec.series:
                out[spec.figure_id, bench, label] = _bytes(
                    run_model(program, trace, config))
    return out


class TestServedCellsAreExact:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fig2_to_fig4_cells_equal_direct_runs(self, jobs, direct_cells):
        reused = 0
        for spec in FIGURES:
            runner = ParallelRunner(jobs=jobs, use_cache=False)
            result = run_figure(spec, scale=SCALE, runner=runner)
            reused += runner.telemetry.reused
            for bench in spec.benchmarks:
                for label, _ in spec.series:
                    key = spec.figure_id, bench, label
                    assert _bytes(result.cells[bench][label]) == \
                        direct_cells[key], key
        if jobs == 1:
            # gcc, go, li, perl and vortex in fig2; all but gcc after.
            assert reused == 13

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sampled_fig2_intervals_equal_direct_runs(self, jobs):
        spec = figure2_spec()
        runner = ParallelRunner(jobs=jobs, use_cache=False)
        result = run_figure(spec, scale=SCALE, runner=runner, sampling=SPEC)
        assert runner.telemetry.reused > 0
        for bench in spec.benchmarks:
            program, trace = trace_for(bench, SCALE)
            for label, config in spec.series:
                cell = result.cells[bench][label]
                for index, stats in enumerate(cell.interval_stats):
                    direct = run_interval(program, trace, config, SPEC,
                                          index)
                    assert _bytes(stats) == _bytes(direct), \
                        (bench, label, index)


class TestWhenReuseApplies:
    def _cells(self, bench, runner):
        """R+2 ALU, then R+2+1 Mult, as two runs of ``runner``."""
        out = []
        for label in (SERIES_R2A, SERIES_R2A1M):
            out.append(runner.run([SimJob(bench, _series(label), SCALE)])[0])
        return out, runner.telemetry.records[0]

    def test_unused_multiplier_is_served_across_runs(self):
        runner = ParallelRunner(jobs=1, use_cache=False)
        (r2a, r2a1m), record = self._cells("gcc", runner)
        assert record.served_from == _series(SERIES_R2A).name
        assert runner.telemetry.simulated == 0
        assert _bytes(r2a1m) == _bytes(r2a)

    def test_ijpeg_uses_its_multiplier_and_is_simulated(self):
        runner = ParallelRunner(jobs=1, use_cache=False)
        (r2a, r2a1m), record = self._cells("ijpeg", runner)
        assert record.served_from is None
        assert runner.telemetry.simulated == 1
        assert _bytes(r2a1m) != _bytes(r2a)

    def test_same_job_twice_uncached_simulates_twice(self):
        job = SimJob("gcc", _series(SERIES_R2A), SCALE)
        runner = ParallelRunner(jobs=1, use_cache=False)
        runner.run([job, job])
        assert runner.telemetry.simulated == 2
        runner.run([job])
        assert runner.telemetry.simulated == 1
        assert runner.telemetry.reused == 0

    def test_trace_path_job_runs_and_writes_its_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        runner = ParallelRunner(jobs=1, use_cache=False)
        served, traced = runner.run([
            SimJob("gcc", _series(SERIES_R2A), SCALE),
            SimJob("gcc", _series(SERIES_R2A1M), SCALE,
                   trace_path=str(path)),
        ])
        assert runner.telemetry.simulated == 2
        assert path.stat().st_size > 0
        assert _bytes(traced) == _bytes(served)

    def test_other_job_fields_must_match(self):
        runner = ParallelRunner(jobs=1, use_cache=False)
        runner.run([SimJob("gcc", _series(SERIES_R2A), SCALE)])
        runner.run([SimJob("gcc", _series(SERIES_R2A1M), SCALE,
                           observe=True)])
        assert runner.telemetry.simulated == 1

    def test_served_result_is_a_cached_copy(self, tmp_path):
        runner = ParallelRunner(jobs=1, cache_dir=tmp_path)
        jobs = [SimJob("gcc", _series(label), SCALE)
                for label in (SERIES_R2A, SERIES_R2A1M)]
        [first] = runner.run(jobs[:1])
        expected = _bytes(first)
        first.cycles = -1  # the caller's object, not the held one
        [served] = runner.run(jobs[1:])
        assert runner.telemetry.reused == 1
        assert _bytes(served) == expected
        cached = ResultCache(tmp_path).get(
            job_fingerprint(runner.resolve(jobs[1])))
        assert _bytes(cached) == expected

    def test_telemetry_names_the_source(self, tmp_path):
        path = tmp_path / "run.jsonl"
        runner = ParallelRunner(jobs=1, use_cache=False,
                                telemetry_path=path)
        runner.run([SimJob("gcc", _series(label), SCALE)
                    for label in (SERIES_R2A, SERIES_R2A1M)])
        sources = [json.loads(line)["served_from"]
                   for line in path.read_text().splitlines()]
        assert sources == [None, _series(SERIES_R2A).name]
        assert "1 simulated), 1 reused," in runner.telemetry.summary()


@st.composite
def mul_div_program(draw):
    profile = MixProfile(
        mul=draw(st.sampled_from([0.02, 0.1])),
        div=draw(st.sampled_from([0.005, 0.03])),
        load=draw(st.sampled_from([0.1, 0.25])),
        fp=draw(st.sampled_from([0.0, 0.1])),
    )
    program = generate_program(profile, n_dynamic=1200,
                               seed=draw(st.integers(0, 2**16)))
    return program, emulate(program, max_instructions=20_000).trace


class TestExactnessProperty:
    @given(mul_div_program(), st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_unit_in_never_exhausted_pool_changes_nothing(self, data,
                                                          reese):
        program, trace = data
        config = starting_config()
        if reese:
            config = config.with_reese()
        pools = []
        base = _bytes(run_model(program, trace, config, pools=pools))
        spare = pools[0].never_exhausted()
        assert spare <= set(POOL_FIELDS)
        for name in spare:
            grown = dataclasses.replace(
                config, **{name: getattr(config, name) + 1})
            assert _bytes(run_model(program, trace, grown)) == base, name
