"""Harness wiring of the sampled simulation engine.

Covers the interval-level SimJob fan-out of ``ParallelRunner.run``,
cache fingerprinting of sampling parameters, per-interval fault-seed
derivation and sampled figure/sweep cells.
"""

import dataclasses
import json
import os
import time

import pytest

from repro.harness.experiments import figure2_spec, run_figure
from repro.harness import parallel
from repro.harness.parallel import (
    CACHE_VERSION,
    FaultSpec,
    ParallelRunner,
    SimJob,
    _expand,
    _warm_groups,
    interval_fault_spec,
    job_fingerprint,
    warm_key,
)
from repro.harness.sweep import run_sweep
from repro.memhier.hierarchy import MemHierParams
from repro.uarch import SampledResult, SamplingSpec, run_sampled, sampling
from repro.uarch.config import LatencyConfig, ReeseConfig, starting_config
from repro.uarch.observe import ObserveConfig
from repro.uarch.sampling import WARM_FIELDS, WarmSweep, run_interval
from repro.uarch.stats import Stats
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
    """A whole sampled job runs as one job per interval."""

    def test_expands_one_job_per_interval(self, tmp_path):
        trace_path = tmp_path / "out.jsonl"
        job = SimJob("li", starting_config(), SCALE, sampling=SPEC,
                     trace_path=str(trace_path))
        runner = ParallelRunner(jobs=1, use_cache=False)
        [result] = runner.run([job])
        program, trace = trace_for("li", SCALE)
        assert result.total_instructions == len(trace)
        # Counted from the trace length alone, as the sweep selects them.
        sweep = WarmSweep(program, trace, job.config, SPEC)
        assert result.intervals == sweep.selection.bounds
        assert len(runner.telemetry.records) == len(sweep.selection.bounds)
        assert [ij.sampling.index for ij in _expand(job)[0]] == \
            list(range(len(sweep.selection.bounds)))
        # Trace-path side effects cannot be split across k pipelines.
        assert not trace_path.exists()
        assert all(ij.trace_path is None for ij in _expand(job)[0])

    def test_injected_jobs_get_per_interval_seeds(self):
        fault = FaultSpec.make("environmental", rate=1e-2, duration=3,
                               seed=11)
        job = SimJob("li", starting_config().with_reese(), SCALE,
                     fault=fault, sampling=SPEC)
        runner = ParallelRunner(jobs=1, use_cache=False)
        [result] = runner.run([job])
        seeds = {dict(ij.fault.params)["seed"] for ij in _expand(job)[0]}
        assert len(seeds) == len(result.intervals)
        assert result.stats.strikes > 0
        for index, stats in enumerate(result.interval_stats):
            reference = _from_scratch(dataclasses.replace(
                runner.resolve(job),
                sampling=dataclasses.replace(SPEC, index=index),
                fault=interval_fault_spec(fault, index),
            ))
            assert stats.state_dict() == reference.state_dict(), index


class TestIntervalFaultSpec:
    def test_deterministic_per_index(self):
        fault = FaultSpec.make("bernoulli", rate=1e-3, seed=5)
        assert interval_fault_spec(fault, 2) == interval_fault_spec(fault, 2)
        assert interval_fault_spec(fault, 2) != interval_fault_spec(fault, 3)

    def test_seedless_spec_passes_through(self):
        fault = FaultSpec.make("scheduled", events=((10, 2, 3),))
        assert interval_fault_spec(fault, 4) == fault


class TestRunSampledJobs:
    """Whole sampled jobs through ``ParallelRunner.run``."""

    def test_matches_in_process_run_sampled(self, runner):
        cfg = starting_config().with_reese()
        job = SimJob("li", cfg, SCALE, sampling=SPEC)
        [result] = runner.run([job])
        program, trace = trace_for("li", SCALE)
        # The runner folds the REPRO_PROFILE gate into the job.
        reference = run_sampled(
            program, trace, cfg, SPEC,
            observe=ObserveConfig(profile=runner.resolve(job).profile),
        )
        assert isinstance(result, SampledResult)
        assert [s.state_dict() for s in result.interval_stats] == \
            [s.state_dict() for s in reference.interval_stats]
        assert result.ipc == reference.ipc

    def test_worker_count_invariant(self, tmp_path):
        cfg = starting_config()
        job = SimJob("go", cfg, SCALE, sampling=SPEC)
        [seq] = ParallelRunner(jobs=1, cache_dir=tmp_path / "a").run([job])
        [par] = ParallelRunner(jobs=2, cache_dir=tmp_path / "b").run([job])
        assert [s.state_dict() for s in seq.interval_stats] == \
            [s.state_dict() for s in par.interval_stats]

    def test_second_run_is_pure_cache_hit(self, runner):
        job = SimJob("li", starting_config(), SCALE, sampling=SPEC)
        runner.run([job])
        assert runner.telemetry.cache_hits == 0
        [again] = runner.run([job])
        assert runner.telemetry.cache_hits == runner.telemetry.jobs
        assert again.ipc > 0

    def test_whole_run_sampled_job_returns_merged_stats(self, runner):
        cfg = starting_config()
        job = SimJob("li", cfg, SCALE, sampling=SPEC)
        [result] = runner.run([job])
        program, trace = trace_for("li", SCALE)
        reference = run_sampled(
            program, trace, cfg, SPEC,
            observe=ObserveConfig(profile=runner.resolve(job).profile),
        )
        assert result.stats.state_dict() == reference.stats.state_dict()

    def test_whole_run_sampled_job_observes_like_its_intervals(
        self, runner
    ):
        job = SimJob("li", starting_config().with_reese(), SCALE,
                     sampling=SPEC, observe=True, check_invariants=True)
        [whole] = runner.run([job])
        fanned = runner.run(_expand(job)[0])
        assert whole.stats.stage_metrics
        assert whole.stats.state_dict() == \
            Stats.merged(fanned).state_dict()

    def test_mixed_batch_returns_each_kind_in_input_order(self):
        cfg = starting_config()
        whole = SimJob("li", cfg.with_reese(), SCALE, sampling=SPEC)
        batch = [SimJob("go", cfg, SCALE), whole, _interval(whole, 1)]
        runner = ParallelRunner(jobs=1, use_cache=False)
        full, result, single = runner.run(batch)
        assert isinstance(full, Stats) and isinstance(single, Stats)
        assert isinstance(result, SampledResult)
        program, trace = trace_for("li", SCALE)
        reference = run_sampled(
            program, trace, whole.config, SPEC,
            observe=ObserveConfig(profile=runner.resolve(whole).profile),
        )
        assert [s.state_dict() for s in result.interval_stats] == \
            [s.state_dict() for s in reference.interval_stats]
        assert result.ipc == reference.ipc
        assert single.state_dict() == reference.interval_stats[1].state_dict()
        records = runner.telemetry.records
        assert len(records) == 1 + len(result.intervals) + 1
        assert [r.benchmark for r in records] == \
            ["go"] + ["li"] * (len(result.intervals) + 1)


class TestSampledEntryPoints:
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


#: MachineConfig fields a warm state does not depend on: they shape only
#: the detailed window.  A new field must be added here or to
#: ``WARM_FIELDS`` (and given an alternate value below).
WARM_INDEPENDENT_FIELDS = frozenset({
    "name", "fetch_queue_size", "fetch_width", "decode_width",
    "issue_width", "commit_width", "ruu_size", "lsq_size", "int_alu",
    "int_mult", "fp_alu", "fp_mult", "mem_ports", "latencies", "reese",
    "dispatch_dup",
})

CONFIG_ALTERNATES = {
    "name": "other",
    "fetch_queue_size": 8,
    "fetch_width": 4,
    "decode_width": 4,
    "issue_width": 4,
    "commit_width": 4,
    "ruu_size": 32,
    "lsq_size": 4,
    "int_alu": 6,
    "int_mult": 2,
    "fp_alu": 2,
    "fp_mult": 2,
    "mem_ports": 1,
    "latencies": LatencyConfig(int_mult=4),
    "predictor": "bimodal",
    "predictor_kwargs": {"entries": 1024},
    "btb_entries": 256,
    "ras_depth": 8,
    "mem": MemHierParams(memory_latency=80),
    "reese": ReeseConfig(enabled=True),
    "dispatch_dup": True,
}

#: SimJob fields outside the warm key, and an alternate for every field.
WARM_INDEPENDENT_JOB_FIELDS = frozenset({
    "fault", "observe", "check_invariants", "trace_path", "profile",
})
JOB_ALTERNATES = {
    "benchmark": "go",
    "config": starting_config(btb_entries=256),
    "scale": SCALE + 1,
    "seed": 99,
    "fault": FaultSpec.make("bernoulli", rate=1e-3, seed=3),
    "warm": False,
    "observe": True,
    "check_invariants": True,
    "trace_path": "out.jsonl",
    "sampling": dataclasses.replace(SPEC, interval_length=150),
    "profile": True,
}


def _interval(job, index=0):
    return dataclasses.replace(
        job, sampling=dataclasses.replace(job.sampling, index=index))


class TestWarmKey:
    def test_every_config_field_is_classified(self):
        names = {f.name for f in dataclasses.fields(starting_config())}
        assert not set(WARM_FIELDS) & WARM_INDEPENDENT_FIELDS
        assert names == set(WARM_FIELDS) | WARM_INDEPENDENT_FIELDS
        assert names == set(CONFIG_ALTERNATES)
        base = SimJob("li", starting_config(), SCALE, sampling=SPEC)
        for name, value in CONFIG_ALTERNATES.items():
            config = dataclasses.replace(base.config, **{name: value})
            changed = dataclasses.replace(base, config=config)
            keyed = warm_key(changed) != warm_key(base)
            assert keyed == (name in WARM_FIELDS), name

    def test_every_job_field_is_classified(self):
        names = {f.name for f in dataclasses.fields(SimJob)}
        assert names == set(JOB_ALTERNATES)
        base = SimJob("li", starting_config(), SCALE, sampling=SPEC)
        for name, value in JOB_ALTERNATES.items():
            changed = dataclasses.replace(base, **{name: value})
            keyed = warm_key(changed) != warm_key(base)
            assert keyed == (name not in WARM_INDEPENDENT_JOB_FIELDS), name

    def test_interval_index_and_default_seed_are_not_keyed(self):
        job = SimJob("li", starting_config(), SCALE, sampling=SPEC)
        seeded = dataclasses.replace(
            job, seed=job.resolved_seed(), sampling=_interval(job, 2).sampling)
        assert warm_key(seeded) == warm_key(job)


class TestWarmGroups:
    def test_groups_share_a_key_and_run_in_trace_order(self):
        cfg = starting_config()
        li = SimJob("li", cfg, SCALE, sampling=SPEC)
        jobs = [
            _interval(li, 2),
            SimJob("li", cfg, SCALE),                              # full run
            _interval(dataclasses.replace(li, config=cfg.with_reese()), 0),
            _interval(dataclasses.replace(
                li, config=cfg.replace(predictor="bimodal")), 1),
            _interval(li, 1),
        ]
        assert _warm_groups(jobs, range(len(jobs)), 1) == [
            [2, 4, 0], [1], [3],
        ]
        # Only the pending indices are grouped.
        assert _warm_groups(jobs, [0, 3], 1) == [[0], [3]]

    def test_fewer_units_than_workers_split_contiguously(self):
        li = SimJob("li", starting_config(), SCALE, sampling=SPEC)
        jobs = [_interval(li, i) for i in range(4)]
        assert _warm_groups(jobs, range(4), 2) == [[0, 1], [2, 3]]
        assert _warm_groups(jobs, range(4), 3) == [[0, 1], [2, 3]]
        assert _warm_groups(jobs, range(4), 8) == [[0], [1], [2], [3]]

    def test_sweep_time_is_charged_to_the_groups_jobs(self, monkeypatch):
        # Make the group's shared work slow: the pause must show up in
        # the jobs' records, not as unaccounted runner time.
        pause = 0.4
        original = sampling.mispredict_profile

        def slow_profile(*args):
            time.sleep(pause)
            return original(*args)

        job = SimJob("li", starting_config(), SCALE, sampling=SPEC)
        interval_jobs = _expand(job)[0]
        monkeypatch.setattr(sampling, "mispredict_profile", slow_profile)
        runner = ParallelRunner(jobs=1, use_cache=False)
        runner.run(interval_jobs)
        telemetry = runner.telemetry
        charged = sum(record.elapsed for record in telemetry.records)
        assert len(telemetry.records) == len(interval_jobs)
        assert charged >= pause
        assert telemetry.wall_seconds - charged < pause / 2


#: A two-benchmark, three-series sampled figure: two warm groups.
PROFILED_FIGURE = dataclasses.replace(
    figure2_spec(), benchmarks=("gcc", "li"),
    series=figure2_spec().series[:3],
)


def _sampled_record(result):
    """Everything a sampled cell reports."""
    return (result.intervals, result.interval_mispredicts,
            result.total_mispredicts, result.ipc, result.ipc_ci,
            [stats.state_dict() for stats in result.interval_stats])


def _figure_records(figure):
    return {(bench, label): _sampled_record(cell)
            for bench, row in figure.cells.items()
            for label, cell in row.items()}


def _cache_entries(root, kind):
    """The cache files under ``root`` holding a ``kind`` payload."""
    return [path for path in sorted(root.rglob("*.json"))
            if kind in json.loads(path.read_text())]


@pytest.mark.parametrize("jobs", [1, 2])
class TestProfileOncePerWarmGroup:
    """Each warm group's unit selects its own intervals; the result
    cache keeps the selection, so the parent profiles nothing."""

    @pytest.fixture
    def profiles(self, monkeypatch, tmp_path):
        """Who computed which mispredict profile: the sweep of a unit
        (``sampling``) or the parent (``parallel``), in which process."""
        log = tmp_path / "profiles.log"

        def counting(where, original):
            def profile(program, trace, config):
                with open(log, "a") as handle:  # pool workers append too
                    handle.write(f"{where} {program.name} {os.getpid()}\n")
                return original(program, trace, config)
            return profile

        for module in (sampling, parallel):
            monkeypatch.setattr(
                module, "mispredict_profile",
                counting(module.__name__.rsplit(".", 1)[1],
                         module.mispredict_profile))

        def taken():
            lines = log.read_text().splitlines() if log.exists() else []
            log.unlink(missing_ok=True)
            return sorted(tuple(line.split()) for line in lines)
        return taken

    def _run(self, jobs, cache_dir):
        runner = ParallelRunner(jobs=jobs, cache_dir=cache_dir,
                                use_cache=cache_dir is not None)
        figure = run_figure(PROFILED_FIGURE, scale=SCALE, runner=runner,
                            sampling=SPEC)
        return _figure_records(figure), runner

    def test_one_profile_per_warm_group(self, profiles, jobs):
        # A cold run profiles each warm group once, in the group's unit;
        # the merge takes the unit's selection, with or without a cache.
        self._run(jobs, None)
        taken = profiles()
        assert [(where, name) for where, name, _ in taken] == [
            ("sampling", "gcc_proxy"), ("sampling", "li_proxy")]
        if jobs > 1:  # the units ran in pool workers
            assert all(int(pid) != os.getpid() for _, _, pid in taken)

    def test_rerun_profiles_nothing(self, profiles, tmp_path, jobs):
        cold, _ = self._run(jobs, tmp_path / "cache")
        assert [where for where, _, _ in profiles()] == ["sampling"] * 2
        assert len(_cache_entries(tmp_path / "cache", "selection")) == 2
        warm, runner = self._run(jobs, tmp_path / "cache")
        assert profiles() == []
        assert runner.telemetry.cache_hits == runner.telemetry.jobs
        assert warm == cold

    def test_missing_selection_is_computed_by_the_parent(
        self, profiles, tmp_path, jobs
    ):
        cold, _ = self._run(jobs, tmp_path / "cache")
        for path in _cache_entries(tmp_path / "cache", "selection"):
            path.unlink()
        profiles()
        warm, runner = self._run(jobs, tmp_path / "cache")
        assert runner.telemetry.cache_hits == runner.telemetry.jobs
        assert [(where, name, int(pid)) for where, name, pid in profiles()] \
            == [("parallel", "gcc_proxy", os.getpid()),
                ("parallel", "li_proxy", os.getpid())]
        assert warm == cold
        # ... and cached it: the next rerun profiles nothing.
        assert len(_cache_entries(tmp_path / "cache", "selection")) == 2
        assert self._run(jobs, tmp_path / "cache")[0] == cold
        assert profiles() == []

    def test_failed_batch_writes_no_selection(
        self, monkeypatch, tmp_path, jobs
    ):
        original = parallel.run_interval

        def failing(program, *args, **kwargs):
            if program.name == "li_proxy":
                raise RuntimeError("interval failed")
            return original(program, *args, **kwargs)

        monkeypatch.setattr(parallel, "run_interval", failing)
        with pytest.raises(RuntimeError, match="interval failed"):
            self._run(jobs, tmp_path / "cache")
        assert list((tmp_path / "cache").rglob("*.json")) == []


def _mixed_batch():
    """Whole sampled jobs spanning several warm groups and, within a
    group, every kind of warm-independent difference."""
    cfg = starting_config()
    reese = cfg.with_reese()
    fault = FaultSpec.make("environmental", rate=2e-3, duration=3, seed=17)
    li = SimJob("li", cfg, SCALE, sampling=SPEC)
    return [
        li,
        dataclasses.replace(li, config=reese),
        dataclasses.replace(li, config=cfg.with_spares(alu=2)),
        dataclasses.replace(li, config=cfg.replace(predictor="bimodal")),
        dataclasses.replace(li, config=reese, fault=fault),
        dataclasses.replace(li, observe=True),
        dataclasses.replace(li, config=reese, check_invariants=True),
        dataclasses.replace(li, profile=True),
        SimJob("go", reese, SCALE, sampling=SPEC, observe=True),
    ]


def _from_scratch(job):
    """One interval simulated alone, straight through ``run_interval``."""
    program, trace = trace_for(job.benchmark, job.scale, job.seed)
    observe = ObserveConfig(metrics=job.observe,
                            check_invariants=job.check_invariants,
                            profile=job.profile)
    return run_interval(
        program, trace, job.config, job.sampling, job.sampling.index,
        fault_model=job.fault.build() if job.fault else None,
        warm=job.warm, observe=observe,
    )


class TestGroupEquivalence:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_mixed_batch_matches_from_scratch_intervals(self, workers):
        runner = ParallelRunner(jobs=workers, use_cache=False)
        interval_jobs = [
            ij for job in _mixed_batch() for ij in _expand(job)[0]
        ]
        # Reversed: a group must still run its intervals in trace order.
        batch = interval_jobs[::-1]
        assert len(_warm_groups(batch, range(len(batch)), 1)) == 3
        results = runner.run(batch)
        for job, stats in zip(batch, results):
            reference = _from_scratch(runner.resolve(job))
            assert stats.state_dict() == reference.state_dict(), job

    def test_partly_cached_group_matches(self, tmp_path):
        # Cache hits leave gaps in a group: its sweep skips them.
        runner = ParallelRunner(jobs=1, cache_dir=tmp_path)
        job = SimJob("li", starting_config().with_reese(), SCALE,
                     sampling=SPEC)
        interval_jobs = _expand(job)[0]
        runner.run(interval_jobs[1::2])
        results = runner.run(interval_jobs)
        assert runner.telemetry.cache_hits == len(interval_jobs[1::2])
        for ij, stats in zip(interval_jobs, results):
            reference = _from_scratch(runner.resolve(ij))
            assert stats.state_dict() == reference.state_dict()
