"""Tests for the parallel execution layer: jobs, fingerprints, cache, pool."""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import repro

from repro.harness.parallel import (
    CACHE_VERSION,
    FaultSpec,
    ParallelRunner,
    ResultCache,
    UNKEYED_FIELDS,
    SimJob,
    canonical_config,
    derive_seed,
    job_fingerprint,
    WorkerLostError,
    parallel_map,
)
from repro.harness.campaign import (MismatchRecord, OracleMismatch,
                                    _chunk_indices)
from repro.isa.assembler import AsmError
from repro.reese.recovery import UnrecoverableFaultError
from repro.uarch.observe import InvariantViolation
from repro.uarch.pipeline import SimulationTimeoutError
from repro.reese.faults import BernoulliFaultModel, EnvironmentalFaultModel
from repro.uarch.config import starting_config
from repro.uarch.sampling import SamplingSpec, Selection
from repro.uarch.stats import Stats
from repro.workloads.suite import BENCHMARKS

TINY = 900  # dynamic instructions: enough to exercise the machinery


class TestSimJob:
    def test_resolved_seed_defaults_to_workload_seed(self):
        job = SimJob("go", starting_config(), TINY)
        assert job.resolved_seed() == BENCHMARKS["go"].default_seed

    def test_explicit_seed_wins(self):
        job = SimJob("go", starting_config(), TINY, seed=7)
        assert job.resolved_seed() == 7


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "go", 2) == derive_seed(1, "go", 2)

    def test_sensitive_to_every_part(self):
        seeds = {
            derive_seed(1, "go", 2),
            derive_seed(2, "go", 2),
            derive_seed(1, "gcc", 2),
            derive_seed(1, "go", 3),
        }
        assert len(seeds) == 4


class TestFingerprint:
    def test_stable_across_calls(self):
        a = SimJob("go", starting_config(), TINY)
        b = SimJob("go", starting_config(), TINY)
        assert job_fingerprint(a) == job_fingerprint(b)

    def test_config_name_is_cosmetic(self):
        a = SimJob("go", starting_config(), TINY)
        b = SimJob("go", starting_config().replace(name="renamed"), TINY)
        assert job_fingerprint(a) == job_fingerprint(b)

    def test_sensitive_fields_change_it(self):
        base = SimJob("go", starting_config(), TINY)
        variants = [
            SimJob("gcc", starting_config(), TINY),
            SimJob("go", starting_config(), TINY + 1),
            SimJob("go", starting_config(), TINY, seed=1),
            SimJob("go", starting_config().with_reese(), TINY),
            SimJob("go", starting_config(), TINY,
                   fault=FaultSpec.make("bernoulli", rate=1e-4, seed=5)),
            SimJob("go", starting_config(), TINY, warm=False),
        ]
        fingerprints = {job_fingerprint(v) for v in variants}
        assert job_fingerprint(base) not in fingerprints
        assert len(fingerprints) == len(variants)

    def test_default_seed_and_explicit_default_seed_share_entry(self):
        implicit = SimJob("go", starting_config(), TINY)
        explicit = SimJob("go", starting_config(), TINY,
                          seed=BENCHMARKS["go"].default_seed)
        assert job_fingerprint(implicit) == job_fingerprint(explicit)


#: Cache keys at CACHE_VERSION 7 (the v4 keys of the hand-listed
#: fingerprint payload that preceded the field-derived one, with only the
#: version changed).  They must never change without a CACHE_VERSION
#: bump: every existing .repro_cache entry depends on them.
PINNED_KEYS = [
    (SimJob("go", starting_config(), 900),
     "dace6da7792277a40ea4bf5d08c259f8e29ba343398e40262ad9a1a5ce6e51da"),
    (SimJob("gcc", starting_config().with_reese(), 2000, seed=7),
     "19cec99b073d812b820c05810a44fad4e3e868a7f57c7c428c48fbed8c3f733c"),
    (SimJob("li", starting_config().with_reese(), 1500,
            fault=FaultSpec.make("environmental", rate=1e-3, duration=3,
                                 seed=11)),
     "ebb04c0130946a39846fc6335f7a4cfbdd27fd31b3a8b9c8ca626440e38310dc"),
    (SimJob("perl", starting_config().with_reese(), 1500,
            fault=FaultSpec.make("scheduled", events=((10, 2, 3),)),
            warm=False),
     "ed8639ef5e925a9894708a62910a8d819f41320028adbcc6fdd99d9806d45f08"),
    (SimJob("vortex", starting_config().with_spares(2, 0).with_reese(), 2000,
            sampling=SamplingSpec(4, 120, warmup=30, cooldown=30, index=2),
            observe=True, check_invariants=True, profile=True),
     "a27d44092d9ade0b1413a67e05deb8e44299f0603880e4c74c29605cf65feca8"),
]

#: One changed value per SimJob field (against ``SimJob("go", cfg, TINY)``).
ALTERNATE_VALUES = {
    "benchmark": "gcc",
    "config": starting_config().with_reese(),
    "scale": TINY + 1,
    "seed": 1,
    "fault": FaultSpec.make("bernoulli", rate=1e-4, seed=5),
    "warm": False,
    "observe": True,
    "check_invariants": True,
    "trace_path": "run.jsonl",
    "sampling": SamplingSpec(4, 120),
    "profile": True,
}


class TestFingerprintDerivation:
    def test_cache_version_unchanged(self):
        assert CACHE_VERSION == 7

    @pytest.mark.parametrize("index", range(len(PINNED_KEYS)))
    def test_pinned_keys(self, index):
        job, key = PINNED_KEYS[index]
        assert job_fingerprint(job) == key

    def test_every_field_is_keyed_unless_declared(self):
        names = {spec.name for spec in dataclasses.fields(SimJob)}
        # A new SimJob field needs an alternate value here, and a
        # decision: keyed (the default) or listed in UNKEYED_FIELDS.
        assert names == set(ALTERNATE_VALUES)
        base = SimJob("go", starting_config(), TINY)
        for name, value in ALTERNATE_VALUES.items():
            changed = dataclasses.replace(base, **{name: value})
            keyed = job_fingerprint(changed) != job_fingerprint(base)
            assert keyed == (name not in UNKEYED_FIELDS), name

    def test_batch_fingerprints_match_job_fingerprint(self, tmp_path):
        # ParallelRunner.run builds one canonical config per distinct
        # config object; every job must still get job_fingerprint(job).
        # Plant a distinct entry under each job's own key: the batch is
        # then all cache hits, each job served its own entry.
        shared = starting_config()
        interval = SamplingSpec(4, 120, index=1)
        jobs = [job for job, _ in PINNED_KEYS] + [
            SimJob("go", shared, TINY),
            SimJob("go", shared, TINY, sampling=interval),
            SimJob("go", shared, TINY, seed=3),
            SimJob("go", dataclasses.replace(shared), TINY),   # equal twin
            SimJob("go", shared.replace(name="renamed"), TINY, seed=3),
            SimJob("li", shared.with_reese(), TINY, sampling=interval,
                   fault=FaultSpec.make("bernoulli", rate=1e-4, seed=5)),
        ]
        runner = ParallelRunner(jobs=1, cache_dir=tmp_path)
        keys = [job_fingerprint(runner.resolve(job)) for job in jobs]
        planted = {key: n for n, key in enumerate(dict.fromkeys(keys), 1)}
        for key, cycles in planted.items():
            stats = Stats()
            stats.cycles = cycles
            runner.cache.put(key, stats)
        served = runner.run(jobs)
        assert runner.telemetry.cache_hits == len(jobs)
        assert [stats.cycles for stats in served] == \
            [planted[key] for key in keys]
        # Equal configs share keys whatever their name or identity.
        assert keys[-6] == keys[-3] and keys[-4] == keys[-2]

    def test_canonical_config_is_read_not_changed(self):
        config = canonical_config(starting_config())
        before = json.dumps(config, sort_keys=True, default=repr)
        job = SimJob("go", starting_config(), TINY)
        assert job_fingerprint(job, config) == job_fingerprint(job)
        assert json.dumps(config, sort_keys=True, default=repr) == before
        assert "name" not in config

    def test_every_config_field_but_name_is_keyed(self):
        config = starting_config()
        base = job_fingerprint(SimJob("go", config, TINY))
        for spec in dataclasses.fields(config):
            value = getattr(config, spec.name)
            if isinstance(value, bool):
                value = not value
            elif isinstance(value, int):
                value += 1
            elif isinstance(value, str):
                value += "-x"
            else:
                continue
            changed = dataclasses.replace(config, **{spec.name: value})
            keyed = job_fingerprint(SimJob("go", changed, TINY)) != base
            assert keyed == (spec.name != "name"), spec.name


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec.make("cosmic-ray", rate=1.0)

    def test_builds_fresh_models(self):
        spec = FaultSpec.make("bernoulli", rate=1e-4, seed=5)
        first, second = spec.build(), spec.build()
        assert isinstance(first, BernoulliFaultModel)
        assert first is not second

    def test_environmental(self):
        spec = FaultSpec.make("environmental", rate=1e-3, duration=2, seed=9)
        assert isinstance(spec.build(), EnvironmentalFaultModel)


class TestResultCache:
    def _stats(self):
        stats = Stats()
        stats.cycles = 123
        stats.committed = 456
        stats.halted = True
        stats.fu_issues = {"int_alu": 7}
        stats.cache_stats = {"l1d": {"hit_rate": 0.75}}
        return stats

    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, self._stats())
        loaded = cache.get("ab" * 32)
        assert loaded is not None
        assert loaded.to_dict() == self._stats().to_dict()

    def test_miss(self, tmp_path):
        assert ResultCache(tmp_path).get("cd" * 32) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.path_for("ef" * 32)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.get("ef" * 32) is None

    def test_version_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("aa" * 32, self._stats())
        path = cache.path_for("aa" * 32)
        data = json.loads(path.read_text())
        data["version"] = CACHE_VERSION + 1
        path.write_text(json.dumps(data))
        assert cache.get("aa" * 32) is None

    def _rewrite(self, cache, key, **changes):
        """Store an entry under ``key``, then edit its JSON."""
        cache.put(key, self._stats())
        path = cache.path_for(key)
        data = json.loads(path.read_text())
        data.update(changes)
        path.write_text(json.dumps(data))
        return path

    def test_non_object_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = self._rewrite(cache, "bb" * 32)
        path.write_text(json.dumps([CACHE_VERSION, "bb" * 32]))
        assert cache.get("bb" * 32) is None

    @pytest.mark.parametrize("stats", ["garbage", [1, 2, 3], None])
    def test_non_object_stats_is_a_miss(self, tmp_path, stats):
        cache = ResultCache(tmp_path)
        self._rewrite(cache, "bc" * 32, stats=stats)
        assert cache.get("bc" * 32) is None

    def test_other_fingerprint_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._rewrite(cache, "bd" * 32, fingerprint="be" * 32)
        assert cache.get("bd" * 32) is None
        # The unedited entry still loads.
        self._rewrite(cache, "bd" * 32)
        assert cache.get("bd" * 32).cycles == 123

    def test_selection_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        selection = Selection([(0, 10, 40), (50, 60, 90)], [3, 1], 9)
        cache.put_selection("ca" * 32, selection)
        assert cache.get_selection("ca" * 32) == selection
        plain = Selection([(0, 0, 40)])
        cache.put_selection("cb" * 32, plain)
        assert cache.get_selection("cb" * 32) == plain
        # Stats and selections are distinct kinds of entry.
        assert cache.get("ca" * 32) is None
        cache.put("cc" * 32, self._stats())
        assert cache.get_selection("cc" * 32) is None

    @pytest.mark.parametrize("selection", [
        "garbage", {"bounds": [[1, 2]], "mispredicts": None,
                    "total_mispredicts": None},
        {"bounds": [[0, 0, 40]]},
    ])
    def test_malformed_selection_is_a_miss(self, tmp_path, selection):
        cache = ResultCache(tmp_path)
        cache.put_selection("cd" * 32, Selection([(0, 0, 40)]))
        path = cache.path_for("cd" * 32)
        data = json.loads(path.read_text())
        data["selection"] = selection
        path.write_text(json.dumps(data))
        assert cache.get_selection("cd" * 32) is None

    def test_unwritable_root_degrades_to_uncached(self, tmp_path):
        cache = ResultCache(tmp_path / "missing" / "nope")
        (tmp_path / "missing").write_text("a file, not a directory")
        with pytest.warns(RuntimeWarning, match="not writable"):
            cache.put("ab" * 32, self._stats())
        # Only the first failure warns; later puts stay silent no-ops.
        cache.put("cd" * 32, self._stats())
        assert cache.get("ab" * 32) is None

    def test_env_var_selects_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        cache = ResultCache()
        assert str(cache.root) == str(tmp_path / "alt")


class TestParallelRunner:
    @pytest.fixture(scope="class")
    def sim_jobs(self):
        config = starting_config()
        return [
            SimJob("go", config, TINY),
            SimJob("go", config.with_reese(), TINY),
            SimJob("vortex", config, TINY),
        ]

    def test_results_in_input_order_and_worker_count_invariant(self, sim_jobs):
        seq = ParallelRunner(jobs=1, use_cache=False).run(sim_jobs)
        par = ParallelRunner(jobs=3, use_cache=False).run(sim_jobs)
        assert len(seq) == len(par) == len(sim_jobs)
        for a, b in zip(seq, par):
            assert a.to_dict() == b.to_dict()

    def test_cache_hits_and_telemetry(self, sim_jobs, tmp_path):
        runner = ParallelRunner(jobs=2, cache_dir=tmp_path)
        first = runner.run(sim_jobs)
        assert runner.telemetry.cache_hits == 0
        assert runner.telemetry.simulated == len(sim_jobs)
        second = runner.run(sim_jobs)
        assert runner.telemetry.cache_hits == len(sim_jobs)
        assert runner.telemetry.simulated == 0
        for a, b in zip(first, second):
            assert a.to_dict() == b.to_dict()

    def test_telemetry_records_cover_all_jobs(self, sim_jobs):
        runner = ParallelRunner(jobs=1, use_cache=False)
        runner.run(sim_jobs)
        telemetry = runner.telemetry
        assert [r.index for r in telemetry.records] == [0, 1, 2]
        assert all(not r.cached for r in telemetry.records)
        assert "3 jobs" in telemetry.summary()

    def test_faulted_job_deterministic_across_workers(self):
        job = SimJob(
            "perl", starting_config().with_reese(), 1500,
            fault=FaultSpec.make("environmental", rate=1e-3, duration=2,
                                 seed=77),
        )
        seq = ParallelRunner(jobs=1, use_cache=False).run([job, job])
        par = ParallelRunner(jobs=2, use_cache=False).run([job, job])
        assert seq[0].to_dict() == seq[1].to_dict()
        assert seq[0].to_dict() == par[0].to_dict() == par[1].to_dict()

    def test_empty_job_list(self):
        runner = ParallelRunner(jobs=2, use_cache=False)
        assert runner.run([]) == []
        assert runner.telemetry.jobs == 0


class TestParallelMap:
    def test_preserves_order(self):
        assert parallel_map(abs, [-3, -1, -2], jobs=2) == [3, 1, 2]

    def test_sequential_fallback(self):
        assert parallel_map(abs, [-5], jobs=4) == [5]

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError):
            parallel_map(int, ["1", "x", "3"], jobs=2)

    def test_lost_worker_raises_instead_of_hanging(self):
        # A worker that exits mid-map must surface as a typed error; a
        # pool that waits for the lost item forever fails the timeout.
        script = textwrap.dedent("""
            import os
            from repro.harness.parallel import WorkerLostError, parallel_map

            def f(item):
                if item == 2:
                    os._exit(3)
                return item

            try:
                parallel_map(f, [0, 1, 2, 3], jobs=2)
            except WorkerLostError as error:
                print("lost", error.index)
        """)
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=path), timeout=60,
        )
        kind, index = done.stdout.split()
        # The first result lost in input order: item 2, or an earlier
        # item still unfinished when the pool broke.
        assert kind == "lost" and 0 <= int(index) <= 2

    def test_lost_runner_worker_raises_instead_of_hanging(self, tmp_path):
        # ParallelRunner's pool is parallel_map's: a worker that exits
        # mid-batch raises the typed error, and nothing is cached.
        script = textwrap.dedent(f"""
            import os
            from repro.harness import parallel
            from repro.harness.parallel import (
                ParallelRunner, ResultCache, SimJob, WorkerLostError,
                job_fingerprint)
            from repro.uarch.config import starting_config

            simulate = parallel._simulate

            def dying(job, sweep=None):
                if job.benchmark == "vortex":
                    os._exit(3)
                return simulate(job, sweep)

            parallel._simulate = dying  # forked workers inherit it
            runner = ParallelRunner(jobs=2, cache_dir={str(tmp_path)!r})
            jobs = [SimJob(bench, starting_config(), {TINY})
                    for bench in ("go", "vortex", "li", "perl")]
            try:
                runner.run(jobs)
            except WorkerLostError as error:
                print("lost", error.total)
            cache = ResultCache({str(tmp_path)!r})
            print("cached", sum(
                cache.get(job_fingerprint(runner.resolve(job))) is not None
                for job in jobs))
        """)
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=path), timeout=60,
        )
        assert done.stdout.split() == ["lost", "4", "cached", "0"], \
            done.stderr


def _error_examples():
    """One instance of every ``repro`` exception class with its own
    ``__init__``, and the fields it must keep across a pickle."""
    stats = Stats()
    stats.cycles = 41
    record = MismatchRecord("gcc", 3, 5, "dead", 1, 7, "sdc", "add r5, r1, r2")
    return {
        AsmError: (AsmError("bad operand", 12), ["line_no"]),
        InvariantViolation: (InvariantViolation("rob", 9, 4, "full"),
                             ["invariant", "cycle", "trace_seq", "detail"]),
        OracleMismatch: (OracleMismatch([record]), ["mismatches"]),
        SimulationTimeoutError: (SimulationTimeoutError(100, 7, 9, stats),
                                 ["cap", "committed", "total"]),
        UnrecoverableFaultError: (UnrecoverableFaultError(17, 2),
                                  ["seq", "attempts"]),
        WorkerLostError: (WorkerLostError(2, 8), ["index", "total"]),
    }


class TestTypedErrorsCrossThePool:
    def test_every_custom_error_round_trips_through_pickle(self):
        import importlib
        import pickle
        import pkgutil

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
        custom = set()
        pending = [Exception]
        while pending:
            for cls in pending.pop().__subclasses__():
                pending.append(cls)
                if (cls.__module__.startswith("repro.")
                        and "__init__" in vars(cls)):
                    custom.add(cls)
        examples = _error_examples()
        assert custom == set(examples)
        for cls, (error, fields) in examples.items():
            copy = pickle.loads(pickle.dumps(error))
            assert type(copy) is cls and str(copy) == str(error)
            for name in fields:
                assert getattr(copy, name) == getattr(error, name), name
        timeout = examples[SimulationTimeoutError][0]
        copy = pickle.loads(pickle.dumps(timeout))
        assert copy.stats.to_dict() == timeout.stats.to_dict()

    @pytest.mark.parametrize("error", [
        "UnrecoverableFaultError(17, 2)",
        "SimulationDeadlockError('no commit for 5000 cycles')",
        "SimulationTimeoutError(100, 7, 9, Stats())",
    ], ids=lambda error: error.split("(")[0])
    def test_pooled_typed_error_reaches_the_caller_uncached(self, tmp_path,
                                                            error):
        # Before the errors pickled, the pool's result thread died on
        # unpickling and the run never returned: the timeout fails that.
        script = textwrap.dedent(f"""
            from repro.harness import parallel
            from repro.harness.parallel import (
                ParallelRunner, ResultCache, SimJob, job_fingerprint)
            from repro.reese.recovery import UnrecoverableFaultError
            from repro.uarch.config import starting_config
            from repro.uarch.pipeline import (
                SimulationDeadlockError, SimulationTimeoutError)
            from repro.uarch.stats import Stats

            simulate = parallel._simulate
            expected = {error}

            def failing(job, sweep=None):
                if job.benchmark == "vortex":
                    raise {error}
                return simulate(job, sweep)

            parallel._simulate = failing  # forked workers inherit it
            runner = ParallelRunner(jobs=2, cache_dir={str(tmp_path)!r})
            jobs = [SimJob(bench, starting_config(), {TINY})
                    for bench in ("go", "vortex", "li", "perl")]
            try:
                runner.run(jobs)
            except type(expected) as raised:
                print("typed", str(raised) == str(expected))
            cache = ResultCache({str(tmp_path)!r})
            print("cached", sum(
                cache.get(job_fingerprint(runner.resolve(job))) is not None
                for job in jobs))
        """)
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=path), timeout=120,
        )
        assert done.stdout.split() == ["typed", "True", "cached", "0"], \
            done.stderr
        # A failed batch caches nothing, not even its finished jobs.


class TestCampaignChunking:
    def test_chunks_partition_index_space(self):
        chunks = _chunk_indices(50, 3)
        flat = [i for chunk in chunks for i in chunk]
        assert flat == list(range(50))
        assert len(chunks) <= 12

    def test_more_jobs_than_runs(self):
        chunks = _chunk_indices(2, 8)
        assert [list(c) for c in chunks] == [[0], [1]]

    def test_zero_runs(self):
        assert _chunk_indices(0, 4) == []
