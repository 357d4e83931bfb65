"""Determinism guarantees: identical inputs produce identical outputs.

Reproducibility is a stated design property (DESIGN.md §5): every
stochastic component is seeded, so simulations are bit-reproducible —
including under fault injection, recovery, and across all three
redundancy schemes.
"""

import pytest

from repro.harness import ParallelRunner, SimJob, run_sweep
from repro.reese import BernoulliFaultModel, EnvironmentalFaultModel
from repro.uarch import Pipeline, starting_config
from repro.workloads.suite import trace_for


def run_twice(config, fault_factory=None):
    program, trace = trace_for("perl", scale=3000)
    results = []
    for _ in range(2):
        fault = fault_factory() if fault_factory else None
        stats = Pipeline(
            program, trace, config, fault_model=fault,
            warm=True,
        ).run()
        results.append(stats.to_dict())
    return results


class TestBitReproducibility:
    def test_baseline(self):
        first, second = run_twice(starting_config())
        assert first == second

    def test_reese(self):
        first, second = run_twice(starting_config().with_reese())
        assert first == second

    def test_dispatch_dup(self):
        first, second = run_twice(starting_config().with_dispatch_dup())
        assert first == second

    def test_reese_with_environmental_faults(self):
        first, second = run_twice(
            starting_config().with_reese(),
            fault_factory=lambda: EnvironmentalFaultModel(
                rate=1e-3, duration=2, seed=77
            ),
        )
        assert first == second
        assert first["errors_detected"] == second["errors_detected"]

    def test_reese_with_bernoulli_faults(self):
        first, second = run_twice(
            starting_config().with_reese(),
            fault_factory=lambda: BernoulliFaultModel(rate=1e-4, seed=5),
        )
        assert first == second

    def test_different_fault_seeds_differ(self):
        program, trace = trace_for("perl", scale=3000)
        outcomes = set()
        for seed in (1, 2, 3, 4):
            stats = Pipeline(
                program, trace, starting_config().with_reese(),
                fault_model=EnvironmentalFaultModel(
                    rate=1e-3, duration=2, seed=seed
                ),
                warm=True,
            ).run()
            outcomes.add((stats.cycles, stats.errors_detected))
        assert len(outcomes) > 1  # seeds actually change behaviour


class TestParallelDeterminism:
    """The parallel layer must not perturb results in any way.

    Worker count, scheduling order and cache hits are all execution
    details; the (workload, config, seed) triple fully determines every
    Stats counter.
    """

    @classmethod
    def points(cls):
        base = starting_config()
        return [
            ("baseline", base),
            ("reese", base.with_reese()),
            ("reese+1alu", base.with_spares(1, 0).with_reese()),
        ]

    def test_sweep_jobs_1_vs_4_identical(self):
        kwargs = dict(benchmarks=["go", "perl"], scale=1500)
        sequential = run_sweep(
            self.points(), runner=ParallelRunner(jobs=1, use_cache=False),
            **kwargs)
        parallel = run_sweep(
            self.points(), runner=ParallelRunner(jobs=4, use_cache=False),
            **kwargs)
        assert len(sequential) == len(parallel)
        for seq_point, par_point in zip(sequential, parallel):
            assert seq_point.label == par_point.label
            assert {
                bench: stats.to_dict()
                for bench, stats in seq_point.stats.items()
            } == {
                bench: stats.to_dict()
                for bench, stats in par_point.stats.items()
            }

    def test_cache_hit_rerun_returns_equal_stats(self, tmp_path):
        kwargs = dict(benchmarks=["go"], scale=1500)
        cold = run_sweep(self.points(),
                         runner=ParallelRunner(jobs=2, cache_dir=tmp_path),
                         **kwargs)
        warm = run_sweep(self.points(),
                         runner=ParallelRunner(jobs=2, cache_dir=tmp_path),
                         **kwargs)
        for cold_point, warm_point in zip(cold, warm):
            for bench in cold_point.stats:
                assert (
                    cold_point.stats[bench].to_dict()
                    == warm_point.stats[bench].to_dict()
                )

    def test_cache_hit_rerun_simulates_nothing(self, tmp_path):
        runner = ParallelRunner(jobs=2, cache_dir=tmp_path)
        jobs = [
            SimJob(bench, config, 1500)
            for _, config in self.points()
            for bench in ("go", "perl")
        ]
        runner.run(jobs)
        assert runner.telemetry.cache_hits == 0
        runner.run(jobs)
        assert runner.telemetry.cache_hits == len(jobs)
        assert runner.telemetry.simulated == 0
