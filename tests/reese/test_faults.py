"""Unit tests for transient-fault models and corruption helpers."""

import pytest

from repro.arch import emulate
from repro.reese import (
    BernoulliFaultModel,
    BernoulliPlan,
    EnvironmentalFaultModel,
    NoFaults,
    PlannedInjector,
    ScheduledFaultModel,
    corrupt_value,
    flip_float_bit,
    flip_int_bit,
)


class TestCorruption:
    def test_flip_int_bit(self):
        assert flip_int_bit(0, 0) == 1
        assert flip_int_bit(1, 0) == 0
        assert flip_int_bit(0, 31) == -(2**31)

    def test_flip_int_bit_wraps_index(self):
        assert flip_int_bit(0, 32) == flip_int_bit(0, 0)

    def test_flip_is_involution(self):
        for value in (-7, 0, 12345, 2**31 - 1):
            for bit in (0, 5, 31):
                assert flip_int_bit(flip_int_bit(value, bit), bit) == value

    def test_flip_float_bit(self):
        corrupted = flip_float_bit(1.0, 0)
        assert corrupted != 1.0
        assert flip_float_bit(corrupted, 0) == 1.0

    def test_corrupt_none_is_noop(self):
        assert corrupt_value(None, 5) is None

    def test_corrupt_tuple_targets_payload(self):
        assert corrupt_value((0x1000, 8), 0) == (0x1000, 9)

    def test_corrupt_changes_value(self):
        for value in (0, -1, 3.5, (1, 2)):
            assert corrupt_value(value, 3) != value


class TestNoFaults:
    def test_never_fires(self):
        model = NoFaults()
        assert all(model.sample(cycle) is None for cycle in range(100))
        assert model.strikes == 0
        assert model.queries == 100


class TestScheduled:
    def test_window_semantics(self):
        model = ScheduledFaultModel([(10, 3, 5)])
        assert model.fault_bit_at(9) is None
        assert model.fault_bit_at(10) == 5
        assert model.fault_bit_at(12) == 5
        assert model.fault_bit_at(13) is None

    def test_multiple_events(self):
        model = ScheduledFaultModel([(10, 2, 1), (20, 2, 2)])
        assert model.fault_bit_at(11) == 1
        assert model.fault_bit_at(21) == 2
        assert model.fault_bit_at(15) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            ScheduledFaultModel([(0, 0, 1)])
        with pytest.raises(ValueError):
            ScheduledFaultModel([(0, 1, 64)])

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError, match="duration"):
            ScheduledFaultModel([(10, -2, 1)])

    def test_rejects_overlapping_windows(self):
        # [10, 15) and [12, 15) overlap.
        with pytest.raises(ValueError, match="overlap"):
            ScheduledFaultModel([(10, 5, 1), (12, 3, 2)])

    def test_rejects_overlap_regardless_of_input_order(self):
        with pytest.raises(ValueError, match="overlap"):
            ScheduledFaultModel([(20, 5, 1), (18, 4, 2)])

    def test_touching_windows_are_legal(self):
        # [10, 12) then [12, 14): adjacent but disjoint.
        model = ScheduledFaultModel([(10, 2, 1), (12, 2, 2)])
        assert model.fault_bit_at(11) == 1
        assert model.fault_bit_at(12) == 2

    def test_duplicate_start_overlaps(self):
        with pytest.raises(ValueError, match="overlap"):
            ScheduledFaultModel([(10, 1, 1), (10, 1, 2)])


class TestEnvironmental:
    def test_deterministic_with_seed(self):
        def strikes(seed):
            model = EnvironmentalFaultModel(rate=0.01, duration=3, seed=seed)
            return [model.fault_bit_at(cycle) for cycle in range(5000)]
        assert strikes(7) == strikes(7)
        assert strikes(7) != strikes(8)

    def test_event_duration_contiguous(self):
        model = EnvironmentalFaultModel(rate=0.001, duration=5, seed=3)
        hits = [cycle for cycle in range(200_000)
                if model.fault_bit_at(cycle) is not None]
        assert hits, "expected at least one event in 200k cycles"
        # Hits group into runs of exactly `duration` cycles.
        runs = []
        run_start = hits[0]
        previous = hits[0]
        for cycle in hits[1:]:
            if cycle != previous + 1:
                runs.append(previous - run_start + 1)
                run_start = cycle
            previous = cycle
        runs.append(previous - run_start + 1)
        assert all(length == 5 for length in runs)

    def test_rate_roughly_respected(self):
        model = EnvironmentalFaultModel(rate=1e-3, duration=1, seed=11)
        events = sum(
            model.fault_bit_at(cycle) is not None for cycle in range(100_000)
        )
        assert 50 <= events <= 200  # ~100 expected

    def test_validation(self):
        with pytest.raises(ValueError):
            EnvironmentalFaultModel(rate=0, duration=1)
        with pytest.raises(ValueError):
            EnvironmentalFaultModel(rate=0.1, duration=0)


class TestBernoulli:
    def test_rate_one_always_fires(self):
        model = BernoulliFaultModel(rate=1.0, seed=1)
        assert all(model.sample(c) is not None for c in range(50))

    def test_rate_zero_never_fires(self):
        model = BernoulliFaultModel(rate=0.0, seed=1)
        assert all(model.sample(c) is None for c in range(50))

    def test_validation(self):
        with pytest.raises(ValueError):
            BernoulliFaultModel(rate=1.5)


def _run_plan(program, plan):
    injector = PlannedInjector(plan)
    run = emulate(program, inject=injector.hook,
                  schedule=injector.schedule())
    return run, injector.log


class TestEmulatorInjector:
    def test_corrupts_and_logs(self):
        from repro.workloads import kernels
        program, expected = kernels.vector_sum(64, seed=2)
        corrupted, log = _run_plan(
            program, BernoulliPlan(rate=0.05, seed=9, limit=10_000))
        clean = emulate(program)
        assert log, "expected at least one injection at 5% rate"
        assert clean.output == [expected]
        # Silent data corruption: the result differs, no error raised.
        assert corrupted.output != clean.output

    def test_zero_rate_is_transparent(self):
        from repro.workloads import kernels
        program, expected = kernels.fibonacci(25)
        plan = BernoulliPlan(rate=0.0, seed=2001, limit=10_000)
        assert list(plan) == []
        result, log = _run_plan(program, plan)
        assert result.output == [expected]
        assert log == []

    def test_plan_replays_per_instruction_draws(self):
        import random
        rng = random.Random(5)
        expected = []
        for ordinal in range(2000):
            if rng.random() < 0.01:
                expected.append((ordinal, rng.randrange(32)))
        assert list(BernoulliPlan(rate=0.01, seed=5, limit=2000)) == expected

    def test_rate_one_strikes_every_ordinal(self):
        plan = list(BernoulliPlan(rate=1.0, seed=3, limit=50))
        assert [ordinal for ordinal, _bit in plan] == list(range(50))
        assert all(0 <= bit < 32 for _ordinal, bit in plan)
