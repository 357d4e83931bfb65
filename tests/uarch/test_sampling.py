"""Unit tests for the sampled + fast-forward simulation engine."""

import pytest

from repro.uarch import (
    Pipeline,
    SampledResult,
    SamplingSpec,
    Stats,
    WarmState,
    WarmSweep,
    build_warm_state,
    interval_selection,
    mispredict_profile,
    run_interval,
    run_sampled,
    select_intervals,
    starting_config,
)
from repro.arch.trace import DynInst
from repro.reese.faults import EnvironmentalFaultModel
from repro.uarch.sampling import interval_count, resequence
from repro.workloads.suite import BENCHMARKS, trace_for

SCALE = 3000


@pytest.fixture(scope="module")
def workload():
    return trace_for("li", SCALE)


@pytest.fixture(scope="module")
def cfg():
    return starting_config()


class TestSamplingSpec:
    def test_defaults(self):
        spec = SamplingSpec(10)
        assert spec.interval_length == 300
        assert spec.placement == "profile"
        assert spec.index is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"intervals": 0},
            {"intervals": 4, "interval_length": 0},
            {"intervals": 4, "warmup": -1},
            {"intervals": 4, "cooldown": -1},
            {"intervals": 4, "placement": "stratified"},
            {"intervals": 4, "index": 4},
            {"intervals": 4, "index": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SamplingSpec(**kwargs)

    def test_index_in_range_ok(self):
        assert SamplingSpec(4, index=3).index == 3


class TestSelectIntervals:
    def test_profile_requires_prefix_sums(self):
        with pytest.raises(ValueError, match="profile"):
            select_intervals(10_000, SamplingSpec(4))

    def test_empty_trace(self):
        assert select_intervals(0, SamplingSpec(4, placement="end")) == []

    @pytest.mark.parametrize("placement", ["profile", "random", "end"])
    def test_degenerate_contiguous_partition(self, placement):
        # Requested coverage >= trace: every placement falls back to
        # the contiguous partition (full detailed simulation).
        spec = SamplingSpec(4, 300, placement=placement)
        bounds = select_intervals(1000, spec)
        assert bounds == [(0, 0, 300), (300, 300, 600), (600, 600, 900),
                          (900, 900, 1000)]

    @pytest.mark.parametrize("placement", ["random", "end"])
    def test_windows_ordered_and_disjoint(self, placement):
        spec = SamplingSpec(7, 100, warmup=30, placement=placement)
        bounds = select_intervals(10_000, spec)
        assert len(bounds) == 7
        previous_end = 0
        for warm_start, measure_start, end in bounds:
            assert previous_end <= warm_start <= measure_start < end
            assert end - measure_start <= spec.interval_length
            assert measure_start - warm_start <= spec.warmup
            previous_end = end

    def test_profile_placement_deterministic(self, workload, cfg):
        program, trace = workload
        profile = mispredict_profile(program, trace, cfg)
        spec = SamplingSpec(5, 150, warmup=40)
        first = select_intervals(len(trace), spec, profile)
        second = select_intervals(len(trace), spec, profile)
        assert first == second
        assert len(first) == 5
        previous_end = 0
        for warm_start, measure_start, end in first:
            assert previous_end <= warm_start <= measure_start < end
            previous_end = end

    def test_profile_spans_density_quantiles(self, workload, cfg):
        # The chosen windows must not all come from one density
        # extreme: with k windows over distinct densities, the picked
        # set spans more than one density value whenever the grid does.
        program, trace = workload
        profile = mispredict_profile(program, trace, cfg)
        spec = SamplingSpec(5, 150)
        bounds = select_intervals(len(trace), spec, profile)
        densities = {profile[end] - profile[m0] for _, m0, end in bounds}
        assert len(densities) > 1

    def test_random_placement_seeded(self):
        spec_a = SamplingSpec(5, 100, placement="random", seed=7)
        spec_b = SamplingSpec(5, 100, placement="random", seed=8)
        same = select_intervals(50_000, spec_a)
        assert same == select_intervals(50_000, spec_a)
        assert same != select_intervals(50_000, spec_b)

    @pytest.mark.parametrize("placement", ["profile", "random", "end"])
    @pytest.mark.parametrize("total", [0, 1, 299, 300, 1199, 1200, 1201,
                                       10_000])
    def test_interval_count_needs_no_profile(self, placement, total):
        # The harness expands a sampled job before any profile exists.
        spec = SamplingSpec(4, 300, placement=placement)
        profile = list(range(total + 1))
        bounds = select_intervals(total, spec, profile)
        assert interval_count(total, spec) == len(bounds)

    def test_selection_carries_the_regressor_data(self, workload, cfg):
        program, trace = workload
        spec = SamplingSpec(5, 150, warmup=40)
        profile = mispredict_profile(program, trace, cfg)
        selection = interval_selection(program, trace, cfg, spec)
        assert selection.bounds == select_intervals(len(trace), spec, profile)
        assert selection.mispredicts == [
            profile[end] - profile[m0] for _, m0, end in selection.bounds]
        assert selection.total_mispredicts == profile[-1]
        end = interval_selection(program, trace, cfg,
                                 SamplingSpec(5, 150, placement="end"))
        assert end.mispredicts is None and end.total_mispredicts is None


PREDICTORS = ("gshare", "bimodal", "combining", "local", "taken",
              "nottaken", "perfect")


class TestMispredictProfile:
    @pytest.mark.parametrize("bench", list(BENCHMARKS))
    @pytest.mark.parametrize("predictor", PREDICTORS)
    def test_matches_detailed_pipeline_exactly(self, bench, predictor):
        # Mispredict events are a pure trace property (predictors train
        # at fetch with trace ground truth), so the functional replay
        # must reproduce the detailed simulator's count exactly.
        program, trace = trace_for(bench, 2000)
        cfg = starting_config().replace(predictor=predictor)
        profile = mispredict_profile(program, trace, cfg)
        assert len(profile) == len(trace) + 1
        stats = Pipeline(program, trace, cfg).run()
        assert profile[-1] == stats.mispredictions

    def test_prefix_sums_monotonic(self, workload, cfg):
        program, trace = workload
        profile = mispredict_profile(program, trace, cfg)
        assert profile[0] == 0
        assert all(a <= b for a, b in zip(profile, profile[1:]))


class TestWarmState:
    def test_snapshot_isolated_from_sweep(self, workload, cfg):
        program, trace = workload
        state = WarmState(program, cfg)
        state.advance(trace, 0, 500)
        snap = state.snapshot()
        state.advance(trace, 500, 1500)
        # The snapshot's structures are separate objects with their own
        # state; the sweep advancing must not have touched them.
        assert snap.predictor is not state.predictor
        assert snap.mem is not state.mem
        assert snap.btb is not state.btb
        other = WarmState(program, cfg)
        other.advance(trace, 0, 500)
        reference = other.snapshot()
        assert snap.btb._tags == reference.btb._tags
        assert snap.ras._stack == reference.ras._stack

    def test_snapshot_zeroes_statistics(self, workload, cfg):
        program, trace = workload
        state = WarmState(program, cfg)
        state.warm_full(trace)
        state.advance(trace, 0, 1000)
        snap = state.snapshot()
        assert snap.mem.l1d.accesses == 0
        assert snap.predictor.lookups == 0
        assert snap.btb.hits == 0 and snap.btb.misses == 0
        assert snap.ras.pushes == 0 and snap.ras.pops == 0

    def test_incremental_equals_from_scratch(self, workload, cfg):
        # The warm fold is associative over trace prefixes: advancing
        # incrementally must land in the same state as one shot.
        program, trace = workload
        incremental = WarmState(program, cfg)
        incremental.warm_full(trace)
        incremental.advance(trace, 0, 700)
        incremental.advance(trace, 700, 1400)
        spec = SamplingSpec(1, placement="end")
        reference = build_warm_state(WarmSweep(program, trace, cfg, spec),
                                     1400)
        snap = incremental.snapshot()
        assert snap.btb._tags == reference.btb._tags
        assert snap.btb._targets == reference.btb._targets
        assert snap.ras._stack == reference.ras._stack
        assert snap.mem.l1d._tags == reference.mem.l1d._tags
        assert snap.mem.l2._stamp == reference.mem.l2._stamp
        assert snap.mem.l2._tick == reference.mem.l2._tick

    def test_warm_full_run_warms_its_own_state(self, workload, cfg):
        # A warm full run runs on the WarmState it warmed, not a copy,
        # and the warm pass leaves no count behind.
        program, trace = workload
        pipe = Pipeline(program, trace, cfg, warm=True)
        state = pipe.warm_state
        assert pipe.mem is state.mem
        assert pipe.predictor is state.predictor
        reference = WarmState(program, cfg)
        reference.warm_full(trace)
        assert state.mem.l1d._tags == reference.mem.l1d._tags
        assert state.mem.l1d.accesses == 0
        assert state.mem.dtlb.hits == 0 and state.mem.dtlb.misses == 0
        assert state.predictor.lookups == 0

    def test_sweep_only_moves_forward(self, workload, cfg):
        program, trace = workload
        spec = SamplingSpec(1, placement="end")
        sweep = WarmSweep(program, trace, cfg, spec)
        build_warm_state(sweep, 900)
        with pytest.raises(ValueError, match="past start"):
            build_warm_state(sweep, 400)


class TestResequence:
    def test_copies_every_slot_and_renumbers(self, workload):
        _program, trace = workload
        window = resequence(trace, 1000, 1400)
        assert len(window) == 400
        for offset, (copy, dyn) in enumerate(zip(window, trace[1000:1400])):
            assert copy is not dyn
            assert copy.seq == offset
            for name in DynInst.__slots__:
                if name != "seq":
                    assert getattr(copy, name) == getattr(dyn, name), name
        # The trace itself keeps its own numbering.
        assert trace[1000].seq == 1000

    def test_sweep_builds_each_window_once(self, workload, cfg):
        program, trace = workload
        sweep = WarmSweep(program, trace, cfg, SamplingSpec(4, 150))
        window = sweep.window(1000, 1400)
        assert sweep.window(1000, 1400) is window
        other = sweep.window(1400, 1600)
        assert other is not window and len(other) == 200

    @pytest.mark.parametrize("variant", ["reese", "dispatch_dup"])
    def test_pipeline_never_writes_its_trace_records(self, workload, cfg,
                                                     variant):
        # The jobs of a warm group that run one interval share its
        # window, so no run may leave a mark on the records.
        program, trace = workload
        config = (cfg.with_reese() if variant == "reese"
                  else cfg.with_dispatch_dup())
        window = resequence(trace, 1000, 1600)
        before = [tuple(getattr(dyn, name) for name in DynInst.__slots__)
                  for dyn in window]
        for fault in (None, EnvironmentalFaultModel(rate=2e-2, duration=3,
                                                     seed=5)):
            Pipeline(program, window, config, fault_model=fault).run()
        assert [tuple(getattr(dyn, name) for name in DynInst.__slots__)
                for dyn in window] == before


class TestRunSampled:
    def test_intervals_match_fanout_byte_identical(self, workload, cfg):
        program, trace = workload
        spec = SamplingSpec(4, 150, warmup=40, cooldown=40)
        result = run_sampled(program, trace, cfg, spec)
        for index in range(4):
            solo = run_interval(program, trace, cfg, spec, index)
            assert solo.state_dict() == \
                result.interval_stats[index].state_dict()

    def test_from_interval_stats_round_trip(self, workload, cfg):
        program, trace = workload
        spec = SamplingSpec(4, 150)
        selection = interval_selection(program, trace, cfg, spec)
        result = run_sampled(program, trace, cfg, spec)
        rebuilt = SampledResult.from_interval_stats(
            spec, len(trace), result.interval_stats, selection
        )
        assert rebuilt.ipc == result.ipc
        assert rebuilt.ipc_ci == result.ipc_ci
        assert rebuilt.intervals == result.intervals

    def test_from_interval_stats_length_mismatch(self, workload, cfg):
        program, trace = workload
        spec = SamplingSpec(4, 150)
        selection = interval_selection(program, trace, cfg, spec)
        with pytest.raises(ValueError, match="interval Stats"):
            SampledResult.from_interval_stats(
                spec, len(trace), [Stats()], selection
            )

    def test_reasonable_accuracy_vs_full_run(self, workload, cfg):
        program, trace = workload
        full = Pipeline(program, trace, cfg, warm=True).run()
        spec = SamplingSpec(6, 200, warmup=50, cooldown=50)
        result = run_sampled(program, trace, cfg, spec)
        assert result.ipc == pytest.approx(full.ipc, rel=0.05)

    def test_degenerate_covers_everything(self, workload, cfg):
        program, trace = workload
        spec = SamplingSpec(len(trace) // 300 + 1, 300)
        result = run_sampled(program, trace, cfg, spec)
        assert result.measured_instructions == len(trace)
        assert result.detail_fraction == 1.0
        # Full coverage: the ratio estimate is used (regression would
        # have nothing to extrapolate).
        assert "ratio" in result.summary()

    def test_observable_metadata(self, workload, cfg):
        program, trace = workload
        spec = SamplingSpec(4, 150)
        result = run_sampled(program, trace, cfg, spec)
        assert result.total_instructions == len(trace)
        assert 0.0 < result.detail_fraction < 1.0
        assert result.simulated_fraction >= result.detail_fraction
        assert len(result.interval_ipcs) == 4
        assert result.ipc_ci >= 0.0
        assert "sampled 4x150" in result.summary()


class TestEstimators:
    def _stats(self, committed, cycles):
        stats = Stats()
        stats.committed = committed
        stats.cycles = cycles
        stats.halted = True
        return stats

    def test_regression_recovers_exact_linear_model(self):
        # cycles = 2*insts + 10*mispredicts, constructed exactly.
        spec = SamplingSpec(3, 100)
        intervals = [(0, 0, 100), (400, 400, 500), (800, 800, 900)]
        mispredicts = [0, 10, 30]
        interval_stats = [
            self._stats(100, 2 * 100 + 10 * m) for m in mispredicts
        ]
        result = SampledResult(
            spec, 1000, intervals, interval_stats,
            interval_mispredicts=mispredicts, total_mispredicts=50,
        )
        expected_cycles = 2 * 1000 + 10 * 50
        assert result.estimated_cycles == pytest.approx(expected_cycles)
        assert result.ipc == pytest.approx(1000 / expected_cycles)
        # A perfect fit has zero residual, hence a zero CI.
        assert result.ipc_ci == pytest.approx(0.0, abs=1e-9)

    def test_ratio_fallback_without_regressors(self):
        spec = SamplingSpec(2, 100, placement="end")
        intervals = [(0, 0, 100), (400, 400, 500)]
        interval_stats = [self._stats(100, 50), self._stats(100, 150)]
        result = SampledResult(spec, 1000, intervals, interval_stats)
        assert result.estimated_cycles == pytest.approx(
            200 * 1000 / 200
        )
        assert result.ipc == pytest.approx(result.stats.ipc)

    def test_ratio_fallback_on_degenerate_mispredict_spread(self):
        # Identical mispredict counts cannot identify b: fall back.
        spec = SamplingSpec(2, 100)
        intervals = [(0, 0, 100), (400, 400, 500)]
        interval_stats = [self._stats(100, 120), self._stats(100, 130)]
        result = SampledResult(
            spec, 1000, intervals, interval_stats,
            interval_mispredicts=[5, 5], total_mispredicts=50,
        )
        assert result.ipc == pytest.approx(result.stats.ipc)

    def test_single_interval_has_zero_ci(self):
        spec = SamplingSpec(1, 100, placement="end")
        result = SampledResult(
            spec, 1000, [(0, 0, 100)], [self._stats(100, 80)]
        )
        assert result.ipc_ci == 0.0
