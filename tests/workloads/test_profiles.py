"""Tests for the six SPEC95-int proxy workloads.

Besides basic correctness (assembles, halts, scales), these pin each
proxy's *character* — the instruction-mix bands and branch behaviour the
REESE calibration depends on (see profiles.py docstring).
"""

import pytest

from repro.arch import emulate
from repro.workloads import BENCHMARK_ORDER, BENCHMARKS, mix_report
from repro.workloads.suite import trace_for


@pytest.fixture(scope="module")
def traces():
    return {
        name: trace_for(name, scale=8000)
        for name in BENCHMARK_ORDER
    }


class TestBasics:
    def test_table2_benchmarks_present(self):
        assert BENCHMARK_ORDER == ["gcc", "go", "ijpeg", "li", "perl", "vortex"]
        for name in BENCHMARK_ORDER:
            assert BENCHMARKS[name].paper_input  # provenance recorded

    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_builds_and_halts(self, name):
        program = BENCHMARKS[name].build(scale=3000)
        result = emulate(program, max_instructions=100_000)
        assert result.halted, f"{name} did not halt"
        assert result.output, f"{name} produced no output checksum"

    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_scale_controls_dynamic_length(self, name):
        # Some proxies quantise to whole passes over their data
        # structure, so compare widely separated scales and allow a
        # generous band around the request.
        small = emulate(BENCHMARKS[name].build(scale=3000),
                        max_instructions=800_000)
        large = emulate(BENCHMARKS[name].build(scale=36000),
                        max_instructions=800_000)
        assert large.instructions > small.instructions
        assert 0.3 * 36000 <= large.instructions <= 2.0 * 36000

    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_deterministic_per_seed(self, name):
        a = emulate(BENCHMARKS[name].build(scale=3000),
                    max_instructions=100_000)
        b = emulate(BENCHMARKS[name].build(scale=3000),
                    max_instructions=100_000)
        assert a.output == b.output
        assert a.instructions == b.instructions

    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_seed_changes_behaviour(self, name):
        a = emulate(BENCHMARKS[name].build(scale=3000, seed=1),
                    max_instructions=100_000)
        b = emulate(BENCHMARKS[name].build(scale=3000, seed=2),
                    max_instructions=100_000)
        assert a.output != b.output


class TestCharacter:
    def test_gcc_is_load_and_branch_rich(self, traces):
        mix = mix_report(traces["gcc"][1])
        assert 0.10 <= mix["load"] <= 0.40
        assert mix["branch"] >= 0.08

    def test_go_is_branchiest(self, traces):
        mixes = {n: mix_report(t) for n, (_, t) in traces.items()}
        assert mixes["go"]["branch"] >= 0.15

    def test_ijpeg_is_multiply_rich(self, traces):
        mixes = {n: mix_report(t) for n, (_, t) in traces.items()}
        assert mixes["ijpeg"]["mul_div"] == max(
            m["mul_div"] for m in mixes.values()
        )
        assert mixes["ijpeg"]["mul_div"] >= 0.15

    def test_li_has_stack_traffic(self, traces):
        mix = mix_report(traces["li"][1])
        assert mix["store"] >= 0.05  # register spills
        trace = traces["li"][1]
        assert any(d.static.op.name == "JAL" for d in trace)

    def test_perl_uses_byte_loads(self, traces):
        trace = traces["perl"][1]
        assert any(d.static.op.name == "LBU" for d in trace)

    def test_vortex_is_store_heavy(self, traces):
        mixes = {n: mix_report(t) for n, (_, t) in traces.items()}
        assert mixes["vortex"]["store"] == max(
            m["store"] for m in mixes.values()
        )
        assert mixes["vortex"]["store"] >= 0.10

    def test_every_proxy_has_some_alu_work(self, traces):
        for name, (_, trace) in traces.items():
            assert mix_report(trace)["alu"] >= 0.3, name


class TestSuiteHelpers:
    def test_trace_cache_memoises(self):
        from repro.workloads.suite import _trace_cache, clear_trace_cache
        clear_trace_cache()
        first = trace_for("go", scale=2000)
        second = trace_for("go", scale=2000)
        assert first[1] is second[1]
        clear_trace_cache()
        assert not _trace_cache

    def test_unknown_benchmark_raises(self):
        from repro.workloads import load
        with pytest.raises(KeyError):
            load("mcf")

    def test_trace_cache_is_lru_bounded(self, monkeypatch):
        from repro.workloads import suite
        monkeypatch.setenv("REPRO_TRACE_CACHE", "3")
        suite.clear_trace_cache()
        try:
            for seed in range(5):
                trace_for("go", scale=1000, seed=seed)
            assert len(suite._trace_cache) == 3
            # Oldest seeds were evicted; newest survive.
            assert set(suite._trace_cache) == {
                ("go", 1000, seed) for seed in (2, 3, 4)
            }
            # A hit refreshes recency: touch seed 2, insert seed 5,
            # and seed 3 (now the least recently used) is the victim.
            trace_for("go", scale=1000, seed=2)
            trace_for("go", scale=1000, seed=5)
            assert ("go", 1000, 2) in suite._trace_cache
            assert ("go", 1000, 3) not in suite._trace_cache
        finally:
            suite.clear_trace_cache()

    def test_trace_cache_malformed_env_warns(self, monkeypatch):
        from repro.workloads import suite
        monkeypatch.setenv("REPRO_TRACE_CACHE", "lots")
        with pytest.warns(RuntimeWarning, match="malformed"):
            assert suite._trace_cache_limit() == suite.TRACE_CACHE_LIMIT

    def test_mix_report_fractions_sum_to_one(self, traces):
        for _, trace in traces.values():
            mix = mix_report(trace)
            assert sum(mix.values()) == pytest.approx(1.0)

    def test_mix_report_empty(self):
        assert mix_report([]) == {}
