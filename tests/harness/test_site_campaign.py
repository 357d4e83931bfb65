"""Site-level fault campaigns and the static-masking oracle."""

import pytest

from repro.isa import assemble
from repro.analysis import CLASS_DEAD, CLASS_LIVE, analyze_program
from repro.harness.campaign import (
    MismatchRecord,
    OracleMismatch,
    SiteSample,
    _classify,
    count_site_executions,
    run_site_campaign,
    sample_sites,
    site_plan,
)
from repro.workloads.suite import BENCHMARKS

# Every live site feeds the output directly: any corruption is SDC.
LIVE_SOURCE = """
main:
    li r1, 5
    putint r1
    li r2, 7
    putint r2
    halt
"""

# r9 and r10 are never read: both sites are dead.
DEAD_SOURCE = """
main:
    li r9, 3
    li r10, 4
    li r1, 1
    putint r1
    halt
"""


@pytest.fixture
def live_program():
    return assemble(LIVE_SOURCE, name="live")


@pytest.fixture
def dead_program():
    return assemble(DEAD_SOURCE, name="deadish")


class TestSiteInjector:
    def test_corrupts_only_the_requested_occurrence(self, live_program):
        from repro.arch import emulate
        from repro.reese import PlannedInjector
        golden, counts = count_site_executions(live_program)
        assert counts[0] == 1
        plan = site_plan(counts, SiteSample(0, 1, CLASS_LIVE, 0, 0))
        assert plan == ((0, 0),)
        injector = PlannedInjector(plan)
        run = emulate(live_program, inject=injector.hook,
                      schedule=injector.schedule())
        assert len(injector.log) == 1
        assert run.output[0] == 4  # 5 with bit 0 flipped
        assert run.output[1] == 7  # untouched
        assert _classify(live_program, plan, 100, golden)[0] == "sdc"

    def test_occurrence_beyond_count_is_a_noop(self, live_program):
        golden, counts = count_site_executions(live_program)
        plan = site_plan(counts, SiteSample(0, 1, CLASS_LIVE, 5, 0))
        assert plan == ()
        assert _classify(live_program, plan, 100, golden) == ("clean", [])

    def test_ordinal_counts_eligible_instructions_only(self):
        # The nops and the halt are not eligible: ``li`` is ordinal 0,
        # then ``addi`` and ``bnez`` alternate, so ``addi`` runs at 1, 3, 5.
        program = assemble("""
        main:
            li   r1, 3
            nop
        loop:
            addi r1, r1, -1
            nop
            bnez r1, loop
            putint r1
            halt
        """, name="nops")
        _golden, counts = count_site_executions(program)
        assert counts[2] == 3
        assert [counts.ordinal(2, k) for k in range(4)] == [1, 3, 5, None]


class TestSampling:
    def test_deterministic_in_seed(self, live_program):
        analysis = analyze_program(live_program, use_cache=False)
        _golden, counts = count_site_executions(live_program)
        a = sample_sites(analysis, counts, runs=10, seed=3)
        b = sample_sites(analysis, counts, runs=10, seed=3)
        c = sample_sites(analysis, counts, runs=10, seed=4)
        assert a == b
        assert a != c

    def test_quota_sums_to_runs(self, dead_program):
        analysis = analyze_program(dead_program, use_cache=False)
        _golden, counts = count_site_executions(dead_program)
        samples = sample_sites(analysis, counts, runs=9, seed=0)
        assert len(samples) == 9
        # Both classes (dead and live) are represented.
        assert {s.klass for s in samples} == {CLASS_DEAD, CLASS_LIVE}

    def test_class_restriction(self, dead_program):
        analysis = analyze_program(dead_program, use_cache=False)
        _golden, counts = count_site_executions(dead_program)
        samples = sample_sites(analysis, counts, runs=6, seed=0,
                               classes=[CLASS_DEAD])
        assert samples and all(s.klass == CLASS_DEAD for s in samples)

    def test_never_executed_sites_excluded(self):
        program = assemble("""
        main:
            li   r1, 1
            beqz zero, skip
            li   r2, 9
            putint r2
        skip:
            putint r1
            halt
        """, name="skewed")
        analysis = analyze_program(program, use_cache=False)
        _golden, counts = count_site_executions(program)
        samples = sample_sites(analysis, counts, runs=20, seed=0)
        assert all(counts[s.index] > 0 for s in samples)


class TestOracle:
    def test_live_sites_visibly_corrupt(self, live_program, tmp_path):
        result = run_site_campaign(
            live_program, runs=6, seed=0,
            classes=[CLASS_LIVE], analysis_cache_dir=tmp_path,
        )
        assert result.visible(CLASS_LIVE) == result.runs > 0
        assert result.mismatches == []

    def test_dead_sites_always_masked(self, dead_program, tmp_path):
        result = run_site_campaign(
            dead_program, runs=8, seed=0,
            classes=[CLASS_DEAD], analysis_cache_dir=tmp_path,
        )
        assert result.by_class[CLASS_DEAD]["masked"] == result.runs
        assert result.mismatches == []
        result.raise_on_mismatch()  # no-op when empty

    def test_suite_benchmark_oracle_holds(self, tmp_path):
        program = BENCHMARKS["gcc"].build(scale=1000)
        result = run_site_campaign(
            program, runs=15, seed=1, analysis_cache_dir=tmp_path,
        )
        assert result.mismatches == []
        assert result.emulations == result.runs

    def test_worker_count_invariance(self, dead_program, tmp_path):
        kwargs = dict(runs=10, seed=2, analysis_cache_dir=tmp_path)
        serial = run_site_campaign(dead_program, jobs=1, **kwargs)
        threaded = run_site_campaign(dead_program, jobs=2, **kwargs)
        assert serial.by_class == threaded.by_class
        assert serial.site_pool == threaded.site_pool

    def test_skip_dead_settles_without_emulating(self, dead_program,
                                                 tmp_path):
        full = run_site_campaign(dead_program, runs=10, seed=2,
                                 analysis_cache_dir=tmp_path)
        skipped = run_site_campaign(dead_program, runs=10, seed=2,
                                    skip_dead=True,
                                    analysis_cache_dir=tmp_path)
        assert skipped.outcomes == full.outcomes
        assert skipped.skipped_dead > 0
        assert skipped.emulations == full.emulations - skipped.skipped_dead

    def test_analysis_cache_reused(self, dead_program, tmp_path):
        cold = run_site_campaign(dead_program, runs=4, seed=0,
                                 analysis_cache_dir=tmp_path)
        warm = run_site_campaign(dead_program, runs=4, seed=0,
                                 analysis_cache_dir=tmp_path)
        assert not cold.analysis_from_cache
        assert warm.analysis_from_cache
        assert warm.by_class == cold.by_class


class TestMismatchPlumbing:
    def _record(self):
        return MismatchRecord(
            program_name="p", index=3, reg=9, klass=CLASS_DEAD,
            occurrence=0, bit=7, outcome="sdc", instruction="addi ...",
        )

    def test_render_names_the_injection(self):
        text = self._record().render()
        assert "p@3" in text and "dead" in text and "sdc" in text

    def test_exception_carries_records(self):
        record = self._record()
        error = OracleMismatch([record])
        assert error.mismatches == [record]
        assert "1 static-oracle mismatch(es)" in str(error)

    def test_raise_on_mismatch(self, dead_program, tmp_path):
        result = run_site_campaign(dead_program, runs=4, seed=0,
                                   analysis_cache_dir=tmp_path)
        result.mismatches.append(self._record())
        with pytest.raises(OracleMismatch):
            result.raise_on_mismatch()

    def test_report_flags_mismatches(self, dead_program, tmp_path):
        result = run_site_campaign(dead_program, runs=4, seed=0,
                                   analysis_cache_dir=tmp_path)
        assert "0 mismatches" in result.report()
        result.mismatches.append(self._record())
        assert "ORACLE MISMATCHES: 1" in result.report()

    def test_strict_mode_passes_when_sound(self, dead_program, tmp_path):
        result = run_site_campaign(dead_program, runs=6, seed=0,
                                   strict=True,
                                   analysis_cache_dir=tmp_path)
        assert result.mismatches == []


class TestSiteSampleShape:
    def test_samples_are_frozen(self):
        sample = SiteSample(index=1, reg=2, klass=CLASS_LIVE,
                            occurrence=0, bit=3)
        with pytest.raises(AttributeError):
            sample.bit = 4
