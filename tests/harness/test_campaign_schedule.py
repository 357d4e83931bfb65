"""Scheduled injection against per-instruction reference hooks.

Campaign runs call the emulator's hook only at the eligible-instruction
ordinals a plan names.  The reference hooks below are the campaigns'
former per-instruction injectors, kept verbatim: one sees every
eligible instruction and decides there whether to strike.  Each
scheduled run must give the same outcome and the same injection log as
its reference run, on every proxy, for Bernoulli and site plans alike.
The pins further down were captured with the per-instruction injectors.
"""

import random
from collections import Counter
from typing import List, Tuple

import pytest

from repro.analysis import analyze_program
from repro.arch.emulator import EmulatorError, emulate
from repro.arch.memory import MisalignedAccessError
from repro.harness.campaign import (
    CampaignResult,
    _classify,
    count_site_executions,
    run_campaign,
    run_site_campaign,
    sample_sites,
    site_plan,
)
from repro.harness.cli import main
from repro.reese.faults import BernoulliPlan, corrupt_value
from repro.workloads.suite import BENCHMARK_ORDER, BENCHMARKS

SCALE = 2000
#: Hang budget of every injected run, as a multiple of the golden length.
HANG_FACTOR = 4
SEEDS = (0, 1, 2)
BERNOULLI_RATE = 2e-3
BERNOULLI_RUNS = 6
SITE_RUNS = 8


def make_emulator_injector(rate: float, seed: int = 2001):
    """Reference Bernoulli hook: a strike draw at every instruction."""
    rng = random.Random(seed)
    log: List[Tuple[int, str, int]] = []

    def hook(dyn) -> None:
        if rng.random() >= rate:
            return
        bit = rng.randrange(32)
        if dyn.is_store:
            dyn.store_value = corrupt_value(dyn.store_value, bit)
        elif dyn.is_cond_branch:
            dyn.taken = not dyn.taken
        elif dyn.result is not None:
            dyn.result = corrupt_value(dyn.result, bit)
        else:
            return  # nothing corruptible (nop, j, ...)
        log.append((dyn.seq, dyn.op.name, bit))

    return hook, log


def make_site_injector(index: int, occurrence: int, bit: int):
    """Reference site hook: counts the executions of one instruction."""
    state = {"seen": 0}
    log: List[Tuple[int, str, int]] = []

    def hook(dyn) -> None:
        if dyn.static_index != index:
            return
        seen = state["seen"]
        state["seen"] = seen + 1
        if seen != occurrence or dyn.result is None:
            return
        dyn.result = corrupt_value(dyn.result, bit)
        log.append((dyn.seq, dyn.op.name, bit))

    return hook, log


def reference_classify(program, hook, log, budget, golden_state):
    """Outcome and log of one run under a per-instruction hook."""
    try:
        run = emulate(program, max_instructions=budget,
                      collect_trace=False, inject=hook)
    except (MisalignedAccessError, EmulatorError):
        return "crash", log
    if not log:
        return "clean", log
    if not run.halted:
        return "hang", log
    if (run.output, run.memory.snapshot()) == golden_state:
        return "masked", log
    return "sdc", log


@pytest.fixture(scope="module")
def proxies():
    """name -> (program, hang budget, golden state, execution counts)."""
    out = {}
    for name in BENCHMARK_ORDER:
        program = BENCHMARKS[name].build(scale=SCALE)
        golden_length = emulate(program, collect_trace=False).instructions
        budget = HANG_FACTOR * golden_length
        golden_state, counts = count_site_executions(program, budget)
        out[name] = (program, budget, golden_state, counts)
    return out


@pytest.fixture(scope="module")
def seen_outcomes():
    return Counter()


@pytest.mark.parametrize("name", BENCHMARK_ORDER)
class TestDifferential:
    def test_bernoulli_runs_match_reference(self, proxies, seen_outcomes,
                                            name):
        program, budget, golden_state, _counts = proxies[name]
        for seed in SEEDS:
            for run in range(BERNOULLI_RUNS):
                run_seed = 1000 * seed + run
                hook, log = make_emulator_injector(BERNOULLI_RATE, run_seed)
                expected = reference_classify(program, hook, log, budget,
                                              golden_state)
                plan = BernoulliPlan(BERNOULLI_RATE, run_seed, budget)
                got = _classify(program, plan, budget, golden_state)
                assert got == expected, (name, run_seed)
                seen_outcomes[got[0]] += 1

    def test_site_runs_match_reference(self, proxies, seen_outcomes, name):
        program, budget, golden_state, counts = proxies[name]
        analysis = analyze_program(program, use_cache=False)
        for seed in SEEDS:
            for sample in sample_sites(analysis, counts, SITE_RUNS, seed):
                hook, log = make_site_injector(sample.index,
                                               sample.occurrence, sample.bit)
                expected = reference_classify(program, hook, log, budget,
                                              golden_state)
                got = _classify(program, site_plan(counts, sample), budget,
                                golden_state)
                assert got == expected, (name, seed, sample)
                assert len(got[1]) == 1
                seen_outcomes[got[0]] += 1


def test_differential_covers_every_failure_outcome(seen_outcomes):
    if not seen_outcomes:
        pytest.skip("runs only after the differential tests")
    for outcome in ("masked", "sdc", "crash", "hang"):
        assert seen_outcomes[outcome] > 0, outcome


#: name -> (hang budget, Bernoulli outcomes, Bernoulli injections, site
#: by_class, site emulations) of ``run_campaign(runs=24, rate=2e-3,
#: seed=5)`` and ``run_site_campaign(runs=24, seed=5)`` at scale 2000,
#: both with a hang budget of 4x the golden length.
PINS = {
    "gcc": (
        27736, {"crash": 4, "sdc": 20}, 198,
        {
            "control": {"masked": 1, "sdc": 2},
            "dead": {"masked": 12},
            "live": {"masked": 4, "sdc": 5},
        },
        24,
    ),
    "go": (
        6356, {"clean": 2, "hang": 1, "sdc": 21}, 92,
        {
            "control": {"hang": 2, "masked": 2, "sdc": 10},
            "live": {"sdc": 10},
        },
        24,
    ),
    "ijpeg": (
        8460, {"clean": 1, "crash": 1, "hang": 3, "sdc": 19}, 147,
        {
            "control": {"hang": 3, "masked": 1},
            "dead": {"masked": 1},
            "live": {"sdc": 19},
        },
        24,
    ),
    "li": (
        32348, {"crash": 18, "sdc": 6}, 162,
        {
            "control": {"crash": 2, "masked": 1, "sdc": 1},
            "dead": {"masked": 17},
            "live": {"sdc": 3},
        },
        24,
    ),
    "perl": (
        44276, {"crash": 5, "hang": 4, "sdc": 15}, 950,
        {
            "control": {"crash": 1, "hang": 4, "sdc": 3},
            "dead": {"masked": 15},
            "live": {"sdc": 1},
        },
        24,
    ),
    "vortex": (
        8332, {"clean": 1, "sdc": 23}, 92,
        {
            "control": {"hang": 2, "masked": 1, "sdc": 18},
            "live": {"sdc": 3},
        },
        24,
    ),
}


@pytest.mark.parametrize("name", BENCHMARK_ORDER)
def test_campaigns_match_pins(proxies, name):
    program, budget, _golden, _counts = proxies[name]
    pin_budget, outcomes, injections, by_class, emulations = PINS[name]
    assert budget == pin_budget
    bernoulli = run_campaign(program, runs=24, rate=2e-3, seed=5,
                             max_instructions=budget)
    assert dict(bernoulli.outcomes) == outcomes
    assert bernoulli.injections == injections
    site = run_site_campaign(program, runs=24, seed=5,
                             max_instructions=budget,
                             use_analysis_cache=False)
    assert {klass: dict(counter)
            for klass, counter in site.by_class.items()
            if counter} == by_class
    assert site.emulations == emulations


class TestCampaignEdges:
    def test_zero_runs_report_renders(self, capsys):
        assert "0 runs" in CampaignResult("p", runs=0, rate=1e-3).report()
        assert main(["--scale", "500", "campaign", "gcc", "--runs", "0"]) == 0
        out = capsys.readouterr().out
        assert "  sdc         0 (0%)" in out

    @pytest.mark.parametrize("rate", [-0.1, 1.5, 2])
    def test_rate_outside_zero_one_is_rejected(self, rate, monkeypatch):
        from repro.harness import campaign

        def no_golden_run(*args, **kwargs):
            raise AssertionError("the rate is checked before the golden run")

        monkeypatch.setattr(campaign, "emulate", no_golden_run)
        program = BENCHMARKS["gcc"].build(scale=500)
        with pytest.raises(ValueError, match="probability"):
            run_campaign(program, runs=1, rate=rate)

    @pytest.mark.parametrize("rate", [0.0, 1.0])
    def test_rate_bounds_are_accepted(self, rate):
        program = BENCHMARKS["gcc"].build(scale=500)
        result = run_campaign(program, runs=2, rate=rate, seed=1)
        assert sum(result.outcomes.values()) == 2
        if rate == 0.0:
            assert result.outcomes["clean"] == 2
