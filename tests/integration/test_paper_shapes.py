"""Regression tests pinning the paper's qualitative results.

These run the actual figure workloads at a reduced scale (enough for
the shapes to be stable) and assert the claims of §6/§6.1:

* REESE without spares costs measurable IPC on the starting config;
* spare integer ALUs substantially close the gap;
* vortex shows no REESE penalty (the paper's anomaly);
* ijpeg is rescued specifically by the spare multiplier;
* large-RUU machines keep a big gap that extra FUs collapse (Fig. 7).
"""

import statistics

import pytest

from repro.uarch import Pipeline, large_machine_config, starting_config
from repro.workloads import BENCHMARK_ORDER
from repro.workloads.suite import trace_for

SCALE = 8000
_WARM = dict(warm=True)


@pytest.fixture(scope="module")
def traces():
    return {name: trace_for(name, scale=SCALE) for name in BENCHMARK_ORDER}


def avg_ipc(traces, config):
    return statistics.mean(
        Pipeline(p, t, config, **_WARM).run().ipc
        for p, t in traces.values()
    )


@pytest.fixture(scope="module")
def starting_ipcs(traces):
    config = starting_config()
    return {
        "base": avg_ipc(traces, config),
        "reese": avg_ipc(traces, config.with_reese()),
        "r2a": avg_ipc(traces, config.with_spares(alu=2).with_reese()),
        "r2a1m": avg_ipc(
            traces, config.with_spares(alu=2, mult=1).with_reese()
        ),
    }


class TestStartingConfigClaims:
    def test_reese_costs_performance(self, starting_ipcs):
        gap = 1 - starting_ipcs["reese"] / starting_ipcs["base"]
        assert 0.04 <= gap <= 0.30  # paper: 11-16%

    def test_two_spare_alus_close_most_of_the_gap(self, starting_ipcs):
        gap = 1 - starting_ipcs["reese"] / starting_ipcs["base"]
        spared = 1 - starting_ipcs["r2a"] / starting_ipcs["base"]
        assert spared < gap * 0.75

    def test_full_spares_approach_zero_degradation(self, starting_ipcs):
        # §7: "Adding only two integer ALUs ... approaches our goal of
        # zero performance degradation."
        gap = 1 - starting_ipcs["r2a1m"] / starting_ipcs["base"]
        assert gap <= 0.05

    def test_vortex_anomaly(self, traces):
        # Fig. 2 discussion: vortex's baseline IPC is *lower* than (or
        # equal to) REESE before spare elements are added.
        program, trace = traces["vortex"]
        config = starting_config()
        base = Pipeline(program, trace, config, **_WARM).run().ipc
        reese = Pipeline(
            program, trace, config.with_reese(), **_WARM
        ).run().ipc
        assert reese >= base * 0.98

    def test_spare_multiplier_rescues_ijpeg(self, traces):
        program, trace = traces["ijpeg"]
        config = starting_config()
        base = Pipeline(program, trace, config, **_WARM).run().ipc
        r2a = Pipeline(
            program, trace, config.with_spares(alu=2).with_reese(), **_WARM
        ).run().ipc
        r2a1m = Pipeline(
            program, trace,
            config.with_spares(alu=2, mult=1).with_reese(), **_WARM,
        ).run().ipc
        assert r2a1m > r2a  # the multiplier is what ijpeg needed
        assert r2a1m >= base * 0.9


class TestFigure7Claims:
    def test_ruu_growth_alone_keeps_the_gap(self, traces):
        config = large_machine_config(64)
        base = avg_ipc(traces, config)
        reese = avg_ipc(traces, config.with_reese())
        assert 1 - reese / base >= 0.10  # paper: ~15%

    def test_extra_fus_collapse_the_gap(self, traces):
        plain = large_machine_config(64)
        extra = large_machine_config(64, extra_fus=True)
        plain_gap = 1 - avg_ipc(traces, plain.with_reese()) / avg_ipc(
            traces, plain
        )
        extra_gap = 1 - avg_ipc(traces, extra.with_reese()) / avg_ipc(
            traces, extra
        )
        assert extra_gap < plain_gap * 0.6
        assert extra_gap < 0.12  # paper: ~1.5%
