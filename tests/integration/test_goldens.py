"""Golden-value regression tests.

The simulator is deterministic, so the exact cycle counts of the proxy
benchmarks on the Table 1 machine are pinned here. These goldens exist
to catch *accidental* behavioural changes (a modelling bug introduced
by a refactor) — if you change the timing model **deliberately**,
re-generate them:

    python - <<'PY'
    from repro.workloads import BENCHMARK_ORDER
    from repro.workloads.suite import trace_for
    from repro.uarch import Pipeline, starting_config
    kw = dict(warm=True)
    for n in BENCHMARK_ORDER:
        p, t = trace_for(n, scale=3000)
        b = Pipeline(p, t, starting_config(), **kw).run()
        r = Pipeline(p, t, starting_config().with_reese(), **kw).run()
        d = Pipeline(p, t, starting_config().with_dispatch_dup(), **kw).run()
        print(n, len(t), b.cycles, r.cycles, d.cycles)
    PY

and update EXPERIMENTS.md if the figure shapes moved.
"""

import pytest

from repro.uarch import Pipeline, starting_config
from repro.workloads.suite import trace_for

GOLDEN = {
    "gcc": dict(trace_len=6934, baseline_cycles=2290, reese_cycles=3076,
                dup_cycles=4226),
    "go": dict(trace_len=2400, baseline_cycles=1699, reese_cycles=1701,
               dup_cycles=2132),
    "ijpeg": dict(trace_len=3155, baseline_cycles=1528, reese_cycles=1603,
                  dup_cycles=3491),
    "li": dict(trace_len=8087, baseline_cycles=4395, reese_cycles=4797,
               dup_cycles=6051),
    "perl": dict(trace_len=11069, baseline_cycles=4765, reese_cycles=5201,
                 dup_cycles=7380),
    "vortex": dict(trace_len=3133, baseline_cycles=2143, reese_cycles=2145,
                   dup_cycles=2776),
}

_WARM = dict(warm=True)


@pytest.mark.parametrize("name", sorted(GOLDEN))
class TestGoldens:
    def test_trace_length(self, name):
        _, trace = trace_for(name, scale=3000)
        assert len(trace) == GOLDEN[name]["trace_len"]

    def test_baseline_cycles(self, name):
        program, trace = trace_for(name, scale=3000)
        stats = Pipeline(program, trace, starting_config(), **_WARM).run()
        assert stats.cycles == GOLDEN[name]["baseline_cycles"]

    def test_reese_cycles(self, name):
        program, trace = trace_for(name, scale=3000)
        stats = Pipeline(
            program, trace, starting_config().with_reese(), **_WARM
        ).run()
        assert stats.cycles == GOLDEN[name]["reese_cycles"]

    def test_dispatch_dup_cycles(self, name):
        program, trace = trace_for(name, scale=3000)
        stats = Pipeline(
            program, trace, starting_config().with_dispatch_dup(), **_WARM
        ).run()
        assert stats.cycles == GOLDEN[name]["dup_cycles"]


class TestGoldenOrdering:
    """Scheme ordering must hold on every benchmark: base <= REESE <= dup."""

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_scheme_cost_ordering(self, name):
        values = GOLDEN[name]
        assert values["baseline_cycles"] <= values["reese_cycles"]
        assert values["reese_cycles"] <= values["dup_cycles"]
