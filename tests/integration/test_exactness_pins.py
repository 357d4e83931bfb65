"""Exactness pins: the full ``Stats`` of every cycle-loop path.

Each pin is the sha256 of the canonical JSON (sorted keys, no
whitespace) of ``[bench, Stats.state_dict()]`` over the six proxies at
scale 2000, one pin per machine.  The machines cover the five Figure 2
series (including the spare-ALU R+ configurations), the REESE knobs
Figure 2 never sets (early removal, a narrow R issue width, a small
R-stream Queue whose high-water mark forces R-first issue, partial
re-execution), the dispatch-duplication scheme and a REESE run under
environmental faults.  A speed change to the pipeline must leave every
pin unchanged; a deliberate timing-model change re-pins them with::

    PYTHONPATH=src python -m tests.integration.test_exactness_pins
"""

import hashlib
import json

import pytest

from repro.harness.experiments import figure2_spec
from repro.harness.runner import run_model
from repro.reese import EnvironmentalFaultModel
from repro.uarch import Pipeline, starting_config
from repro.workloads.suite import BENCHMARKS, trace_for

SCALE = 2000


def _machines():
    """``label -> (config, fault_model factory or None)``."""
    machines = {
        label: (config, None) for label, config in figure2_spec().series
    }
    reese = starting_config().with_reese
    machines.update({
        "early_remove": (reese(early_remove=True), None),
        "r_issue_width=2": (reese(r_issue_width=2), None),
        "rqueue_size=8": (reese(rqueue_size=8, high_water_margin=2), None),
        "r_duty_cycle=0.5": (reese(r_duty_cycle=0.5), None),
        "dispatch_dup": (starting_config().with_dispatch_dup(), None),
        "reese_env_faults": (
            reese(), lambda: EnvironmentalFaultModel(2e-3, 3)
        ),
    })
    return machines


MACHINES = _machines()

PINS = {
    "Baseline": (
        "21dd86451c419d194d1f156c89c42f17c0c8d994b99173564c8e5e58f069036d"
    ),
    "REESE": (
        "0165c25dd98f92b7b0414a34d08f222d1879f5a11062a5c094e76cf57b59bff9"
    ),
    "R+1 ALU": (
        "7f2884e0e0b262fc1d9c3d753e90b541a4a7ad79fdb3f9caac0ea4b87f833849"
    ),
    "R+2 ALU": (
        "f4658cb7fdb8f68c2d2d0d46501bac34b003b535c4947caf655539055bf285e2"
    ),
    "R+2+1 Mult": (
        "edc2d4cf66409f4b449efe0a361951dff04c3fa003dca733cae391c2f82fc641"
    ),
    "early_remove": (
        "22aed90353786f6927783f583e8b22403bfef1dad1b1c59ff4d46f41eff8a733"
    ),
    "r_issue_width=2": (
        "12d92156823b9248033b058dae679a41a222ea55908d16e0a587e0fb5ae3dfe2"
    ),
    "rqueue_size=8": (
        "d5ab2cd783667368bb25f0ae925067135620a70ccf9018ed2920d1b5526e5431"
    ),
    # Re-pinned when a store refused a memory port at commit stopped
    # being compared again the next cycle: only ``comparisons`` changed
    # (vortex 1082 -> 1041 and 2165 -> 2082, now equal to ``issued_r``).
    "r_duty_cycle=0.5": (
        "0ed818c73707acd96392c9a4bf58544407b6e9bdc8b21f975753eb347bc71566"
    ),
    "dispatch_dup": (
        "7a0445220542bf2a29fbbd8363ed94cfd2b3f42df54f9eef59cb6d3549ca066f"
    ),
    "reese_env_faults": (
        "5955e53ca7c5b336e79f08498708f668a590345689c4324c47704c28cb8d2bd2"
    ),
}


@pytest.fixture(scope="module")
def traces():
    return {bench: trace_for(bench, SCALE) for bench in BENCHMARKS}


def _digest(traces, label):
    config, faults = MACHINES[label]
    rows = []
    for bench, (program, trace) in traces.items():
        fault_model = faults() if faults is not None else None
        stats = run_model(program, trace, config, fault_model=fault_model)
        rows.append([bench, stats.state_dict()])
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_every_machine_is_pinned():
    assert sorted(PINS) == sorted(MACHINES)


@pytest.mark.parametrize("label", list(PINS))
def test_stats_match_pin(traces, label):
    assert _digest(traces, label) == PINS[label]


class _ShadowedCommits:
    """Observer counting commits of instructions with a duplicate."""

    def __init__(self):
        self.count = 0

    def on_commit(self, cycle, entry):
        if entry.shadow:
            self.count += 1


@pytest.mark.parametrize("label", list(MACHINES))
def test_each_instruction_is_compared_once(traces, label):
    # Fault-free, every re-executed (REESE) or duplicated (dispatch-dup)
    # instruction is compared exactly once, however long a store waits
    # for a memory port at commit.
    config, _faults = MACHINES[label]
    for bench, (program, trace) in traces.items():
        shadowed = _ShadowedCommits()
        stats = Pipeline(program, trace, config, warm_caches=True,
                         warm_predictor=True, observers=[shadowed]).run()
        expected = shadowed.count if config.dispatch_dup else stats.issued_r
        assert stats.comparisons == expected, bench


if __name__ == "__main__":
    all_traces = {bench: trace_for(bench, SCALE) for bench in BENCHMARKS}
    for name in MACHINES:
        print(f"    {name!r}: {_digest(all_traces, name)!r},")
