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

# All eleven re-pinned when the full-run warm-up started zeroing the
# D-TLB counters: only ``cache_stats["dtlb"]`` changed (gcc Baseline:
# hits 2046 -> 1024, misses 2 -> 0).  All eleven re-pinned again when
# ``Stats`` gained ``strikes`` (0 but for ``reese_env_faults``): with
# ``strikes`` dropped from the state dict each digest is its former pin.
PINS = {
    "Baseline": (
        "046a89a65e0117bce28a31cc435cf6e927a6b209a4abfe6ca301497a632d76da"
    ),
    "REESE": (
        "7f8d8ca4a623ec4dae0388e5e32a89e2399c961b475e2dde354d2104cbcae6d7"
    ),
    "R+1 ALU": (
        "ed63091956dde0539c2e4e8bb793e771b39ff84e41bb6bc25b1b7afc95bfc1c7"
    ),
    "R+2 ALU": (
        "29ea192c2e77ef95538fb5a2fa5704cdf90bc75f7bdec3c7e5e93fdc7be04d05"
    ),
    "R+2+1 Mult": (
        "8eebf51a36f6d12e46f18dba9be14a0d66f6a3c595e311c8b3bd34f21d645f98"
    ),
    "early_remove": (
        "3cb7d1eb8ffb36b80484b379f6b5df99d2020710643e10afaf0a370a8fcbf56c"
    ),
    "r_issue_width=2": (
        "eabf4601f69d1a87cd32f0a608a721d9a34bbaf8416d622b784f83b199b4514e"
    ),
    "rqueue_size=8": (
        "9938dcbc08733aa117794d56501207215f8411655f7cd9edceeaeb495a763aab"
    ),
    # Re-pinned when a store refused a memory port at commit stopped
    # being compared again the next cycle: only ``comparisons`` changed
    # (vortex 1082 -> 1041 and 2165 -> 2082, now equal to ``issued_r``).
    "r_duty_cycle=0.5": (
        "890f6b3ce988487522b2d94894845e08604ba4773b4170e28cd288a69f03078e"
    ),
    "dispatch_dup": (
        "91f01aa8766cadaeb4db9400020d16a47ce37021e924a0f117549eb6fd1f8c44"
    ),
    "reese_env_faults": (
        "c5d4293185a9d9752388b4ce0f23daf7effec7ba0a7b4891122f4f6d2577856b"
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
        stats = Pipeline(program, trace, config, warm=True,
                         observers=[shadowed]).run()
        expected = shadowed.count if config.dispatch_dup else stats.issued_r
        assert stats.comparisons == expected, bench


if __name__ == "__main__":
    all_traces = {bench: trace_for(bench, SCALE) for bench in BENCHMARKS}
    for name in MACHINES:
        print(f"    {name!r}: {_digest(all_traces, name)!r},")
