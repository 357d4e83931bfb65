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
# hits 2046 -> 1024, misses 2 -> 0).
PINS = {
    "Baseline": (
        "b7700a7819366a7cbe5e757a91fceba2fd7f3e4e2cffe825a5bbdaac0af79a3a"
    ),
    "REESE": (
        "5d065e8f9bbd348634446e3e7e753c430c6074f8e063e45d128b30ae5be1e4eb"
    ),
    "R+1 ALU": (
        "f2dce8ddb55ca24f1c7c3f00bcf6fddcb3e55077e029bfe42a1b142046ce4e28"
    ),
    "R+2 ALU": (
        "4a279ce227bd22adf86ee36f1112f326327c9519a468308da129ac45d26d6723"
    ),
    "R+2+1 Mult": (
        "4ec8579cb1bf3aa617dacfc0466e85a55d21fdaa9176244229b1c3e9384dc648"
    ),
    "early_remove": (
        "46818c27858886d9a0dae05e4084a0d3610dbb97efcdb26928397fea1a63dabe"
    ),
    "r_issue_width=2": (
        "468d88a7d3a66f32aa0d9be6ecebf9dd53d85836c8c7c2d31231626ca9deab82"
    ),
    "rqueue_size=8": (
        "55bb52f91e0526132721dfd78dc76c2aa1a683ec8f74697ebaa04fdcbd977716"
    ),
    # Re-pinned when a store refused a memory port at commit stopped
    # being compared again the next cycle: only ``comparisons`` changed
    # (vortex 1082 -> 1041 and 2165 -> 2082, now equal to ``issued_r``).
    "r_duty_cycle=0.5": (
        "ae70034c08c54dbfcfb3aed7624973d6dd9806100b3dfab58dabba771553bb78"
    ),
    "dispatch_dup": (
        "b8b89e657cf74557bcd5d4ed919fedcd07a1eedacce7a861b4434aa888a73bb0"
    ),
    "reese_env_faults": (
        "eea70c7d539721b3787ef28a88e2d5b8d032011dda2dc4ee82dc41735635bd5f"
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
