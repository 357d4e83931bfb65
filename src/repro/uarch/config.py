"""Machine configuration: Table 1 of the paper, plus named variants.

:func:`starting_config` reproduces the REESE paper's "starting
configuration" (Table 1):

========================== =========================================
Fetch queue size            16
Max IPC for pipeline stages 8 (fetch/decode/issue/commit widths)
RUU / LSQ                   16 / 8 entries
Functional units            4 IntALU, 1 IntMult/Div, same for FP
Memory ports                2
L1 D-cache                  32 KB, 2-way, 2-cycle hit
L1 I-cache                  32 KB, 2-way, 2-cycle hit
L2 (unified, shared w/ D)   512 KB, 4-way, 12-cycle hit
Branch predictor            gshare [26]
Registers                   32 GP, 32 FP
========================== =========================================

The figures' hardware variations are expressed as transformations of
this config (see :mod:`repro.harness.experiments`):

* Figure 3: RUU 32 / LSQ 16;
* Figure 4: 16-wide datapath (keeps the larger RUU/LSQ);
* Figure 5: 4 memory ports;
* Figure 7: RUU 64/256 (LSQ half), optionally with extra FUs;
* spare-element variants: +1/+2 integer ALUs, +1 integer mult/div.

Functional-unit latencies follow SimpleScalar 2.0 defaults: IntALU 1;
IntMult 3 (pipelined) and IntDiv 20 (unpipelined) sharing one unit;
FPAdd 2; FPMult 4 and FPDiv 12 sharing one unit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..memhier.hierarchy import MemHierParams


@dataclass(frozen=True)
class LatencyConfig:
    """Operation and issue (reuse) latencies per functional-unit kind."""

    int_alu: int = 1
    int_mult: int = 3
    int_mult_issue: int = 1
    int_div: int = 20
    int_div_issue: int = 19      # unpipelined: unit blocked for the op
    fp_add: int = 2
    fp_add_issue: int = 1
    fp_mult: int = 4
    fp_mult_issue: int = 1
    fp_div: int = 12
    fp_div_issue: int = 12

    def __post_init__(self) -> None:
        # The pipeline's completion wheel needs every operation to finish
        # strictly after the cycle that issues it.
        for name, value in dataclasses.asdict(self).items():
            if value < 1:
                raise ValueError(f"latency {name} must be >= 1, got {value}")


@dataclass(frozen=True)
class ReeseConfig:
    """REESE-specific knobs.

    Attributes:
        enabled: run with the R-stream Queue and redundant execution.
        rqueue_size: capacity of the R-stream Queue.  ``0`` (the
            default) derives it as ``max(32, ruu_size)``: the paper
            starts at 32 entries for a 16-entry RUU and sizes the queue
            "slightly more area than the RUU" (§7), so large-RUU
            machines get a matching queue.
        early_remove: allow completed P instructions to leave the RUU
            into the R-stream Queue before reaching the RUU head — the
            paper's §4.3 "complex RUU/R-queue interaction" optimisation.
            Off by default: the paper's base design moves instructions
            that are "ready to be committed" (completed, at the head),
            and the optimisation is described speculatively; we provide
            it as an ablation (it extends the effective window and can
            make REESE *outperform* the baseline on small RUUs).
        r_duty_cycle: re-execute one in every ``round(1/r_duty_cycle)``
            instructions (1.0 = full duplication; the paper's §7
            future-work partial re-execution extension).
        high_water_margin: when R-queue occupancy reaches
            ``rqueue_size - high_water_margin``, R-stream instructions
            get issue priority for the cycle (the paper's overflow-
            avoiding scheduler counters).
        r_issue_width: maximum R-stream instructions dequeued for
            redundant execution per cycle.  ``0`` (the default) derives
            it as the machine's issue width: every functional unit in
            REESE carries its own result-comparison path, so R
            dispatch is bound by functional-unit and issue-slot
            availability rather than by dedicated dequeue ports (see
            EXPERIMENTS.md for the sensitivity sweep).
        max_retry: consecutive comparison failures of one instruction
            before the machine stops and reports an unrecoverable error.
    """

    enabled: bool = False
    rqueue_size: int = 0  # 0 = auto: max(32, ruu_size)
    early_remove: bool = False
    r_duty_cycle: float = 1.0
    high_water_margin: int = 8
    r_issue_width: int = 0  # 0 = auto-scale with commit width
    max_retry: int = 2

    def __post_init__(self) -> None:
        if self.rqueue_size < 0:
            raise ValueError("rqueue_size must be non-negative (0 = auto)")
        if not 0.0 < self.r_duty_cycle <= 1.0:
            raise ValueError("r_duty_cycle must be in (0, 1]")
        if self.rqueue_size and not 0 <= self.high_water_margin < self.rqueue_size:
            raise ValueError("high_water_margin must be < rqueue_size")
        if self.r_issue_width < 0:
            raise ValueError("r_issue_width must be non-negative (0 = auto)")


@dataclass(frozen=True)
class MachineConfig:
    """Full configuration of one simulated machine."""

    name: str = "starting"
    # Front end / widths ("Max IPC for other pipeline stages" in Table 1).
    fetch_queue_size: int = 16
    fetch_width: int = 8
    decode_width: int = 8
    issue_width: int = 8
    commit_width: int = 8
    # Window.
    ruu_size: int = 16
    lsq_size: int = 8
    # Functional units.
    int_alu: int = 4
    int_mult: int = 1     # combined integer multiplier/divider units
    fp_alu: int = 4       # FP adders ("same for FP" in Table 1)
    fp_mult: int = 1      # combined FP multiplier/divider units
    mem_ports: int = 2
    latencies: LatencyConfig = field(default_factory=LatencyConfig)
    # Branch prediction.
    predictor: str = "gshare"
    predictor_kwargs: Dict[str, Any] = field(default_factory=dict)
    btb_entries: int = 512
    ras_depth: int = 16
    # Memory hierarchy.
    mem: MemHierParams = field(default_factory=MemHierParams)
    # REESE.
    reese: ReeseConfig = field(default_factory=ReeseConfig)
    # Alternative time-redundancy scheme from the related work (§3,
    # Franklin 1995): duplicate every instruction at the dynamic
    # scheduler so both copies occupy RUU/LSQ slots and issue slots,
    # comparing at commit.  Mutually exclusive with REESE; exists to
    # quantify why REESE's post-completion R-stream Queue is cheaper.
    dispatch_dup: bool = False

    def __post_init__(self) -> None:
        for attr in (
            "fetch_queue_size", "fetch_width", "decode_width", "issue_width",
            "commit_width", "ruu_size", "lsq_size", "int_alu", "mem_ports",
        ):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")
        if self.int_mult < 0 or self.fp_alu < 0 or self.fp_mult < 0:
            raise ValueError("functional-unit counts must be non-negative")
        if self.lsq_size > self.ruu_size:
            raise ValueError("lsq_size cannot exceed ruu_size")
        if self.dispatch_dup and self.reese.enabled:
            raise ValueError("dispatch_dup and REESE are mutually exclusive")
        if self.dispatch_dup and (self.ruu_size < 2 or self.lsq_size < 2):
            raise ValueError("dispatch_dup needs RUU/LSQ sizes of at least 2")

    # -- derived transformations ---------------------------------------

    def replace(self, **changes) -> "MachineConfig":
        """A copy of this config with fields replaced."""
        return dataclasses.replace(self, **changes)

    def with_reese(self, **reese_changes) -> "MachineConfig":
        """A copy with REESE enabled (and optional REESE knob changes)."""
        reese = dataclasses.replace(self.reese, enabled=True, **reese_changes)
        return dataclasses.replace(
            self, reese=reese, name=f"{self.base_name}+reese"
        )

    def without_reese(self) -> "MachineConfig":
        """A copy with REESE disabled (the baseline model)."""
        reese = dataclasses.replace(self.reese, enabled=False)
        return dataclasses.replace(
            self, reese=reese, dispatch_dup=False, name=self.base_name
        )

    def with_dispatch_dup(self) -> "MachineConfig":
        """A copy running the dispatch-duplication comparison scheme."""
        reese = dataclasses.replace(self.reese, enabled=False)
        return dataclasses.replace(
            self,
            reese=reese,
            dispatch_dup=True,
            name=f"{self.base_name}+dup",
        )

    def with_spares(self, alu: int = 0, mult: int = 0) -> "MachineConfig":
        """A copy with spare integer functional units added.

        This is the paper's *spare capacity*: extra integer ALUs and/or
        integer multiplier-dividers grafted onto an otherwise identical
        machine.
        """
        if alu < 0 or mult < 0:
            raise ValueError("spare counts must be non-negative")
        suffix = ""
        if alu:
            suffix += f"+{alu}alu"
        if mult:
            suffix += f"+{mult}mult"
        return dataclasses.replace(
            self,
            int_alu=self.int_alu + alu,
            int_mult=self.int_mult + mult,
            name=self.name + suffix,
        )

    @property
    def base_name(self) -> str:
        """Name stripped of the redundancy-scheme markers."""
        return self.name.replace("+reese", "").replace("+dup", "")


def starting_config(**overrides) -> MachineConfig:
    """The paper's Table 1 starting configuration."""
    return MachineConfig(**overrides) if overrides else MachineConfig()


def bigger_window_config() -> MachineConfig:
    """Figure 3's variation: RUU and LSQ doubled (32 / 16)."""
    return MachineConfig(name="ruu32", ruu_size=32, lsq_size=16)


def wide_datapath_config() -> MachineConfig:
    """Figure 4's variation: 16-wide datapath on the larger window."""
    return MachineConfig(
        name="wide16",
        ruu_size=32,
        lsq_size=16,
        fetch_width=16,
        decode_width=16,
        issue_width=16,
        commit_width=16,
    )


def more_mem_ports_config() -> MachineConfig:
    """Figure 5's variation: 4 memory ports (on the 16-wide machine)."""
    return MachineConfig(
        name="memports4",
        ruu_size=32,
        lsq_size=16,
        fetch_width=16,
        decode_width=16,
        issue_width=16,
        commit_width=16,
        mem_ports=4,
    )


def large_machine_config(
    ruu_size: int, extra_fus: bool = False
) -> MachineConfig:
    """Figure 7's large machines: RUU 64/256, LSQ = RUU/2, optional FUs.

    Only the window (and, with ``extra_fus``, the functional units) grow;
    widths and memory ports stay at the starting configuration's values,
    matching the paper's "we adjusted the RUU ... and compare the results
    of adding functional units in addition to the large RUU".  The paper
    does not state the "More FUs" counts; per DESIGN.md we use 8 integer
    ALUs, 2 integer multiplier/dividers, 4 memory ports (with matching FP
    units), documented in EXPERIMENTS.md.
    """
    name = f"ruu{ruu_size}" + ("+fus" if extra_fus else "")
    kwargs: Dict[str, Any] = dict(
        name=name,
        ruu_size=ruu_size,
        lsq_size=ruu_size // 2,
    )
    if extra_fus:
        kwargs.update(int_alu=8, int_mult=2, fp_alu=8, fp_mult=2, mem_ports=4)
    return MachineConfig(**kwargs)
