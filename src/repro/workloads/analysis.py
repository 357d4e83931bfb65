"""Workload characterisation from dynamic traces.

The REESE result depends on workload *character* — idle capacity,
burstiness, dependence structure — more than on instruction count, so
this module quantifies the properties the proxies were calibrated to:

* instruction-class mix (see also :func:`repro.workloads.suite.mix_report`);
* **register dependence distances** (producer→consumer gap in dynamic
  instructions) — short distances mean serial code, long ones ILP;
* an **ideal-ILP estimate**: the critical-path length of the trace's
  data-dependence graph under infinite resources and unit latencies,
  giving IPC_inf = instructions / critical path;
* **branch statistics**: taken rate, per-static-branch direction
  entropy (a predictability proxy that needs no predictor model);
* **working-set sizes**: distinct data bytes and instruction lines.

Used by the Table 2 bench, workload regression tests, and anyone
porting the suite to a new simulator.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..arch.trace import Trace, packed
from ..isa.instructions import INST_SIZE


@dataclass
class BranchProfile:
    """Conditional-branch behaviour of a trace."""

    conditional: int = 0
    taken: int = 0
    #: mean per-static-branch direction entropy, in bits (0 = fully
    #: biased, 1 = coin flip); weighted by execution count.
    mean_entropy: float = 0.0

    @property
    def taken_rate(self) -> float:
        return self.taken / self.conditional if self.conditional else 0.0


@dataclass
class TraceProfile:
    """Full characterisation of one dynamic trace."""

    instructions: int
    critical_path: int
    dep_distances: Counter = field(default_factory=Counter)
    branch: BranchProfile = field(default_factory=BranchProfile)
    data_bytes_touched: int = 0
    inst_lines_touched: int = 0

    @property
    def ideal_ipc(self) -> float:
        """IPC with infinite resources and unit latencies."""
        return (
            self.instructions / self.critical_path
            if self.critical_path
            else 0.0
        )

    @property
    def mean_dep_distance(self) -> float:
        total = sum(self.dep_distances.values())
        if not total:
            return 0.0
        weighted = sum(d * c for d, c in self.dep_distances.items())
        return weighted / total

    def report(self) -> str:
        lines = [
            f"instructions:        {self.instructions}",
            f"critical path:       {self.critical_path} "
            f"(ideal IPC {self.ideal_ipc:.2f})",
            f"mean dep distance:   {self.mean_dep_distance:.1f} insts",
            f"cond branches:       {self.branch.conditional} "
            f"(taken {self.branch.taken_rate:.0%}, "
            f"entropy {self.branch.mean_entropy:.2f} bits)",
            f"data working set:    {self.data_bytes_touched} bytes",
            f"inst working set:    {self.inst_lines_touched} lines",
        ]
        return "\n".join(lines)


def _entropy(taken: int, total: int) -> float:
    if total == 0 or taken in (0, total):
        return 0.0
    p = taken / total
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def windowed_ilp(trace: Trace, window: int = 64) -> List[float]:
    """Ideal ILP of each consecutive ``window``-instruction slice.

    Dependences are evaluated *within* each window (a fresh dependence
    graph per slice), giving the local parallelism the machine sees at
    window granularity.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    trace = packed(trace)
    statics = trace.statics
    ilps: List[float] = []
    for start in range(0, len(trace), window):
        chunk = trace.index[start:start + window]
        if len(chunk) < 2:
            continue
        last_writer: Dict[int, int] = {}
        depth_of: Dict[int, int] = {}
        critical = 1
        for position, idx in enumerate(chunk):
            static = statics[idx]
            depth = 0
            for src in static.srcs:
                producer = last_writer.get(src)
                if producer is not None:
                    depth = max(depth, depth_of[producer])
            depth += 1
            depth_of[position] = depth
            if depth > critical:
                critical = depth
            if static.dst >= 0:
                last_writer[static.dst] = position
        ilps.append(len(chunk) / critical)
    return ilps


def burstiness(trace: Trace, window: int = 64) -> float:
    """Coefficient of variation of windowed ILP (0 = steady, >0.3 bursty).

    The REESE overhead mechanism depends on this property: steady
    workloads let the R stream ride permanent idle capacity, while
    bursts larger than the R-stream Queue throttle the P stream — which
    is why the proxy workloads carry explicit ILP bursts (DESIGN.md).
    """
    ilps = windowed_ilp(trace, window)
    if len(ilps) < 2:
        return 0.0
    mean = sum(ilps) / len(ilps)
    if mean == 0:
        return 0.0
    variance = sum((value - mean) ** 2 for value in ilps) / len(ilps)
    return math.sqrt(variance) / mean


def analyze_trace(trace: Trace, line_size: int = 32) -> TraceProfile:
    """Characterise a dynamic trace (single pass over its columns, O(n))."""
    last_writer: Dict[int, int] = {}
    depth_of: Dict[int, int] = {}   # position -> dependence depth
    critical = 0
    distances: Counter = Counter()
    branch_outcomes: Dict[int, List[int]] = defaultdict(lambda: [0, 0])
    data_lines = set()
    inst_lines = set()
    cond = taken_count = 0

    trace = packed(trace)
    statics = trace.statics
    for position, (idx, taken, ea) in enumerate(trace.rows()):
        static = statics[idx]
        inst_lines.add(static.pc // (line_size // INST_SIZE * INST_SIZE))
        depth = 0
        for src in static.srcs:
            producer = last_writer.get(src)
            if producer is not None:
                distances[position - producer] += 1
                depth = max(depth, depth_of.get(producer, 0))
        depth += 1
        depth_of[position] = depth
        if depth > critical:
            critical = depth
        if static.dst >= 0:
            last_writer[static.dst] = position
        if (static.is_load or static.is_store) and ea is not None:
            data_lines.add(ea // line_size)
        if static.is_cond_branch:
            cond += 1
            stats = branch_outcomes[idx]
            if taken:
                taken_count += 1
                stats[0] += 1
            stats[1] += 1

    weighted_entropy = 0.0
    if cond:
        for taken, total in branch_outcomes.values():
            weighted_entropy += _entropy(taken, total) * total
        weighted_entropy /= cond

    profile = TraceProfile(
        instructions=len(trace),
        critical_path=critical,
        dep_distances=distances,
        data_bytes_touched=len(data_lines) * line_size,
        inst_lines_touched=len(inst_lines),
    )
    profile.branch = BranchProfile(
        conditional=cond, taken=taken_count, mean_entropy=weighted_entropy
    )
    return profile
