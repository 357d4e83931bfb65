"""Profile-driven random program generator.

Generates structurally valid, always-terminating programs with a
controlled instruction mix — used by property-based tests (any
generated program must emulate and simulate identically under baseline
and REESE) and by design-space sweeps that need workloads off the
six-benchmark grid.

A generated program is a single counted loop whose body is ``block_size``
randomly drawn instructions:

* computational ops pick sources among recently written registers
  (geometric dependence distance, so ILP is tunable);
* loads/stores address a private working-set region with random offsets;
* ``div`` guards its divisor with ``ori 1`` so semantics never trap;
* branches are short *forward* skips conditioned either on the loop
  counter (predictable) or on data values (hard to predict), per
  ``branch_predictability``;
* floating-point ops (``fp``) convert data registers to floats, combine
  floats, compare them back into a data register, and load and store
  them in the working set.

The register file is partitioned: r1 = loop counter, r2 = working-set
base, r3 = scratch, r8..r25 = the rotating data registers, f1..f8 the
floating-point registers.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, List

from ..isa.assembler import assemble
from ..isa.program import Program

_DATA_REGS = list(range(8, 26))


@dataclass(frozen=True)
class MixProfile:
    """Target dynamic instruction mix for generated programs.

    Fractions need not sum to 1; the remainder becomes plain ALU ops.
    """

    name: str = "default"
    mul: float = 0.04
    div: float = 0.005
    load: float = 0.22
    store: float = 0.10
    branch: float = 0.12
    #: fraction of branches conditioned on predictable state
    branch_predictability: float = 0.7
    #: mean dependence distance (higher = more ILP)
    dep_distance: float = 4.0
    working_set_words: int = 1024
    block_size: int = 40
    fp: float = 0.0

    def __post_init__(self) -> None:
        total = (self.mul + self.div + self.load + self.store + self.branch
                 + self.fp)
        if total > 0.95:
            raise ValueError("mix fractions leave no room for ALU ops")
        for frac in (self.mul, self.div, self.load, self.store, self.branch,
                     self.fp):
            if frac < 0:
                raise ValueError("mix fractions must be non-negative")
        if not 0 <= self.branch_predictability <= 1:
            raise ValueError("branch_predictability must be in [0, 1]")
        if self.working_set_words <= 0 or self.working_set_words & 3:
            raise ValueError("working_set_words must be positive, multiple of 4")
        if self.block_size < 8:
            raise ValueError("block_size must be >= 8")


#: A few ready-made profiles for sweeps.
PROFILES: Dict[str, MixProfile] = {
    "default": MixProfile(),
    "ilp_rich": MixProfile(name="ilp_rich", dep_distance=8.0, branch=0.08,
                           branch_predictability=0.95),
    "branchy": MixProfile(name="branchy", branch=0.25,
                          branch_predictability=0.4),
    "memory_bound": MixProfile(name="memory_bound", load=0.35, store=0.18,
                               working_set_words=65536),
    "mul_heavy": MixProfile(name="mul_heavy", mul=0.15, div=0.02),
    "fp_heavy": MixProfile(name="fp_heavy", fp=0.35, branch=0.08),
}

#: The floating-point ops an ``fp`` draw picks from.
_FP_OPS = ("cvtif", "fadd", "fsub", "fmul", "fdiv", "fcmplt", "lwf", "swf")


class ProgramGenerator:
    """Deterministic random program generator for one profile."""

    def __init__(self, profile: MixProfile, seed: int = 0) -> None:
        self.profile = profile
        self.seed = seed

    def generate(self, n_dynamic: int = 10_000) -> Program:
        """Build a program retiring roughly ``n_dynamic`` instructions."""
        profile = self.profile
        # zlib.crc32 is stable across processes (hash() is randomised).
        rng = random.Random(
            (self.seed << 16) ^ zlib.crc32(profile.name.encode())
        )
        block = self._build_block(rng)
        # +2 for the loop counter update and back edge.
        per_iter = len(block) + 2
        iters = max(1, n_dynamic // per_iter)

        init = [f"    li r{reg}, {rng.randrange(1, 1000)}" for reg in _DATA_REGS]
        lines = [
            ".data",
            f"ws: .space {4 * profile.working_set_words}",
            ".text",
            "main:",
            f"    li   r1, {iters}",
            "    la   r2, ws",
            *init,
            "loop:",
            *block,
            "    subi r1, r1, 1",
            "    bnez r1, loop",
            f"    add  r3, r{_DATA_REGS[0]}, r{_DATA_REGS[1]}",
            "    putint r3",
            "    halt",
        ]
        name = f"gen_{profile.name}_{self.seed}"
        return assemble("\n".join(lines), name=name)

    # ------------------------------------------------------------------

    def _pick_src(self, rng: random.Random, cursor: int) -> int:
        """A source register at a geometric distance behind the cursor."""
        distance = 1 + min(
            int(rng.expovariate(1.0 / self.profile.dep_distance)),
            len(_DATA_REGS) - 1,
        )
        return _DATA_REGS[(cursor - distance) % len(_DATA_REGS)]

    def _build_block(self, rng: random.Random) -> List[str]:
        profile = self.profile
        lines: List[str] = []
        cursor = 0
        ws_mask = (profile.working_set_words - 1) * 4
        pending = profile.block_size
        skip_id = 0
        while pending > 0:
            draw = rng.random()
            dst = _DATA_REGS[cursor % len(_DATA_REGS)]
            src_a = self._pick_src(rng, cursor)
            src_b = self._pick_src(rng, cursor)
            if draw < profile.mul:
                lines.append(f"    mul  r{dst}, r{src_a}, r{src_b}")
            elif draw < profile.mul + profile.div:
                lines.append(f"    ori  r3, r{src_b}, 1")
                lines.append(f"    div  r{dst}, r{src_a}, r3")
                pending -= 1
            elif draw < profile.mul + profile.div + profile.load:
                offset = rng.randrange(0, ws_mask + 1, 4)
                lines.append(f"    lw   r{dst}, {offset}(r2)")
            elif draw < (
                profile.mul + profile.div + profile.load + profile.store
            ):
                offset = rng.randrange(0, ws_mask + 1, 4)
                lines.append(f"    sw   r{src_a}, {offset}(r2)")
                cursor -= 1  # stores write no register
            elif (
                draw
                < profile.mul + profile.div + profile.load + profile.store
                + profile.branch
            ):
                skip_id += 1
                label = f"skip_{self.seed}_{skip_id}"
                if rng.random() < profile.branch_predictability:
                    # Condition on the loop counter: learnable pattern.
                    lines.append(f"    andi r3, r1, {rng.choice([1, 3, 7])}")
                    lines.append(f"    bnez r3, {label}")
                else:
                    # Condition on data: effectively random direction.
                    lines.append(f"    andi r3, r{src_a}, 1")
                    lines.append(f"    bnez r3, {label}")
                lines.append(f"    addi r{dst}, r{dst}, {rng.randrange(1, 64)}")
                lines.append(f"{label}:")
                pending -= 2
            elif (
                draw
                < profile.mul + profile.div + profile.load + profile.store
                + profile.branch + profile.fp
            ):
                lines.append(self._fp_line(rng, dst, src_a, ws_mask))
                if not lines[-1].startswith("    fcmplt"):
                    cursor -= 1  # writes no data register
            else:
                op = rng.choice(["add", "sub", "xor", "and", "or"])
                lines.append(f"    {op}  r{dst}, r{src_a}, r{src_b}")
            cursor += 1
            pending -= 1
        return lines

    @staticmethod
    def _fp_line(rng: random.Random, dst: int, src: int, ws_mask: int) -> str:
        """One floating-point op over f1..f8 (``fcmplt`` writes ``dst``)."""
        op = rng.choice(_FP_OPS)
        fd, fa, fb = (rng.randrange(1, 9) for _ in range(3))
        if op == "cvtif":
            return f"    cvtif f{fd}, r{src}"
        if op == "fcmplt":
            return f"    fcmplt r{dst}, f{fa}, f{fb}"
        if op in ("lwf", "swf"):
            offset = rng.randrange(0, ws_mask + 1, 4)
            reg = fd if op == "lwf" else fa
            return f"    {op}  f{reg}, {offset}(r2)"
        return f"    {op} f{fd}, f{fa}, f{fb}"


def generate_program(
    profile: MixProfile, n_dynamic: int = 10_000, seed: int = 0
) -> Program:
    """Convenience wrapper around :class:`ProgramGenerator`."""
    return ProgramGenerator(profile, seed=seed).generate(n_dynamic)
