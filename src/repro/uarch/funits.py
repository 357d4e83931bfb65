"""Functional-unit pools with operation and issue latencies.

Physical units follow SimpleScalar's resource classes:

* ``ialu``      — integer ALUs (also execute branches and the address
  side of the pipeline's simple ops);
* ``imultdiv``  — integer multiplier/dividers: ``mul`` is pipelined
  (issue latency 1), ``div``/``rem`` block the unit (unpipelined);
* ``fpadd``     — FP adders / compares / converts;
* ``fpmultdiv`` — FP multiplier/dividers (``fdiv``/``fsqrt`` block);
* ``mem``       — memory ports (cache access latency supplied by the
  memory hierarchy, so :meth:`FUPool.acquire` returns 0 for these and
  the caller computes the operation latency).

Each unit tracks the cycle at which it can next *accept* an operation;
an acquire succeeds when some unit in the class is free this cycle and
advances that unit by the op's issue latency.  Each physical pool also
keeps one "exhausted at cycle" cell, shared by the classes that map to
it: a failed acquire records its cycle there, and every later acquire
of that cycle fails without scanning the pool.  This is exact because
units only ever get busier within a cycle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..isa.instructions import FUClass
from .config import MachineConfig


class FUPool:
    """All functional units of one simulated machine."""

    # FUClass -> (physical pool key, latency attribute names)
    _OP_MAP: Dict[FUClass, Tuple[str, str, str]] = {
        FUClass.INT_ALU: ("ialu", "int_alu", "int_alu"),
        FUClass.INT_MULT: ("imultdiv", "int_mult", "int_mult_issue"),
        FUClass.INT_DIV: ("imultdiv", "int_div", "int_div_issue"),
        FUClass.FP_ADD: ("fpadd", "fp_add", "fp_add_issue"),
        FUClass.FP_MULT: ("fpmultdiv", "fp_mult", "fp_mult_issue"),
        FUClass.FP_DIV: ("fpmultdiv", "fp_div", "fp_div_issue"),
        FUClass.MEM_PORT: ("mem", "", ""),
    }

    def __init__(self, config: MachineConfig) -> None:
        lat = config.latencies
        # Per-pool list of "next cycle this unit can accept an op".
        self._pools: Dict[str, List[int]] = {
            "ialu": [0] * config.int_alu,
            "imultdiv": [0] * config.int_mult,
            "fpadd": [0] * config.fp_alu,
            "fpmultdiv": [0] * config.fp_mult,
            "mem": [0] * config.mem_ports,
        }
        # Per-pool "the last R-stream grant of this unit holds it until
        # <cycle>" watermarks.  Only R grants write them: a later P
        # grant starts at or after that cycle, so the unit's R holder
        # is current exactly while ``r_until >= next_free``.
        self._r_until: Dict[str, List[int]] = {
            key: [0] * len(pool) for key, pool in self._pools.items()
        }
        # Per-pool one-item "every unit busy at cycle" cell.
        cells = {key: [-1] for key in self._pools}
        #: FUClass -> its pool's exhausted cell: ``cell[0] == cycle``
        #: means an acquire of that class fails at ``cycle``.
        self.exhausted: Dict[FUClass, List[int]] = {}
        # FUClass -> (pool, r_until, oplat, issuelat, pool key, cell);
        # mem uses oplat 0 sentinel.
        self._dispatch: Dict[
            FUClass, Tuple[List[int], List[int], int, int, str, List[int]]
        ] = {}
        for fu_class, (pool_key, op_attr, issue_attr) in self._OP_MAP.items():
            pool = self._pools[pool_key]
            if fu_class is FUClass.MEM_PORT:
                oplat, issuelat = 0, 1
            else:
                oplat = getattr(lat, op_attr)
                issuelat = getattr(lat, issue_attr)
            self._dispatch[fu_class] = (
                pool, self._r_until[pool_key], oplat, issuelat, pool_key,
                cells[pool_key],
            )
            self.exhausted[fu_class] = cells[pool_key]
        #: FUClass -> operation latency (0 for memory ports).
        self.latency: Dict[FUClass, int] = {
            fu_class: entry[2] for fu_class, entry in self._dispatch.items()
        }
        self.issues: Dict[str, int] = {key: 0 for key in self._pools}

    def acquire(
        self, fu_class: FUClass, cycle: int, r_stream: bool = False
    ) -> Optional[int]:
        """Try to start an operation of ``fu_class`` at ``cycle``.

        A successful acquire is the one record of an issue: it counts
        into :attr:`issues`, whichever stream it belongs to.

        Args:
            r_stream: the acquiring operation belongs to the redundant
                stream (a dispatch-dup shadow copy); it marks the unit
                so :meth:`blame` can say which stream holds it.

        Returns:
            The operation latency (0 for memory ports, whose latency the
            caller computes from the cache model), or ``None`` if every
            unit of the class is busy this cycle.
        """
        pool, r_until, oplat, issuelat, key, cell = self._dispatch[fu_class]
        if cell[0] == cycle:
            return None
        index = 0
        for next_free in pool:
            if next_free <= cycle:
                pool[index] = cycle + issuelat
                if r_stream:
                    r_until[index] = cycle + issuelat
                self.issues[key] += 1
                return oplat
            index += 1
        cell[0] = cycle
        return None

    def acquire_r(self, fu_class: FUClass, cycle: int, count: int) -> int:
        """Start up to ``count`` R-stream operations of ``fu_class``.

        The same grants, in the same units, as ``count`` calls of
        :meth:`acquire` with ``r_stream=True`` that stop at the first
        failure; returns how many were granted.
        """
        pool, r_until, _, issuelat, key, cell = self._dispatch[fu_class]
        granted = 0
        if cell[0] != cycle:
            busy_until = cycle + issuelat
            index = 0
            for next_free in pool:
                if next_free <= cycle:
                    pool[index] = busy_until
                    r_until[index] = busy_until
                    granted += 1
                    if granted == count:
                        break
                index += 1
            else:
                cell[0] = cycle
            self.issues[key] += granted
        return granted

    def available(self, fu_class: FUClass, cycle: int) -> bool:
        """Whether an :meth:`acquire` of ``fu_class`` at ``cycle`` would
        succeed (it acquires nothing)."""
        pool, _, _, _, _, cell = self._dispatch[fu_class]
        if cell[0] == cycle:
            return False
        for next_free in pool:
            if next_free <= cycle:
                return True
        cell[0] = cycle
        return False

    def blame(self, fu_class: FUClass, cycle: int) -> str:
        """Which stream to blame for a failed acquire of ``fu_class``.

        ``"R"`` when any currently-busy unit of the class is held by an
        R-stream operation (without REESE that unit would have been
        free, so the conflict is R-induced), ``"P"`` otherwise.  Only
        meaningful right after an acquire returned ``None``.
        """
        pool, r_until, _, _, _, _ = self._dispatch[fu_class]
        for index, next_free in enumerate(pool):
            if next_free > cycle and r_until[index] >= next_free:
                return "R"
        return "P"
