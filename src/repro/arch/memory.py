"""Flat byte-addressable memory for the functional machine.

The backing store maps word-aligned addresses to 32-bit unsigned words
(sparse — untouched memory reads as zero).  Byte accesses (``lb``/``sb``)
address little-endian bytes within those words.  Floating-point loads
and stores transfer IEEE-754 *single-precision* bit patterns through one
32-bit word; the round-trip is architecturally consistent (what a
program stores is exactly what it loads back), which is all the
integer-centric REESE experiments require.

Word accesses are required to be 4-byte aligned; the memory raises
:class:`MisalignedAccessError` otherwise, so workload bugs surface
immediately instead of corrupting results.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, Tuple

from ..isa.semantics import to_u32


class MisalignedAccessError(Exception):
    """A word access used a non-word-aligned effective address."""


class Memory:
    """Sparse flat memory with 32-bit words and byte sub-access."""

    __slots__ = ("_words",)

    def __init__(self, image: Dict[int, int] = None) -> None:
        self._words: Dict[int, int] = {}
        if image:
            for addr, value in image.items():
                if addr & 3:
                    raise MisalignedAccessError(f"store_word at {addr:#x}")
                self._words[addr] = to_u32(value)

    @classmethod
    def of_words(cls, words: Dict[int, int]) -> "Memory":
        """A memory holding a copy of ``words`` (as :meth:`words` yields)."""
        memory = cls()
        memory._words = dict(words)
        return memory

    # -- word access -----------------------------------------------------

    def load_word(self, addr: int) -> int:
        """Load a signed 32-bit word from an aligned address."""
        if addr & 3:
            raise MisalignedAccessError(f"load_word at {addr:#x}")
        word = self._words.get(addr, 0)
        return ((word + 0x80000000) & 0xFFFFFFFF) - 0x80000000

    def store_word(self, addr: int, value: int) -> None:
        """Store a 32-bit word at an aligned address."""
        if addr & 3:
            raise MisalignedAccessError(f"store_word at {addr:#x}")
        self._words[addr] = value & 0xFFFFFFFF

    # -- byte access -----------------------------------------------------

    def load_byte(self, addr: int, signed: bool = True) -> int:
        """Load one byte (sign- or zero-extended to 32 bits)."""
        word = self._words.get(addr & ~3, 0)
        byte = (word >> ((addr & 3) * 8)) & 0xFF
        if signed and byte & 0x80:
            return byte - 0x100
        return byte

    def store_byte(self, addr: int, value: int) -> None:
        """Store the low byte of ``value``."""
        base = addr & ~3
        shift = (addr & 3) * 8
        word = self._words.get(base, 0)
        word = (word & ~(0xFF << shift)) | ((value & 0xFF) << shift)
        self._words[base] = word

    # -- float access ------------------------------------------------------

    def load_float(self, addr: int) -> float:
        """Load a word and reinterpret it as an IEEE-754 float32."""
        bits = to_u32(self.load_word(addr))
        return struct.unpack("<f", struct.pack("<I", bits))[0]

    def store_float(self, addr: int, value: float) -> None:
        """Store ``value`` as an IEEE-754 float32 bit pattern."""
        try:
            bits = struct.unpack("<I", struct.pack("<f", value))[0]
        except OverflowError:
            bits = 0x7F800000 if value > 0 else 0xFF800000  # +/- infinity
        self.store_word(addr, bits)

    # -- introspection ----------------------------------------------------

    def snapshot(self) -> Dict[int, int]:
        """A copy of all non-zero words (for state-comparison oracles)."""
        return {addr: word for addr, word in self._words.items() if word}

    def words(self) -> Iterable[Tuple[int, int]]:
        """Iterate (address, unsigned word) pairs of touched memory."""
        return self._words.items()

    def copy(self) -> "Memory":
        """An independent deep copy of this memory."""
        return Memory.of_words(self._words)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Memory):
            return NotImplemented
        return self.snapshot() == other.snapshot()

    def __len__(self) -> int:
        return len(self._words)
