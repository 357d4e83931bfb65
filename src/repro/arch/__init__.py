"""Reference architectural machine: memory, emulator, dynamic traces."""

from .emulator import EmulationResult, Emulator, EmulatorError, emulate
from .memory import Memory, MisalignedAccessError
from .trace import DynInst, PackedTrace, Trace

__all__ = [
    "EmulationResult",
    "Emulator",
    "EmulatorError",
    "emulate",
    "Memory",
    "MisalignedAccessError",
    "DynInst",
    "PackedTrace",
    "Trace",
]
