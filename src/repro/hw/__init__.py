"""Hardware building blocks: memory, FIFOs, CRC, DMA, fibers, the VME bus."""

from repro.hw.crc import crc32
from repro.hw.fifo import ByteFIFO, Chunk
from repro.hw.memory import MemoryRegion
from repro.hw.vme import VMEBus

__all__ = [
    "ByteFIFO",
    "Chunk",
    "MemoryRegion",
    "VMEBus",
    "crc32",
]
