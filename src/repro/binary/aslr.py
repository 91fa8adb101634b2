"""Per-process address spaces with ASLR.

Address Space Layout Randomization makes the absolute frame addresses in a
captured call stack differ between the profiling run and the production run
(Section IV-A) — the reason Extrae must translate frames to a stable
identifier (human-readable or BOM).  :class:`AddressSpace` loads images at
randomized bases per process and converts between absolute addresses and
``(image, offset)`` pairs.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import AddressError, ConfigError
from repro.binary.image import BinaryImage

#: mmap-region granularity; load bases are page aligned like the kernel's.
PAGE = 4096

#: Range where the simulated kernel places images (x86-64 style mmap area).
_MMAP_LOW = 0x5500_0000_0000
_MMAP_HIGH = 0x7F00_0000_0000

#: Heap addresses live below the image area so the two never collide.
HEAP_BASE = 0x1000_0000_0000


@dataclass(frozen=True)
class Mapping:
    """One loaded image: ``[base, base+image.size)``."""

    image: BinaryImage
    base: int

    @property
    def end(self) -> int:
        return self.base + self.image.size

    def to_addr(self, offset: int) -> int:
        if not 0 <= offset < self.image.size:
            raise AddressError(
                f"offset {offset:#x} outside image {self.image.name!r}"
            )
        return self.base + offset


class AddressSpace:
    """A process's view of loaded binary objects.

    Parameters
    ----------
    pid:
        Identifier used in error messages (e.g. the MPI rank).
    aslr_seed:
        Seed for the base-address RNG.  Different seeds model different
        runs/processes; ``aslr_seed=None`` disables randomization (like
        ``setarch -R``), loading images back to back from a fixed base.
    """

    def __init__(self, pid: int = 0, aslr_seed: Optional[int] = 1):
        self.pid = pid
        self._rng = np.random.default_rng(aslr_seed) if aslr_seed is not None else None
        self._mappings: List[Mapping] = []  # sorted by base
        self._bases: List[int] = []
        self._by_name: Dict[str, Mapping] = {}
        self._fixed_next = _MMAP_LOW

    # -- loading ---------------------------------------------------------------

    def load(self, image: BinaryImage) -> Mapping:
        """Map an image at a (possibly randomized) base address."""
        if image.name in self._by_name:
            raise ConfigError(f"pid {self.pid}: image {image.name!r} already loaded")
        base = self._pick_base(image.size)
        mapping = Mapping(image=image, base=base)
        idx = bisect.bisect_left(self._bases, base)
        self._mappings.insert(idx, mapping)
        self._bases.insert(idx, base)
        self._by_name[image.name] = mapping
        return mapping

    def _pick_base(self, size: int) -> int:
        for _ in range(4096):
            if self._rng is not None:
                pages = (_MMAP_HIGH - _MMAP_LOW - size) // PAGE
                candidate = _MMAP_LOW + int(self._rng.integers(0, pages)) * PAGE
            else:
                candidate = self._fixed_next
                self._fixed_next += (size + PAGE - 1) // PAGE * PAGE + PAGE
            if not self._overlaps(candidate, size):
                return candidate
        raise AddressError(f"pid {self.pid}: could not place image of size {size:#x}")

    def _overlaps(self, base: int, size: int) -> bool:
        end = base + size
        idx = bisect.bisect_right(self._bases, base)
        if idx > 0 and self._mappings[idx - 1].end > base:
            return True
        if idx < len(self._mappings) and self._mappings[idx].base < end:
            return True
        return False

    # -- queries ----------------------------------------------------------------

    @property
    def mappings(self) -> List[Mapping]:
        return list(self._mappings)

    def mapping_of(self, name: str) -> Mapping:
        try:
            return self._by_name[name]
        except KeyError:
            raise AddressError(f"pid {self.pid}: no image named {name!r}") from None

    def resolve(self, addr: int) -> Tuple[BinaryImage, int]:
        """Absolute address -> ``(image, offset)`` (the heart of BOM)."""
        idx = bisect.bisect_right(self._bases, addr) - 1
        if idx >= 0:
            m = self._mappings[idx]
            if addr < m.end:
                return m.image, addr - m.base
        raise AddressError(f"pid {self.pid}: address {addr:#x} not in any image")

    def absolute(self, image_name: str, offset: int) -> int:
        """``(image, offset)`` -> absolute address in *this* process."""
        return self.mapping_of(image_name).to_addr(offset)

    def total_debug_info_bytes(self) -> int:
        """DRAM that loading every mapped image's debug info would cost."""
        return sum(m.image.debug_info_bytes for m in self._mappings)
