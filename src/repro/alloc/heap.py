"""Free-list heap managers.

Each memory subsystem gets its own heap carved out of a disjoint virtual
address range.  The allocator is a first-fit free list with coalescing on
free — deliberately simple, but a *real* allocator: addresses are unique,
double frees are detected, fragmentation is possible and observable, and a
high-water mark is tracked (the paper's Table V reports per-rank
high-water marks).

The free list is one pair of address-sorted ``array('q')`` columns.
``allocate`` finds the lowest-address fitting block with one vectorized
comparison over a zero-copy view of the sizes; the Python scan is
retained as ``allocate_scalar``, the oracle the replay differential suite
holds the vectorized path to.  Replays build fresh heaps, so the list
stays short (at most about 20 blocks on the paper's workloads) and a
linear search is all it needs.
"""

from __future__ import annotations

import bisect
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import AllocationError, AddressError, ConfigError

#: All user allocations are rounded to this granularity (glibc-like).
ALIGNMENT = 16


@dataclass(frozen=True)
class Allocation:
    """A live heap block handed back to the application."""

    address: int
    size: int          # requested size
    padded_size: int   # size actually reserved (aligned)
    heap_name: str


@dataclass
class HeapStats:
    """Per-heap counters."""

    allocations: int = 0
    frees: int = 0
    failed: int = 0
    bytes_allocated: int = 0   # cumulative requested bytes
    high_water: int = 0        # max concurrently reserved bytes

    @property
    def live_allocations(self) -> int:
        return self.allocations - self.frees


class FreeListHeap:
    """First-fit free-list allocator over ``[base, base + capacity)``.

    Free blocks are kept sorted by address; adjacent blocks are coalesced
    on free.  ``allocate`` raises :class:`AllocationError` when no block
    fits (FlexMalloc catches that to apply the fallback policy).

    The sorted ``(starts, sizes)`` arrays are the only free-list
    structure: ``allocate`` locates the first-fit block with one NumPy
    scan while ``allocate_scalar`` — the retained oracle — walks them in
    Python.  Both commit the allocation through the same code, so stats,
    addresses and errors are identical.
    """

    def __init__(
        self,
        name: str,
        base: int,
        capacity: int,
        subsystem: str = "",
        alloc_cost_ns: float = 90.0,
        free_cost_ns: float = 60.0,
    ):
        if capacity <= 0:
            raise ConfigError(f"heap {name!r}: capacity must be > 0")
        if base < 0:
            raise ConfigError(f"heap {name!r}: negative base")
        if base + capacity >= 1 << 63:
            raise ConfigError(f"heap {name!r}: range exceeds 64-bit addresses")
        self.name = name
        self.subsystem = subsystem or name
        self.base = base
        self._capacity = capacity
        self.alloc_cost_ns = alloc_cost_ns
        self.free_cost_ns = free_cost_ns
        # free list: parallel address-sorted arrays of (start) and (size)
        self._free_starts = array("q", [base])
        self._free_sizes = array("q", [capacity])
        self._live: Dict[int, Allocation] = {}
        self._used = 0
        self.stats = HeapStats()

    # -- allocation --------------------------------------------------------

    def allocate(self, size: int) -> Allocation:
        """Vectorized first-fit: the same block the scan picks."""
        return self._allocate(size, self._find_fit_vector)

    def allocate_scalar(self, size: int) -> Allocation:
        """The linear first-fit scan: the reference oracle."""
        return self._allocate(size, self._find_fit_scan)

    def _find_fit_scan(self, padded: int) -> int:
        for i, fsize in enumerate(self._free_sizes):
            if fsize >= padded:
                return i
        return -1

    def _find_fit_vector(self, padded: int) -> int:
        if not self._free_sizes:
            return -1
        # the view is a temporary: no buffer export outlives this call, so
        # the arrays stay resizable by insert and del
        fits = np.frombuffer(self._free_sizes, np.int64) >= padded
        i = int(fits.argmax())
        return i if fits[i] else -1

    def _allocate(self, size: int, find_fit: Callable[[int], int]) -> Allocation:
        if size <= 0:
            raise AllocationError(f"heap {self.name!r}: size must be > 0, got {size}")
        padded = (size + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT
        i = find_fit(padded)
        if i < 0:
            self.stats.failed += 1
            raise AllocationError(
                f"heap {self.name!r}: no block for {padded} B "
                f"(used {self._used}/{self._capacity}, {len(self._free_starts)} fragments)"
            )
        start = self._free_starts[i]
        fsize = self._free_sizes[i]
        if fsize == padded:
            del self._free_starts[i]
            del self._free_sizes[i]
        else:
            self._free_starts[i] = start + padded
            self._free_sizes[i] = fsize - padded
        alloc = Allocation(
            address=start, size=size, padded_size=padded, heap_name=self.name
        )
        self._live[start] = alloc
        self._used += padded
        self.stats.allocations += 1
        self.stats.bytes_allocated += size
        self.stats.high_water = max(self.stats.high_water, self._used)
        return alloc

    def free(self, address: int) -> int:
        alloc = self._live.pop(address, None)
        if alloc is None:
            raise AddressError(
                f"heap {self.name!r}: free of unknown address {address:#x} "
                f"(double free or wrong heap)"
            )
        self._used -= alloc.padded_size
        self.stats.frees += 1
        self._insert_free(address, alloc.padded_size)
        return alloc.size

    def _insert_free(self, start: int, size: int) -> None:
        idx = bisect.bisect_left(self._free_starts, start)
        # coalesce with the following block
        if idx < len(self._free_starts) and start + size == self._free_starts[idx]:
            size += self._free_sizes[idx]
            del self._free_starts[idx]
            del self._free_sizes[idx]
        # coalesce with the preceding block
        if idx > 0 and self._free_starts[idx - 1] + self._free_sizes[idx - 1] == start:
            self._free_sizes[idx - 1] += size
        else:
            self._free_starts.insert(idx, start)
            self._free_sizes.insert(idx, size)

    # -- queries -------------------------------------------------------------

    @property
    def used(self) -> int:
        return self._used

    @property
    def capacity(self) -> int:
        return self._capacity

    def largest_free_block(self) -> int:
        """Size of the largest free block (0 when the heap is full)."""
        return max(self._free_sizes, default=0)

    def owns(self, address: int) -> bool:
        """Whether an address falls inside this heap's range."""
        return self.base <= address < self.base + self._capacity

    def lookup(self, address: int) -> Optional[Allocation]:
        """The live allocation starting exactly at ``address``, if any."""
        return self._live.get(address)

    def live_allocations(self) -> List[Allocation]:
        return list(self._live.values())

    def free_blocks(self) -> List[Tuple[int, int]]:
        """The (start, size) free list in address order."""
        return list(zip(self._free_starts, self._free_sizes))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FreeListHeap({self.name!r}, used={self._used}/{self._capacity}, "
            f"live={len(self._live)})"
        )
