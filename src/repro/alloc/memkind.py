"""Concrete heap kinds and the per-subsystem heap registry.

FlexMalloc "sits on top of a number of heap managers (each targeting a
specific memory subsystem)" (Section IV-C).  In the paper's experiments
POSIX malloc serves DRAM and memkind serves PMem; both are modelled, with
distinct call costs:

- :class:`PosixHeap` — glibc-like, 16 B alignment, cheap calls.
- :class:`MemkindPmemHeap` — memkind PMEM kind: jemalloc-style arenas over
  a DAX file, so calls cost more.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.errors import ConfigError
from repro.alloc.heap import FreeListHeap
from repro.binary.aslr import HEAP_BASE
from repro.memsim.subsystem import MemorySystem

#: Gap between per-subsystem heap ranges so address ownership is unambiguous.
_REGION_STRIDE = 1 << 44  # 16 TiB per heap region


class PosixHeap(FreeListHeap):
    """DRAM heap behaving like glibc malloc (cheap, 16 B aligned)."""

    def __init__(self, base: int, capacity: int, subsystem: str = "dram"):
        super().__init__(
            name="posix-malloc",
            base=base,
            capacity=capacity,
            subsystem=subsystem,
            alloc_cost_ns=85.0,
            free_cost_ns=55.0,
        )


class MemkindPmemHeap(FreeListHeap):
    """PMem heap behaving like ``memkind`` with a PMEM kind.

    Calls are costlier than glibc (jemalloc arena over an fsdax mapping).
    """

    def __init__(self, base: int, capacity: int, subsystem: str = "pmem"):
        # the kind name carries the subsystem ("memkind-pmem",
        # "memkind-hbm"...) so heap names stay unique within a registry
        super().__init__(
            name=f"memkind-{subsystem}",
            base=base,
            capacity=capacity,
            subsystem=subsystem,
            alloc_cost_ns=260.0,
            free_cost_ns=140.0,
        )


class HeapRegistry:
    """All heaps of one process, indexed by subsystem name.

    Owns the address-range carving: heap *i* lives at
    ``HEAP_BASE + i * 16 TiB`` so that any address maps back to exactly one
    heap (:meth:`heap_of_address`).
    """

    def __init__(self, heaps: Iterable[FreeListHeap]):
        self._by_subsystem: Dict[str, FreeListHeap] = {}
        self._heaps: List[FreeListHeap] = []
        for heap in heaps:
            if heap.subsystem in self._by_subsystem:
                raise ConfigError(f"duplicate heap for subsystem {heap.subsystem!r}")
            self._by_subsystem[heap.subsystem] = heap
            self._heaps.append(heap)
        if not self._heaps:
            raise ConfigError("registry needs at least one heap")

    def __iter__(self):
        return iter(self._heaps)

    def get(self, subsystem: str) -> FreeListHeap:
        try:
            return self._by_subsystem[subsystem]
        except KeyError:
            raise KeyError(
                f"no heap for subsystem {subsystem!r} "
                f"(have {sorted(self._by_subsystem)})"
            ) from None

    @property
    def subsystems(self) -> List[str]:
        return [h.subsystem for h in self._heaps]

    def heap_of_address(self, address: int) -> Optional[FreeListHeap]:
        for heap in self._heaps:
            if heap.owns(address):
                return heap
        return None


def build_heaps(system: MemorySystem, *, dram_limit: Optional[int] = None) -> HeapRegistry:
    """Build the paper's heap stack for a memory system.

    DRAM gets a :class:`PosixHeap` (capped at ``dram_limit`` if given — the
    HMem Advisor's configured DRAM budget for dynamic allocations); every
    other subsystem gets a :class:`MemkindPmemHeap`-style manager.
    """
    heaps: List[FreeListHeap] = []
    for i, sub in enumerate(system):
        base = HEAP_BASE + i * _REGION_STRIDE
        capacity = sub.capacity
        if sub.name == "dram" and dram_limit is not None:
            if dram_limit <= 0:
                raise ConfigError(f"dram_limit must be > 0, got {dram_limit}")
            capacity = min(capacity, dram_limit)
        if capacity > _REGION_STRIDE:
            raise ConfigError(
                f"subsystem {sub.name!r} capacity {capacity} exceeds region stride"
            )
        if sub.name == "dram":
            heaps.append(PosixHeap(base=base, capacity=capacity, subsystem=sub.name))
        else:
            heaps.append(MemkindPmemHeap(base=base, capacity=capacity, subsystem=sub.name))
    return HeapRegistry(heaps)
