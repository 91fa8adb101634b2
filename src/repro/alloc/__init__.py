"""Heap managers and the FlexMalloc allocation interposer.

The runtime half of ecoHMEM: a set of heap managers, one per memory
subsystem (POSIX malloc for DRAM, a memkind-like manager for PMem), and
the :class:`~repro.alloc.interposer.FlexMalloc` interposition layer that
captures each allocation's call stack, matches it against the Advisor's
placement report, and forwards the request to the designated heap — with a
fallback subsystem for unmatched sites and capacity overflow (Section IV-C).
Each heap is a first-fit :class:`~repro.alloc.heap.FreeListHeap` whose
address-sorted free-block arrays are its only free-list structure.

Matching comes in the two flavours of Section VI:
:class:`~repro.alloc.matching.BOMMatcher` (address comparisons, no debug
info) and :class:`~repro.alloc.matching.HumanReadableMatcher` (addr2line
translation + string comparisons), each with an explicit cost account.
"""

from repro.alloc.heap import Allocation, FreeListHeap, HeapStats
from repro.alloc.memkind import (
    HeapRegistry,
    MemkindPmemHeap,
    PosixHeap,
    build_heaps,
)
from repro.alloc.report import PlacementEntry, PlacementReport
from repro.alloc.matching import (
    BOMMatcher,
    HumanReadableMatcher,
    MatchOutcome,
    MatcherStats,
    ResolverBackedStats,
)
from repro.alloc.interposer import FlexMalloc, InterposerStats

__all__ = [
    "Allocation",
    "FreeListHeap",
    "HeapStats",
    "HeapRegistry",
    "MemkindPmemHeap",
    "PosixHeap",
    "build_heaps",
    "PlacementEntry",
    "PlacementReport",
    "BOMMatcher",
    "HumanReadableMatcher",
    "MatchOutcome",
    "MatcherStats",
    "ResolverBackedStats",
    "FlexMalloc",
    "InterposerStats",
]
