"""Live-object interval index: data address -> owning allocation.

PEBS samples carry a data linear address; Extrae matches it to the
instrumented data object whose ``[address, address+size)`` interval
contains it (Section IV-A).  :class:`LiveObjectTable` keeps the live
intervals in an *array-backed slot store*: starts/ends live in NumPy
arrays indexed by a recycled slot id, so alloc/free churn is O(1)
(append or reuse a free slot — no sorted-list insertion), and address
resolution is a ``searchsorted`` over a lazily rebuilt sorted view.

The sorted view is only rebuilt when a lookup follows a mutation, which
matches how the tracer and Paramedir drive the table: a burst of
alloc/free edges, then a batch of sample addresses to resolve.  Point
lookups (:meth:`lookup`) and batch lookups (:meth:`lookup_batch`) share
the same index, so interleaving them stays cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import AddressError, TraceError

#: initial slot capacity; the store doubles when it fills up
_INITIAL_CAPACITY = 64


@dataclass(frozen=True)
class LiveInterval:
    """One live allocation interval."""

    address: int
    size: int
    site_key: Tuple
    alloc_time: float
    instance: int  # per-site allocation sequence number

    @property
    def end(self) -> int:
        return self.address + self.size

    def contains(self, addr: int) -> bool:
        return self.address <= addr < self.end


class LiveObjectTable:
    """Array-backed index over live, non-overlapping allocation intervals."""

    def __init__(self) -> None:
        cap = _INITIAL_CAPACITY
        # slot arrays: start == -1 marks a free (recyclable) slot
        self._slot_starts = np.full(cap, -1, dtype=np.int64)
        self._slot_ends = np.full(cap, -1, dtype=np.int64)
        self._meta: List[Optional[LiveInterval]] = [None] * cap
        self._free: List[int] = []
        self._high_water = 0  # slots ever handed out
        self._addr_slot: Dict[int, int] = {}
        self._per_site_count: dict = {}
        # lazily rebuilt sorted view: slot ids ordered by start address
        self._order: Optional[np.ndarray] = None
        self._sorted_starts: Optional[np.ndarray] = None
        self._sorted_ends: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self._addr_slot)

    # -- mutation --------------------------------------------------------------

    def insert(self, address: int, size: int, site_key: Tuple, time: float) -> LiveInterval:
        """Register a new live object; overlap with a live one is an error."""
        if size <= 0:
            raise TraceError(f"interval with size {size}")
        hw = self._high_water
        starts = self._slot_starts[:hw]
        ends = self._slot_ends[:hw]
        clash = (starts >= 0) & (starts < address + size) & (ends > address)
        if clash.any():
            other = self._meta[int(np.argmax(clash))]
            raise AddressError(
                f"new interval {address:#x}+{size:#x} overlaps live {other}"
            )
        instance = self._per_site_count.get(site_key, 0)
        self._per_site_count[site_key] = instance + 1
        interval = LiveInterval(
            address=address, size=size, site_key=site_key,
            alloc_time=time, instance=instance,
        )
        slot = self._claim_slot()
        self._slot_starts[slot] = address
        self._slot_ends[slot] = address + size
        self._meta[slot] = interval
        self._addr_slot[address] = slot
        self._order = None
        return interval

    def remove(self, address: int) -> LiveInterval:
        """Remove the live object starting at ``address`` (a free)."""
        slot = self._addr_slot.pop(address, None)
        if slot is None:
            raise AddressError(f"no live object starts at {address:#x}")
        interval = self._meta[slot]
        self._slot_starts[slot] = -1
        self._slot_ends[slot] = -1
        self._meta[slot] = None
        self._free.append(slot)
        self._order = None
        return interval

    # -- lookup ----------------------------------------------------------------

    def lookup(self, data_address: int) -> Optional[LiveInterval]:
        """The live object containing a sampled data address, if any.

        Samples that land outside any instrumented object (stack, static
        data, allocator metadata) return ``None`` — real traces have those
        too, and Paramedir ignores them.
        """
        self._ensure_index()
        idx = int(np.searchsorted(self._sorted_starts, data_address, side="right")) - 1
        if idx >= 0 and data_address < self._sorted_ends[idx]:
            return self._meta[int(self._order[idx])]
        return None

    def lookup_batch(self, addresses: np.ndarray) -> np.ndarray:
        """Resolve many addresses at once: slot index per address, -1 if none.

        The returned slot indices stay valid until the owning object is
        freed; :meth:`interval` maps a slot back to its
        :class:`LiveInterval`.  This is the hot path of the vectorized
        tracer and analyzer: one ``searchsorted`` per batch instead of one
        ``bisect`` per sample.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        self._ensure_index()
        if self._sorted_starts.size == 0:
            return np.full(addresses.shape, -1, dtype=np.int64)
        pos = np.searchsorted(self._sorted_starts, addresses, side="right") - 1
        clipped = np.maximum(pos, 0)
        hit = (pos >= 0) & (addresses < self._sorted_ends[clipped])
        return np.where(hit, self._order[clipped], -1)

    def interval(self, slot: int) -> LiveInterval:
        """The live interval occupying ``slot`` (from :meth:`lookup_batch`)."""
        interval = self._meta[slot]
        if interval is None:
            raise AddressError(f"slot {slot} holds no live object")
        return interval

    def slot_of(self, address: int) -> int:
        """The slot of the live object starting exactly at ``address``."""
        slot = self._addr_slot.get(address)
        if slot is None:
            raise AddressError(f"no live object starts at {address:#x}")
        return slot

    def live_bytes(self) -> int:
        self._ensure_index()
        return int((self._sorted_ends - self._sorted_starts).sum())

    # -- internals -------------------------------------------------------------

    def _claim_slot(self) -> int:
        if self._free:
            return self._free.pop()
        if self._high_water == self._slot_starts.size:
            cap = self._slot_starts.size * 2
            for name in ("_slot_starts", "_slot_ends"):
                grown = np.full(cap, -1, dtype=np.int64)
                grown[: self._high_water] = getattr(self, name)[: self._high_water]
                setattr(self, name, grown)
            self._meta.extend([None] * (cap - len(self._meta)))
        slot = self._high_water
        self._high_water += 1
        return slot

    def _ensure_index(self) -> None:
        if self._order is not None:
            return
        hw = self._high_water
        live = np.flatnonzero(self._slot_starts[:hw] >= 0)
        order = live[np.argsort(self._slot_starts[live], kind="stable")]
        self._order = order
        self._sorted_starts = self._slot_starts[order]
        self._sorted_ends = self._slot_ends[order]
