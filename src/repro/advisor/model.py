"""Advisor-side data model.

:class:`MemObject` is the advisor's view of one allocation site, distilled
from a :class:`~repro.profiling.paramedir.SiteProfile`.
:class:`BandwidthObservation` carries the extra signals the bandwidth-aware
algorithm needs (measured on a run using the density placement).
:class:`Placement` is the assignment the algorithms produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import PlacementError
from repro.profiling.paramedir import SiteProfile

SiteKey = Tuple


@dataclass
class MemObject:
    """One allocation site as the advisor sees it."""

    site_key: SiteKey
    size: int                    # largest allocation, bytes per rank
    alloc_count: int
    load_misses: float           # estimated LLC load misses (per rank)
    store_misses: float          # estimated L1D store misses (per rank)
    first_alloc: float
    last_free: float
    total_live_time: float
    spans: List[Tuple[float, float]] = field(default_factory=list)

    @classmethod
    def from_profile(cls, profile: SiteProfile) -> "MemObject":
        return cls(
            site_key=profile.site_key,
            size=profile.largest_alloc,
            alloc_count=profile.alloc_count,
            load_misses=profile.load_misses,
            store_misses=profile.store_misses,
            first_alloc=profile.first_alloc,
            last_free=profile.last_free,
            total_live_time=profile.total_live_time,
            spans=list(profile.spans),
        )

    @property
    def has_writes(self) -> bool:
        return self.store_misses > 0.0

    @property
    def lifetime_span(self) -> Tuple[float, float]:
        """[first allocation, last free) across all instances."""
        return (self.first_alloc, self.last_free)

    def weighted_misses(self, load_coef: float, store_coef: float) -> float:
        """The advisor cost heuristic numerator (Section V)."""
        return load_coef * self.load_misses + store_coef * self.store_misses

    def covers(self, other: "MemObject") -> bool:
        """Whether this object is live during ``other``'s entire lifetime.

        The Algorithm 1 replacement criterion: swapping this (Fitting)
        object out of DRAM frees space exactly when ``other`` needs it.
        """
        lo, hi = other.lifetime_span
        return self.first_alloc <= lo and self.last_free >= hi


@dataclass(frozen=True)
class BandwidthObservation:
    """Bandwidth signals for one site, from a density-placement run.

    Attributes
    ----------
    own_bandwidth:
        Mean bytes/s the site's objects consume while alive (node level).
    pmem_frac_at_alloc:
        PMem bandwidth demand at the object's allocation instants, as a
        fraction of peak PMem bandwidth (mean over instances).
    pmem_frac_exec:
        Same, averaged over the object's whole lifetime.
    """

    own_bandwidth: float
    pmem_frac_at_alloc: float
    pmem_frac_exec: float


class Placement:
    """A site -> subsystem assignment with capacity accounting."""

    def __init__(self, subsystems: List[str], fallback: str):
        if fallback not in subsystems:
            raise PlacementError(
                f"fallback {fallback!r} not among subsystems {subsystems}"
            )
        self.subsystems = list(subsystems)
        self.fallback = fallback
        self._assign: Dict[SiteKey, str] = {}

    def assign(self, site_key: SiteKey, subsystem: str) -> None:
        if subsystem not in self.subsystems:
            raise PlacementError(
                f"unknown subsystem {subsystem!r} (have {self.subsystems})"
            )
        self._assign[site_key] = subsystem

    def get(self, site_key: SiteKey) -> str:
        """Where a site goes; unlisted sites go to the fallback."""
        return self._assign.get(site_key, self.fallback)

    def items(self):
        return self._assign.items()

    def sites_in(self, subsystem: str) -> List[SiteKey]:
        return [k for k, v in self._assign.items() if v == subsystem]

    def __len__(self) -> int:
        return len(self._assign)

    def bytes_in(self, subsystem: str, objects: Dict[SiteKey, MemObject],
                 ranks: int = 1) -> int:
        """Peak simultaneous bytes this placement puts in a subsystem.

        Conservative: sums every site's largest allocation times its peak
        simultaneous instances (approximated as 1; repeated allocations at
        a site are typically sequential).
        """
        total = 0
        for key, sub in self._assign.items():
            if sub == subsystem and key in objects:
                total += objects[key].size * ranks
        return total

    def copy(self) -> "Placement":
        out = Placement(self.subsystems, self.fallback)
        out._assign = dict(self._assign)
        return out
