"""HMemAdvisor facade: profiles in, placement report out.

Ties together the profile -> MemObject conversion, the two placement
algorithms, and :class:`~repro.alloc.report.PlacementReport` emission in
either call-stack format — the complete "Placement Optimizer" box of the
paper's Figure 1 workflow.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import ConfigError, PlacementError
from repro.advisor.bandwidth_aware import BandwidthAwareResult, bandwidth_aware_placement
from repro.advisor.config import AdvisorConfig
from repro.advisor.density import density_placement, density_placement_scalar
from repro.advisor.model import BandwidthObservation, MemObject, Placement, SiteKey
from repro.alloc.report import PlacementEntry, PlacementReport
from repro.binary.callstack import StackFormat
from repro.memsim.subsystem import MemorySystem
from repro.profiling.paramedir import SiteProfile


class HMemAdvisor:
    """The Heterogeneous Memory Advisor."""

    def __init__(self, system: MemorySystem, config: AdvisorConfig):
        self.system = system
        self.config = config

    # -- profile ingestion ---------------------------------------------------

    @staticmethod
    def objects_from_profiles(
        profiles: Dict[SiteKey, SiteProfile]
    ) -> Dict[SiteKey, MemObject]:
        """Convert analyzer output, dropping sites that never allocated."""
        objects = {}
        for key, prof in profiles.items():
            if prof.alloc_count == 0 or prof.largest_alloc == 0:
                continue
            objects[key] = MemObject.from_profile(prof)
        if not objects:
            raise PlacementError("profile contains no allocation sites")
        return objects

    def validate_feasible(self, objects: Dict[SiteKey, MemObject]) -> None:
        """Reject profiles no subsystem can serve.

        A corrupt trace (inflated size fields) can report an object larger
        than every tier on the node; the placement algorithms would then
        emit a report FlexMalloc can never honour.  Fail early instead,
        naming the offending object.
        """
        max_capacity = max(sub.capacity for sub in self.system)
        for key, obj in objects.items():
            node_size = obj.size * self.config.ranks
            if node_size > max_capacity:
                raise ConfigError(
                    f"object {key!r} needs {node_size} bytes across "
                    f"{self.config.ranks} rank(s) but the largest subsystem "
                    f"holds {max_capacity} — infeasible profile "
                    f"(corrupt size field?)"
                )

    # -- algorithms ------------------------------------------------------------

    def advise_density(self, objects: Dict[SiteKey, MemObject]) -> Placement:
        """The base access-density algorithm (vectorized ranking)."""
        self.validate_feasible(objects)
        return density_placement(objects, self.system, self.config)

    def advise_density_scalar(
        self, objects: Dict[SiteKey, MemObject]
    ) -> Placement:
        """The retained per-object oracle for :meth:`advise_density`."""
        self.validate_feasible(objects)
        return density_placement_scalar(objects, self.system, self.config)

    def advise_bandwidth_aware(
        self,
        objects: Dict[SiteKey, MemObject],
        observations: Dict[SiteKey, BandwidthObservation],
        base: Optional[Placement] = None,
    ) -> BandwidthAwareResult:
        """The Section VII algorithm, refining a density placement.

        ``base`` defaults to running the density algorithm first, which is
        the paper's pipeline (the bandwidth-aware algorithm "receives as
        input a set of objects already classified ... using our access
        density based algorithm").
        """
        if base is None:
            base = self.advise_density(objects)
        return bandwidth_aware_placement(objects, base, observations, self.config)

    # -- report emission -------------------------------------------------------

    def to_report(self, placement: Placement, fmt: StackFormat) -> PlacementReport:
        """Emit the FlexMalloc input file content.

        Only non-fallback assignments are listed — fallback placement is
        FlexMalloc's default for unmatched sites, so listing those rows
        would only slow matching down.
        """
        report = PlacementReport(fmt=fmt, fallback=placement.fallback)
        for site_key, subsystem in placement.items():
            if subsystem == placement.fallback:
                continue
            report.add(PlacementEntry(site=site_key, subsystem=subsystem))
        return report
