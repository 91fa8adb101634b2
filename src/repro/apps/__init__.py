"""Application workload models.

Each of the paper's seven applications (Table V) is modelled as a
:class:`~repro.apps.workload.Workload`: a timeline of phases plus an
inventory of allocation sites and object specs (sizes, allocation counts,
lifetimes, per-phase LLC-load-miss and L1D-store-miss rates).  The models
encode the paper's published per-application characteristics — memory
high-water marks, memory-boundedness, DRAM-cache hit ratios (Table VI),
and the LULESH object census of Figures 3-5 — and the *algorithms* then
operate on them exactly as they would on real profiles.

The models are registered in :mod:`~repro.apps.registry` under their paper
names (``minife``, ``minimd``, ``lulesh``, ``hpcg``, ``cloverleaf3d``,
``lammps``, ``openfoam``).
"""

from repro.apps.workload import (
    AccessStats,
    AllocationSite,
    InstanceSpan,
    ObjectSpec,
    Phase,
    PhaseSpan,
    Workload,
    workload_fingerprint,
)
from repro.apps.sites import SiteRegistry, ProcessImage
from repro.apps.registry import get_workload, list_workloads, register_workload

__all__ = [
    "AccessStats",
    "AllocationSite",
    "InstanceSpan",
    "ObjectSpec",
    "Phase",
    "PhaseSpan",
    "Workload",
    "SiteRegistry",
    "ProcessImage",
    "get_workload",
    "list_workloads",
    "register_workload",
    "workload_fingerprint",
]
