"""Hybrid memory hardware substrate.

This package models the memory hardware the paper's testbed provides:

- :mod:`repro.memsim.latency` — bandwidth-dependent loaded-latency curves
  (the Figure 2 measurements, encoded analytically and re-derivable).
- :mod:`repro.memsim.subsystem` — DRAM / Optane PMem subsystems with
  capacity, peak bandwidths and latency curves; the paper's PMem-6 and
  PMem-2 machine configurations.
- :mod:`repro.memsim.cache` — a vectorised set-associative cache simulator
  used by microbenchmarks and to validate the analytic miss-rate models.
- :mod:`repro.memsim.dram_cache` — the analytic hit ratio of the
  direct-mapped, write-back DRAM cache that Optane *memory mode*
  implements in hardware.
- :mod:`repro.memsim.bandwidth` — per-subsystem bandwidth timelines.

The paper pins every run to one NUMA node (Sections IV-C and VIII), so
no NUMA topology is modelled.
"""

from repro.memsim.latency import (
    LoadedLatencyCurve,
    calibrate_curve,
    DDR4_READ,
    DDR4_1R1W,
    PMEM_READ,
    PMEM_1R1W,
)
from repro.memsim.subsystem import (
    MemorySubsystem,
    MemorySystem,
    dram_ddr4,
    hbm_stack,
    hbm_dram_pmem_system,
    pmem_optane,
    pmem6_system,
    pmem2_system,
)
from repro.memsim.cache import SetAssociativeCache, CacheStats
from repro.memsim.bandwidth import BandwidthTimeline

__all__ = [
    "LoadedLatencyCurve",
    "calibrate_curve",
    "DDR4_READ",
    "DDR4_1R1W",
    "PMEM_READ",
    "PMEM_1R1W",
    "MemorySubsystem",
    "MemorySystem",
    "dram_ddr4",
    "hbm_stack",
    "hbm_dram_pmem_system",
    "pmem_optane",
    "pmem6_system",
    "pmem2_system",
    "SetAssociativeCache",
    "CacheStats",
    "BandwidthTimeline",
]
