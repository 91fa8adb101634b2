"""Optane *memory mode*: DRAM as a hardware-managed cache of PMem.

In memory mode the DRAM is an inclusive, direct-mapped, write-back cache of
the PMem physical address space, managed by the memory controllers at 64 B
granularity (the paper cites [13], [18] for the direct-mapped, write-back
structure).  Applications see only the PMem capacity; DRAM hits cost DRAM
latency, misses cost PMem latency plus the fill (and a writeback for dirty
victims).

:func:`memory_mode_hit_ratio` is the analytic hit-ratio model the engine
uses for the application workloads, combining capacity pressure (working
set vs DRAM size) with a conflict-miss term characteristic of
direct-mapped caches.  Its constants were tuned so the five miniapps land
on their Table VI measured hit ratios given their model parameters; tests
assert both the Table VI targets and the model's monotonicity.
"""

from __future__ import annotations

import math

from repro.errors import ConfigError


def memory_mode_hit_ratio(
    working_set: float,
    dram_bytes: float,
    *,
    reuse_locality: float = 0.85,
    conflict_pressure: float = 0.35,
) -> float:
    """Analytic DRAM-cache hit ratio for a phase.

    Parameters
    ----------
    working_set:
        Bytes actively touched during the phase (per NUMA node).
    dram_bytes:
        DRAM cache capacity.
    reuse_locality:
        Fraction of off-chip accesses that would re-hit a previously touched
        line if capacity were infinite (temporal locality of the workload's
        LLC-miss stream).  Streaming workloads have low values.
    conflict_pressure:
        Extra miss fraction induced by direct-mapped conflicts as occupancy
        approaches 1.  The paper's pathological cases ("numerous conflict
        misses") correspond to high values.

    Model
    -----
    With ``r = working_set / dram_bytes``:

    - ``r <= 1``: capacity holds the working set; hits are limited by
      locality minus a conflict term that grows with occupancy
      (``conflict_pressure * r**2`` — direct-mapped conflicts rise roughly
      quadratically with occupancy under random placement).
    - ``r > 1``: the cacheable fraction decays as ``1/r``; locality applies
      only to the resident share.
    """
    if working_set < 0:
        raise ConfigError(f"negative working set: {working_set}")
    if dram_bytes <= 0:
        raise ConfigError(f"DRAM size must be > 0: {dram_bytes}")
    if not 0.0 <= reuse_locality <= 1.0:
        raise ConfigError(f"reuse_locality out of [0,1]: {reuse_locality}")
    if conflict_pressure < 0:
        raise ConfigError(f"conflict_pressure must be >= 0: {conflict_pressure}")
    if working_set == 0:
        return reuse_locality

    r = working_set / dram_bytes
    if r <= 1.0:
        hit = reuse_locality * (1.0 - conflict_pressure * r * r)
    else:
        resident = 1.0 / r
        # Conflicts saturate once the cache thrashes; tail decays smoothly.
        hit = reuse_locality * resident * (1.0 - conflict_pressure) * math.exp(-(r - 1.0) / 8.0) + \
            reuse_locality * (1.0 - resident) * 0.10
    return max(0.0, min(1.0, hit))
