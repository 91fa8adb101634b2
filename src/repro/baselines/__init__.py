"""The paper's comparison points.

- :mod:`~repro.baselines.memory_mode` — Optane *memory mode*: DRAM as a
  hardware-managed direct-mapped cache of PMem (the evaluation baseline).
- :mod:`~repro.baselines.tiering` — Intel's experimental kernel-level page
  migration (tiering-0.71): reactive promotion with a DRAM cost for page
  metadata proportional to PMem capacity.
- :mod:`~repro.baselines.profdp` — ProfDP [38]: differential-profiling
  sensitivity metrics, four ranking variants (latency/bandwidth x
  sum/average), best-of-four reported, placement deployed via FlexMalloc.
"""

from repro.baselines.memory_mode import MemoryModeTraffic, run_memory_mode
from repro.baselines.tiering import (
    CombinedTraffic,
    TieringTraffic,
    run_combined,
    run_tiering,
    tiering_effective_dram,
)
from repro.baselines.profdp import (
    ProfDPMetric,
    ProfDPAggregation,
    ProfDPVariant,
    profdp_placement,
)

__all__ = [
    "MemoryModeTraffic",
    "run_memory_mode",
    "CombinedTraffic",
    "TieringTraffic",
    "tiering_effective_dram",
    "run_combined",
    "run_tiering",
    "ProfDPMetric",
    "ProfDPAggregation",
    "ProfDPVariant",
    "profdp_placement",
]
