"""ProfDP [Wen et al., ICS'18]: the state-of-the-art user-level comparison.

ProfDP estimates each object's *latency sensitivity* and *bandwidth
sensitivity* via differential profiling (three profiling runs at different
memory speeds) and ranks objects by the chosen metric to guide placement.
Following the paper's Section VIII reproduction notes:

- the metrics are computed from the formulas in [38] over profiling data
  (we evaluate them from the same per-site profiles the Advisor sees);
- multi-process aggregation is ambiguous in [38], so both *sum* and
  *average* across ranks are implemented;
- combined with the two metrics this yields four rankings; experiments
  run all four and report the best (exactly what the paper did);
- placement is deployed through FlexMalloc (apples-to-apples), so the
  runtime path is shared with ecoHMEM.

ProfDP's documented limitations are preserved: the ranking ignores object
*size* (no density normalization) and memory capacity — objects are taken
in rank order until one no longer fits, which can strand DRAM capacity
behind one huge highly-ranked object.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import PlacementError
from repro.advisor.model import MemObject, Placement, SiteKey
from repro.memsim.subsystem import MemorySystem
from repro.profiling.metrics import LINE_BYTES


class ProfDPMetric(enum.Enum):
    LATENCY = "latency"
    BANDWIDTH = "bandwidth"


class ProfDPAggregation(enum.Enum):
    SUM = "sum"
    AVERAGE = "average"


@dataclass(frozen=True)
class ProfDPVariant:
    metric: ProfDPMetric
    aggregation: ProfDPAggregation

    @property
    def label(self) -> str:
        return f"profdp-{self.metric.value}-{self.aggregation.value}"


ALL_VARIANTS = [
    ProfDPVariant(m, a) for m in ProfDPMetric for a in ProfDPAggregation
]


def _per_rank_profiles(
    objects: Dict[SiteKey, MemObject], ranks: int, seed: int
) -> Dict[SiteKey, np.ndarray]:
    """Simulated per-rank metric inputs.

    Real multi-process profiles differ per rank (domain decomposition,
    rank-local objects).  Large singleton objects appear in every rank
    with mild jitter; small frequently-allocated objects are burstier and
    may be absent from some ranks — which is what makes *sum* and
    *average* genuinely different rankings.
    """
    rng = np.random.default_rng(seed)
    out: Dict[SiteKey, np.ndarray] = {}
    for key, obj in objects.items():
        base = np.full(ranks, 1.0)
        if obj.alloc_count > 4:
            presence = rng.random(ranks) < 0.85
            if not presence.any():
                presence[rng.integers(ranks)] = True
            jitter = rng.lognormal(0.0, 0.35, ranks)
            base = presence * jitter
        else:
            base = rng.lognormal(0.0, 0.08, ranks)
        out[key] = base
    return out


def profdp_scores(
    objects: Dict[SiteKey, MemObject],
    system: MemorySystem,
    variant: ProfDPVariant,
    *,
    ranks: int = 1,
    seed: int = 99,
) -> Dict[SiteKey, float]:
    """The per-object ProfDP relevance score under one variant."""
    dram = system.get("dram")
    pmem = system.get("pmem")
    lat_gap = pmem.idle_read_latency_ns() - dram.idle_read_latency_ns()
    bw_gap = 1.0 / pmem.peak_read_bw - 1.0 / dram.peak_read_bw
    rank_factors = _per_rank_profiles(objects, ranks, seed)

    scores: Dict[SiteKey, float] = {}
    for key, obj in objects.items():
        if variant.metric is ProfDPMetric.LATENCY:
            # runtime gained per access moved to the fast tier
            per_rank = obj.load_misses * lat_gap
        else:
            # traffic-time differential: bytes moved x marginal time/byte
            traffic = (obj.load_misses + obj.store_misses) * LINE_BYTES
            per_rank = traffic * bw_gap * 1e9  # ns, same scale as latency
        samples = per_rank * rank_factors[key]
        if variant.aggregation is ProfDPAggregation.SUM:
            scores[key] = float(samples.sum())
        else:
            scores[key] = float(samples.mean())
    return scores


def profdp_placement(
    objects: Dict[SiteKey, MemObject],
    system: MemorySystem,
    variant: ProfDPVariant,
    dram_limit: int,
    *,
    ranks: int = 1,
    seed: int = 99,
) -> Placement:
    """Rank-order greedy fill of DRAM — no density, no capacity planning.

    Objects are visited in descending score; an object that does not fit
    in the remaining DRAM is skipped (not revisited), reflecting the
    priority-list deployment ProfDP describes.
    """
    if dram_limit <= 0:
        raise PlacementError(f"dram_limit must be > 0, got {dram_limit}")
    scores = profdp_scores(objects, system, variant, ranks=ranks, seed=seed)
    names = system.names
    placement = Placement(subsystems=names, fallback=system.fallback.name)
    remaining = dram_limit
    for key in sorted(objects, key=lambda k: (-scores[k], str(k))):
        if scores[key] <= 0:
            continue
        weight = objects[key].size * ranks
        if weight <= remaining:
            placement.assign(key, "dram")
            remaining -= weight
        else:
            placement.assign(key, "pmem")
    return placement
