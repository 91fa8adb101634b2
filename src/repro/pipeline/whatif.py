"""The what-if query layer: score K candidate placements in one pass.

Every remaining methodology frontier — online phase-aware re-advisory
and the learned ranking advisor — reduces to the same hot loop: *score
many candidate placements of the same workload*.  This module is that
loop's front door.  :func:`evaluate_placements` feeds a list of
candidate placements through one shared
:class:`~repro.runtime.engine.ExecutionEngine`, which evaluates them in
fused ``(K × segments × subsystems)`` fixed-point passes
(:meth:`~repro.runtime.engine.ExecutionEngine.predict_times`) instead of
K independent ``run`` calls.  The returned numbers are **bit-equal** to
the sequential path — the fixed point is per-row, so fusing rows cannot
change any row's trajectory (see docs/PERFORMANCE.md §9).

Batches are chunked at :data:`BATCH_SIZE` candidates so a
thousand-candidate ranking sweep keeps its peak memory proportional to
the chunk, not to K.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.apps.workload import Workload
from repro.memsim.subsystem import MemorySystem
from repro.runtime.engine import ExecutionEngine

#: a candidate is a plain {site_name: subsystem} mapping or any traffic
#: model the engine accepts (PlacementTraffic, TieringTraffic, ...)
Candidate = Union[Dict[str, str], object]

#: candidates per fused engine pass.  The fused fixed point materializes
#: a ``(K * segments, subsystems)`` tensor, so the chunk bounds peak
#: memory; 64 keeps a LULESH-sized trace's working set in cache while
#: amortizing the shared segmentation/packing cost across the chunk.
BATCH_SIZE = 64


def evaluate_placements(
    workload: Workload,
    system: MemorySystem,
    placements: Sequence[Candidate],
    *,
    engine: Optional[ExecutionEngine] = None,
) -> List[float]:
    """Predicted total runtime of each candidate placement of one workload.

    The cheap ranking path: no per-object/per-phase assembly, yet every
    time is bit-identical to the ``total_time`` of a sequential
    ``engine.run`` of that candidate.  Candidates are chunked into fused
    passes of :data:`BATCH_SIZE`; pass an existing ``engine`` to reuse its
    segmentation and packing caches across calls.
    """
    if engine is None:
        engine = ExecutionEngine(workload, system)
    out: List[float] = []
    for lo in range(0, len(placements), BATCH_SIZE):
        out.extend(engine.predict_times(list(placements[lo:lo + BATCH_SIZE])))
    return out


def rank_placements(times: Sequence[float]) -> List[int]:
    """Candidate indices best-first (ties keep submission order)."""
    return sorted(range(len(times)), key=lambda i: (times[i], i))
