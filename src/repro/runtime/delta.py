"""Incremental delta engine: reuse a converged run across placement patches.

The fused fixed point (:meth:`ExecutionEngine._fixed_point_batch`) is
row-independent: every operation is elementwise over segments or a
reduction along the subsystem axis, so a segment row's trajectory —
its convergence iteration, its frozen final-latency row — depends only
on that row's traffic and nominal compute.  A placement change that
takes effect at segment boundary ``s`` therefore cannot perturb any
row ``< s`` (segmentation, traffic rows, and convergence masks are all
per-segment); only rows ``>= s`` need to be re-solved.

Every pack path emits the same canonical first-touch positions
(``order_pos[s, k] = s*K + rank``), so rows packed by different paths
compose without any rewriting.  This module holds the pieces the engine
composes:

- :class:`PatchedPlacementTraffic` — the *scalar* traffic model of a
  patched run (base placement before ``switch_time``, new placement
  after).  It deliberately implements only ``segment_traffic``: a
  from-scratch ``engine.run(patched)`` replays it segment by segment
  through :func:`pack_traffic_batch`, making it both the honest naive
  baseline for the perf floor and a genuine differential oracle for
  :meth:`ExecutionEngine.run_incremental` (a different code path from
  the composed fast path).
- :func:`compose_batches` — splice prefix and suffix batches at a
  segment boundary.
- :class:`DeltaState` — the frozen per-segment solution of a converged
  run, carried between re-advisory epochs so each patch pays only for
  the rows after its boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.runtime.traffic import (
    ROW_FIELDS,
    ObjectFields,
    PlacementTraffic,
    SegmentTraffic,
    TrafficBatch,
)

__all__ = [
    "PatchedPlacementTraffic",
    "DeltaState",
    "compose_batches",
]


class PatchedPlacementTraffic:
    """App-direct traffic with a placement switch at ``switch_time``.

    Segments starting before ``switch_time`` see ``base``'s traffic;
    segments at or after it see the new ``placement_of``.  ``base`` may
    itself be a :class:`PatchedPlacementTraffic`, so successive online
    migrations chain naturally.

    Only the scalar ``segment_traffic`` entry point is implemented —
    **on purpose**.  ``ExecutionEngine.run`` on this model goes through
    the generic per-segment replay (:func:`pack_traffic_batch`), which
    is the full-recompute oracle the incremental path is validated
    against bit for bit.
    """

    def __init__(self, base, placement_of: Dict[str, str], switch_time: float):
        self.base = base
        self.workload = base.workload
        self.switch_time = float(switch_time)
        # Validates that the new placement covers every site.
        self.suffix = PlacementTraffic(self.workload, placement_of)
        #: final (post-switch) placement; ``_assemble`` consults this for
        #: zero-traffic sites, matching what a fresh run of the patched
        #: placement would report.
        self.placement_of = dict(self.suffix.placement_of)

    @property
    def label(self) -> str:
        return getattr(self.base, "label", "app-direct")

    def segment_traffic(self, lo, hi, phase, live) -> SegmentTraffic:
        src = self.base if lo < self.switch_time else self.suffix
        return src.segment_traffic(lo, hi, phase, live)


def _merge_names(a: List[str], b: List[str]) -> Tuple[List[str], Optional[np.ndarray]]:
    """Merge two name tables; returns (merged, remap-for-b or None)."""
    if a == b:
        return a, None
    merged = list(a)
    index = {name: i for i, name in enumerate(merged)}
    remap = np.empty(len(b), dtype=np.int64)
    for j, name in enumerate(b):
        if name not in index:
            index[name] = len(merged)
            merged.append(name)
        remap[j] = index[name]
    return merged, remap


def _split_obj(batch: TrafficBatch, s0: int, *, suffix: bool) -> slice:
    """Object-row slice for segments ``< s0`` (prefix) or ``>= s0`` (suffix).

    Every pack path appends object rows in non-decreasing segment order,
    so one ``searchsorted`` finds the boundary.
    """
    cut = int(np.searchsorted(batch.obj_seg, s0, side="left"))
    return slice(cut, len(batch.obj_seg)) if suffix else slice(0, cut)


def compose_batches(prefix: TrafficBatch, suffix: TrafficBatch, s0: int) -> TrafficBatch:
    """Splice ``prefix`` rows ``< s0`` with ``suffix`` rows ``>= s0``.

    Both batches must describe the same segmentation and subsystem
    columns.  The result is bit-equal to a from-scratch scalar pack of
    the patched model: row values, canonical order positions included,
    come verbatim from packs of the respective placements.  The row
    matrices are spliced now; the object rows are spliced on first read
    (:func:`_compose_object_rows`), which reads both batches' rows then.
    Until that read the composed batch keeps both batches, so a chain of
    patches keeps every link's row matrices, not its object rows.
    """
    if prefix.subsystems != suffix.subsystems:
        raise SimulationError(
            "compose_batches: subsystem columns differ "
            f"({prefix.subsystems} vs {suffix.subsystems})"
        )
    if prefix.loads.shape != suffix.loads.shape:
        raise SimulationError(
            "compose_batches: segment grids differ "
            f"({prefix.loads.shape} vs {suffix.loads.shape})"
        )

    return TrafficBatch.deferred(
        partial(_compose_object_rows, prefix, suffix, s0),
        subsystems=prefix.subsystems,
        **{field: np.concatenate([getattr(prefix, field)[:s0],
                                  getattr(suffix, field)[s0:]])
           for field in ROW_FIELDS},
    )


def _compose_object_rows(
    prefix: TrafficBatch, suffix: TrafficBatch, s0: int
) -> ObjectFields:
    """``prefix``'s object rows of segments ``< s0`` followed by
    ``suffix``'s of segments ``>= s0``, renumbered onto merged name
    tables (prefix names first)."""
    pre = _split_obj(prefix, s0, suffix=False)
    suf = _split_obj(suffix, s0, suffix=True)

    site_names, site_remap = _merge_names(prefix.site_names, suffix.site_names)
    sub_names, sub_remap = _merge_names(prefix.obj_sub_names, suffix.obj_sub_names)

    obj_site_suf = suffix.obj_site[suf]
    if site_remap is not None:
        obj_site_suf = site_remap[obj_site_suf]
    obj_sub_suf = suffix.obj_sub[suf]
    if sub_remap is not None:
        obj_sub_suf = sub_remap[obj_sub_suf]

    return (
        site_names,
        sub_names,
        np.concatenate([prefix.obj_seg[pre], suffix.obj_seg[suf]]),
        np.concatenate([prefix.obj_site[pre], obj_site_suf]),
        np.concatenate([prefix.obj_sub[pre], obj_sub_suf]),
        np.concatenate([prefix.obj_loads[pre], suffix.obj_loads[suf]]),
        np.concatenate([prefix.obj_stores[pre], suffix.obj_stores[suf]]),
    )


@dataclass
class DeltaState:
    """The frozen solution of a converged run, ready for suffix patches.

    ``durations`` and ``lat_final`` are the fixed point's converged per-segment outputs.
    ``result`` is the assembled :class:`~repro.runtime.stats.RunResult`
    of this state's placement, so an online loop can read the current
    predicted total without re-assembling.
    """

    model: object
    batch: TrafficBatch
    durations: np.ndarray
    lat_final: np.ndarray
    result: object
    label: Optional[str] = None
    interposer_overhead_s: float = 0.0
    interposer_stats: Optional[dict] = None

    @property
    def placement_of(self) -> Dict[str, str]:
        return dict(getattr(self.model, "placement_of", {}))
