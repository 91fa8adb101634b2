"""Online phase-aware re-advisory (ROADMAP item 2).

The paper's advisor is one-shot offline: profile once, place once, run.
This module closes the loop at run time, in the spirit of *Online
Application Guidance for Heterogeneous Memory Systems* (arXiv
2110.02150) and *Dynamic Page Placement on Real Persistent Memory
Systems* (arXiv 2112.12685):

1. split the nominal timeline into epochs and detect **phase shifts** —
   epochs whose per-site traffic byte distribution moves by more than a
   total-variation threshold relative to the previous epoch;
2. at each shifted epoch boundary, re-run the density advisor on the
   *remaining* (suffix) traffic to produce candidate re-placements;
3. score every candidate with the incremental delta engine
   (:meth:`~repro.runtime.engine.ExecutionEngine.predict_times_incremental`
   — all candidates share the frozen prefix and one fused suffix
   tensor), charge each a **migration cost** (bytes moved into each
   destination subsystem at that subsystem's write bandwidth/latency),
   and accept the best candidate only when its predicted suffix saving
   exceeds its migration cost.

Because candidate scores are exact engine totals (bit-identical to a
from-scratch run of the patched placement) and a move is only accepted
when ``saving > cost``, the online total — engine time plus all charged
migration costs — can never exceed the static placement's total.

Everything here is deterministic and placement-independent where it can
be: phase detection and suffix traffic read the placement-independent
pack base of the workload's shared plan, so the detector sees
*application* behavior, not the current placement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.advisor.config import config_for_system
from repro.advisor.density import density_placement
from repro.advisor.model import MemObject
from repro.apps.workload import Workload
from repro.errors import SimulationError
from repro.memsim.subsystem import MemorySystem
from repro.profiling.metrics import LINE_BYTES
from repro.runtime.delta import DeltaState, PatchedPlacementTraffic
from repro.runtime.engine import ExecutionEngine
from repro.runtime.segments import SegmentArrays
from repro.runtime.plan import WorkloadPlan
from repro.runtime.traffic import PlacementTraffic, _PlacementPackBase

__all__ = [
    "OnlineParams",
    "MigrationEvent",
    "OnlineRunReport",
    "epoch_boundaries",
    "detect_phase_shifts",
    "suffix_site_traffic",
    "advise_placement",
    "moved_bytes_by_destination",
    "migration_cost_s",
    "run_online",
]


#: the DRAM-budget fractions the advisor is asked for at each boundary —
#: sweeping the budget down produces genuinely different candidate
#: placements from one advisory pass
CANDIDATE_FRACS = (1.0, 0.75, 0.5)


@dataclass(frozen=True)
class OnlineParams:
    """Knobs of the online re-advisory loop.

    ``epochs`` cuts the nominal timeline into that many equal windows;
    re-advisory is only considered at epoch boundaries whose leading
    epoch shifted by more than ``shift_threshold`` (total-variation
    distance between consecutive per-site byte distributions, in
    ``[0, 1]``).
    """

    epochs: int = 8
    shift_threshold: float = 0.10

    def __post_init__(self) -> None:
        if self.epochs < 2:
            raise SimulationError("online: epochs must be >= 2")
        if not 0.0 <= self.shift_threshold <= 1.0:
            raise SimulationError("online: shift_threshold must be in [0, 1]")


@dataclass
class MigrationEvent:
    """One accepted re-placement: what moved, what it cost, what it saved."""

    epoch: int                 # boundary index (the epoch that begins here)
    boundary_seg: int          # first segment under the new placement
    switch_time: float         # nominal time of the boundary
    sites_moved: int
    bytes_by_subsystem: Dict[str, float]   # destination -> bytes migrated
    cost_s: float
    predicted_saving_s: float  # engine-total reduction, before the cost


@dataclass
class OnlineRunReport:
    """The outcome of one online run.

    ``result`` is the final engine run (all accepted patches applied);
    ``total_time`` charges the migration costs on top, which is the
    number comparable with a static placement's ``total_time``.
    """

    result: object             # RunResult of the final patched placement
    static_time: float         # the initial placement left alone
    migration_total_s: float
    events: List[MigrationEvent] = field(default_factory=list)
    shift_boundaries: List[int] = field(default_factory=list)
    epoch_boundaries: List[int] = field(default_factory=list)
    final_placement: Dict[str, str] = field(default_factory=dict)
    candidate_evaluations: int = 0

    @property
    def engine_time(self) -> float:
        return float(self.result.total_time)

    @property
    def total_time(self) -> float:
        return float(self.result.total_time) + self.migration_total_s

    @property
    def migrations(self) -> int:
        return len(self.events)


# -- phase detection -------------------------------------------------------------


def _epoch_boundary_pairs(
    workload: Workload, segments: SegmentArrays, epochs: int
) -> List[Tuple[int, int]]:
    """Interior epoch boundaries as (epoch, segment) pairs, deduped by segment.

    Epoch ``e`` nominally starts at ``e * D / epochs``; each start maps
    to the first segment beginning at or after it.  Boundaries that
    collapse onto segment 0 or past the last segment are dropped — there
    is nothing to patch there.  When two epochs map onto the same
    segment, the earlier epoch keeps it.
    """
    duration = workload.nominal_duration
    out: List[Tuple[int, int]] = []
    for e in range(1, epochs):
        t = duration * e / epochs
        s = int(np.searchsorted(segments.seg_lo, t, side="left"))
        if s <= 0 or s >= segments.num_segments:
            continue
        if not out or s != out[-1][1]:
            out.append((e, s))
    return out


def epoch_boundaries(
    workload: Workload, segments: SegmentArrays, epochs: int
) -> List[int]:
    """Interior epoch boundaries as segment indices (sorted, deduped)."""
    return [s for _, s in _epoch_boundary_pairs(workload, segments, epochs)]


def _epoch_byte_distributions(
    workload: Workload, plan: WorkloadPlan, epochs: int
) -> np.ndarray:
    """(epochs, sites) per-epoch byte share per site, placement-independent."""
    base = plan.pack_base
    duration = workload.nominal_duration
    nsites = len(base.site_names)
    seg_epoch = np.minimum(
        (plan.segments.seg_lo * epochs / duration).astype(np.int64),
        epochs - 1,
    )
    ep = seg_epoch[base.kseg]
    key = ep * nsites + base.inst_site[base.kinst]
    traffic_bytes = base.pl * LINE_BYTES + base.ps * (2.0 * LINE_BYTES)
    mat = np.bincount(
        key, weights=traffic_bytes, minlength=epochs * nsites
    ).reshape(epochs, nsites)
    totals = mat.sum(axis=1, keepdims=True)
    return np.divide(
        mat, totals, out=np.zeros_like(mat), where=totals > 0
    )


def detect_phase_shifts(
    workload: Workload,
    plan: WorkloadPlan,
    params: OnlineParams,
) -> Tuple[List[int], List[Tuple[int, int]]]:
    """Epoch boundaries, and the subset where the traffic mix shifted.

    ``plan`` is the workload's plan (:func:`~repro.runtime.plan.plan_for`):
    its segmentation places the boundaries and its pack base gives the
    per-site traffic.

    Returns ``(all_boundaries, shifted)`` where ``shifted`` pairs each
    shifted boundary's epoch index with its segment index.  A boundary
    between epochs ``e-1`` and ``e`` is *shifted* when the
    total-variation distance ``0.5 * sum(|p_e - p_{e-1}|)`` between the
    consecutive per-site byte distributions exceeds the threshold.
    """
    dist = _epoch_byte_distributions(workload, plan, params.epochs)
    tv = 0.5 * np.abs(np.diff(dist, axis=0)).sum(axis=1)
    pairs = _epoch_boundary_pairs(workload, plan.segments, params.epochs)
    shifted = [(e, s) for e, s in pairs if tv[e - 1] > params.shift_threshold]
    return [s for _, s in pairs], shifted


# -- suffix advisory -------------------------------------------------------------


def suffix_site_traffic(
    base: _PlacementPackBase, boundary_seg: int
) -> Dict[str, Tuple[float, float]]:
    """Per-site (loads, stores) totals for segments ``>= boundary_seg``.

    Aggregate over all ranks, read straight off a workload plan's
    placement-independent pack base (``plan_for(workload).pack_base``;
    kept pairs are sorted by segment).
    """
    k0 = int(np.searchsorted(base.kseg, boundary_seg, side="left"))
    nsites = len(base.site_names)
    ksite = base.inst_site[base.kinst[k0:]]
    loads = np.bincount(ksite, weights=base.pl[k0:], minlength=nsites)
    stores = np.bincount(ksite, weights=base.ps[k0:], minlength=nsites)
    return {
        name: (float(loads[i]), float(stores[i]))
        for i, name in enumerate(base.site_names)
    }


def advise_placement(
    workload: Workload,
    system: MemorySystem,
    dram_limit: int,
    traffic: Dict[str, Tuple[float, float]],
    *,
    dram_frac: float = 1.0,
) -> Dict[str, str]:
    """Run the density advisor on engine-level per-site traffic.

    Builds one :class:`MemObject` per allocation site from the given
    (loads, stores) totals — misses are per rank, matching the profile
    pipeline's convention — and greedily packs the DRAM budget
    ``dram_frac * dram_limit``.  With the full-timeline traffic this is
    the *static* ecoHMEM placement in the engine's own modeling frame;
    with suffix traffic it is an epoch's re-advisory candidate.
    """
    ranks = workload.ranks
    duration = workload.nominal_duration
    objects: Dict[str, MemObject] = {}
    for spec in workload.objects:
        loads, stores = traffic.get(spec.site.name, (0.0, 0.0))
        objects[spec.site.name] = MemObject(
            site_key=spec.site.name,
            size=spec.size,
            alloc_count=spec.alloc_count,
            load_misses=loads / ranks,
            store_misses=stores / ranks,
            first_alloc=0.0,
            last_free=duration,
            total_live_time=duration,
        )
    budget = max(int(dram_limit * dram_frac), 1)
    config = config_for_system(system, budget, ranks=ranks)
    placement = density_placement(objects, system, config)
    return {name: placement.get(name) for name in objects}


# -- migration cost --------------------------------------------------------------


def moved_bytes_by_destination(
    workload: Workload,
    segments: SegmentArrays,
    boundary_seg: int,
    old: Dict[str, str],
    new: Dict[str, str],
) -> Dict[str, float]:
    """Bytes that must physically move, keyed by destination subsystem.

    Only instances **live at the boundary** migrate — instances
    allocated later are simply created at their new location for free.
    Sizes are scaled by ranks (every rank owns a copy of its sites).
    """
    lo, hi = np.searchsorted(
        segments.pair_seg, [boundary_seg, boundary_seg + 1]
    )
    ranks = workload.ranks
    out: Dict[str, float] = {}
    for j in segments.pair_inst[lo:hi]:
        spec = segments.instances[int(j)].spec
        name = spec.site.name
        dest = new[name]
        if old.get(name, dest) == dest:
            continue
        out[dest] = out.get(dest, 0.0) + float(spec.size) * ranks
    return out


def migration_cost_s(
    workload: Workload,
    system: MemorySystem,
    bytes_by_destination: Dict[str, float],
) -> float:
    """Seconds charged for moving bytes into each destination subsystem.

    Each destination is charged the slower of its bandwidth bound
    (``bytes / peak_write_bw``) and its latency bound (one idle
    all-write line access per cache line, divided by the workload's
    memory-level parallelism); destinations drain independently but the
    run is stopped while copying, so costs add.
    """
    total = 0.0
    for dest, nbytes in bytes_by_destination.items():
        sub = system.get(dest)
        bw_bound = nbytes / sub.peak_write_bw
        lat_ns = sub.read_latency_ns(0.0, 1.0)
        lat_bound = (nbytes / LINE_BYTES) * lat_ns * 1e-9 / workload.mlp
        total += max(bw_bound, lat_bound)
    return total


# -- the re-advisory loop --------------------------------------------------------


def run_online(
    workload: Workload,
    system: MemorySystem,
    initial_placement: Dict[str, str],
    *,
    dram_limit: int,
    params: Optional[OnlineParams] = None,
    engine: Optional[ExecutionEngine] = None,
    use_incremental: bool = True,
) -> OnlineRunReport:
    """Execute the full online loop and report the outcome.

    ``use_incremental=False`` swaps both the candidate scoring and the
    patch application onto the naive full-recompute path (per-candidate
    scalar packs of :class:`PatchedPlacementTraffic` through the generic
    per-segment replay) — the oracle/baseline the perf floor and the
    service differential are measured against.  Both paths make
    identical decisions and produce bit-identical reports.
    """
    params = params or OnlineParams()
    if engine is None:
        engine = ExecutionEngine(workload, system)
    sa = engine._segment_arrays

    state = engine.run_delta(PlacementTraffic(workload, initial_placement))
    static_time = float(state.result.total_time)
    current = dict(initial_placement)

    bounds, shifted = detect_phase_shifts(workload, engine._plan, params)
    events: List[MigrationEvent] = []
    migration_total = 0.0
    evaluations = 0

    for epoch, s0 in shifted:
        traffic = suffix_site_traffic(engine._plan.pack_base, s0)
        candidates: List[Dict[str, str]] = []
        for frac in CANDIDATE_FRACS:
            cand = advise_placement(
                workload, system, dram_limit, traffic, dram_frac=frac
            )
            if cand != current and cand not in candidates:
                candidates.append(cand)
        if not candidates:
            continue
        evaluations += len(candidates)

        if use_incremental:
            times = engine.predict_times_incremental(state, candidates, s0)
        else:
            switch = float(sa.seg_lo[s0])
            models = [
                PatchedPlacementTraffic(state.model, cand, switch)
                for cand in candidates
            ]
            times = engine.predict_times(
                models,
                interposer_overheads_s=[state.interposer_overhead_s] * len(models),
            )

        current_total = float(state.result.total_time)
        best_k = -1
        best_net = 0.0
        best_cost = 0.0
        best_moved: Dict[str, float] = {}
        for k, t in enumerate(times):
            moved = moved_bytes_by_destination(
                workload, sa, s0, current, candidates[k]
            )
            cost = migration_cost_s(workload, system, moved)
            net = (current_total - t) - cost
            if net > best_net:
                best_k, best_net, best_cost, best_moved = k, net, cost, moved
        if best_k < 0:
            continue

        chosen = candidates[best_k]
        saving = current_total - times[best_k]
        if use_incremental:
            state = engine.run_incremental(state, chosen, s0)
        else:
            switch = float(sa.seg_lo[s0])
            state = engine.run_delta(
                PatchedPlacementTraffic(state.model, chosen, switch),
                label=state.label,
                interposer_overhead_s=state.interposer_overhead_s,
                interposer_stats=state.interposer_stats,
            )
        migration_total += best_cost
        moved_sites = sum(
            1 for name in chosen if current.get(name) != chosen[name]
        )
        events.append(MigrationEvent(
            epoch=epoch,
            boundary_seg=s0,
            switch_time=float(sa.seg_lo[s0]),
            sites_moved=moved_sites,
            bytes_by_subsystem=best_moved,
            cost_s=best_cost,
            predicted_saving_s=saving,
        ))
        current = dict(chosen)

    return OnlineRunReport(
        result=state.result,
        static_time=static_time,
        migration_total_s=migration_total,
        events=events,
        shift_boundaries=[s for _, s in shifted],
        epoch_boundaries=bounds,
        final_placement=current,
        candidate_evaluations=evaluations,
    )
