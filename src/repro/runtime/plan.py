"""One compiled plan per workload content, shared by every engine.

Everything the engine derives from a workload alone — the segmentation,
the placement-independent half of the app-direct pack and the result
assembly's scatter targets — depends on neither the placement nor the
memory system, and neither does the FlexMalloc replay's allocation
schedule.  The paper's Figure 1 workflow does that work once per
application and reuses it for every DRAM limit and every system; a
:class:`WorkloadPlan` holds it, and :func:`plan_for` finds the plan for a
workload in one process-wide :class:`PlanRegistry`.

The registry is keyed by :func:`~repro.apps.workload.workload_fingerprint`
(workload *content*, about 1-2 ms on the largest models), so two
``get_workload("lulesh")`` objects share one plan while a same-named
variant with different content gets its own.  It keeps the
``PLAN_CAPACITY`` most recently requested plans alive, and a weak index
finds any other plan still held by a live engine — the placement
server's memoized engines of one application on two systems share one.
A lock guards the index; a plan is built outside it, and concurrent
engine constructions for one workload wait for that one build, so a
plan is built exactly once and a lookup never waits on another
workload's build.

A plan is read-only by contract: a stray in-place write would corrupt
every engine in the process, and ``tests/runtime/test_plan.py`` checks
that every consumer leaves the plan's arrays unchanged.  The arrays are
not flagged unwritable, because NumPy copies a read-only operand in
``np.bincount``, the pack's hottest call (about 25 % slower per call).
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.alloc.heap import ALIGNMENT
from repro.apps.workload import (
    AllocationSite,
    InstanceSpan,
    Workload,
    workload_fingerprint,
)
from repro.runtime.segments import SegmentArrays, build_segment_arrays
from repro.runtime.traffic import (
    PairRates,
    _build_placement_pack_base,
    _PlacementPackBase,
    pair_rates,
)

__all__ = [
    "AssemblyPlan",
    "PLAN_CAPACITY",
    "PlanRegistry",
    "REGISTRY",
    "ReplaySchedule",
    "WorkloadPlan",
    "plan_for",
]

#: plans kept alive by the registry itself, most recently requested first
#: (plans held by live engines stay findable through the weak index):
#: the 7 registered applications and one variant, so a sweep that
#: interleaves them builds each plan once
PLAN_CAPACITY = 8


@dataclass
class AssemblyPlan:
    """Placement-independent accumulation state of result assembly.

    Site identities, pair->slot scatter targets, alloc/dealloc event
    positions and the phase grouping depend only on the workload's
    segmentation — not on where a placement routes traffic — so every
    run of every engine over one plan reuses them.
    """

    sid_of_name: Dict[str, int]
    slot_of_sid: np.ndarray        # site id -> live slot (or -1)
    n_live: int
    pair_slot: np.ndarray          # (P,) live-pair -> slot
    rep_of_slot: List[InstanceSpan]
    a_seg: np.ndarray              # alloc events: segment, in pair order
    a_order: np.ndarray            # stable argsort of alloc-event slots
    a_bounds: np.ndarray           # (n_live + 1,) group boundaries
    d_seg: np.ndarray              # dealloc events: segment, in pair order
    d_order: np.ndarray
    d_bounds: np.ndarray
    gseg: np.ndarray               # (S,) segment -> phase group id
    used_gids: np.ndarray          # group ids in first-segment order
    gfirst: np.ndarray             # first segment of each used group
    num_gids: int


def _build_assembly_plan(wl: Workload, sa: SegmentArrays) -> AssemblyPlan:
    instances = sa.instances

    # per-site identity, in first-live order
    sid_of_name: Dict[str, int] = {}
    inst_sid = np.empty(len(instances), dtype=np.int64)
    for n, inst in enumerate(instances):
        nm = inst.spec.site.name
        if nm not in sid_of_name:
            sid_of_name[nm] = len(sid_of_name)
        inst_sid[n] = sid_of_name[nm]

    pair_sid = inst_sid[sa.pair_inst] if sa.pair_inst.size else inst_sid[:0]
    uniq_sid, first_pair = np.unique(pair_sid, return_index=True)
    live_order = uniq_sid[np.argsort(first_pair, kind="stable")]
    slot_of_sid = np.full(len(sid_of_name) + 1, -1, dtype=np.int64)
    for slot, sid in enumerate(live_order):
        slot_of_sid[sid] = slot
    n_live = live_order.size
    pair_slot = slot_of_sid[pair_sid]

    first_pair_of_sid = {int(s): int(f) for s, f in zip(uniq_sid, first_pair)}
    rep_of_slot = [
        instances[int(sa.pair_inst[first_pair_of_sid[int(sid)]])]
        for sid in live_order
    ]

    # alloc/dealloc events: an instance allocates in its first live
    # segment when that segment starts exactly at the instance's start
    # (the scalar ``inst.start == seg.lo`` test), symmetrically for ends
    inst_start = np.array([i.start for i in instances])
    inst_end = np.array([i.end for i in instances])
    p_inst = sa.pair_inst
    p_seg = sa.pair_seg
    is_alloc = (p_seg == sa.inst_first_seg[p_inst]) & (
        sa.seg_lo[p_seg] == inst_start[p_inst]
    )
    is_dealloc = (p_seg == sa.inst_last_seg[p_inst] - 1) & (
        sa.seg_hi[p_seg] == inst_end[p_inst]
    )
    a_pairs = np.flatnonzero(is_alloc)
    d_pairs = np.flatnonzero(is_dealloc)
    a_slot = pair_slot[a_pairs]
    d_slot = pair_slot[d_pairs]
    a_order = np.argsort(a_slot, kind="stable")
    d_order = np.argsort(d_slot, kind="stable")
    a_bounds = np.searchsorted(a_slot[a_order], np.arange(n_live + 1))
    d_bounds = np.searchsorted(d_slot[d_order], np.arange(n_live + 1))

    # group phase spans by (name, iteration) — the scalar dict key
    gid_of_key: Dict[Tuple[str, int], int] = {}
    gid_of_span = np.empty(len(wl.spans), dtype=np.int64)
    for i, span in enumerate(wl.spans):
        key = (span.name, span.iteration)
        if key not in gid_of_key:
            gid_of_key[key] = len(gid_of_key)
        gid_of_span[i] = gid_of_key[key]
    gseg = gid_of_span[sa.span_idx]
    used_gids, gfirst = np.unique(gseg, return_index=True)
    order = np.argsort(gfirst, kind="stable")

    return AssemblyPlan(
        sid_of_name=sid_of_name,
        slot_of_sid=slot_of_sid,
        n_live=n_live,
        pair_slot=pair_slot,
        rep_of_slot=rep_of_slot,
        a_seg=p_seg[a_pairs], a_order=a_order, a_bounds=a_bounds,
        d_seg=p_seg[d_pairs], d_order=d_order, d_bounds=d_bounds,
        gseg=gseg,
        used_gids=used_gids[order],
        gfirst=gfirst[order],
        num_gids=int(gid_of_span.max()) + 1,
    )


@dataclass
class ObjectRows:
    """A pack's object rows on live slots, with their placement-free sums.

    ``slot`` maps each row to its site's live slot and ``nbytes`` holds
    its traffic bytes; the per-slot sums are scatter-adds in row order.
    """

    slot: np.ndarray               # (M,) row -> live slot
    nbytes: np.ndarray             # (M,) row traffic bytes
    load_misses: np.ndarray        # (n_live,)
    store_misses: np.ndarray       # (n_live,)
    bytes_total: np.ndarray        # (n_live,)


def site_slots(assembly: AssemblyPlan, site_names: List[str]) -> np.ndarray:
    """Each named site's live slot, -1 for a site never live."""
    sid = np.array([assembly.sid_of_name.get(nm, -1) for nm in site_names],
                   dtype=np.int64)
    # slot_of_sid's extra last entry is -1, so unknown sites stay -1
    return assembly.slot_of_sid[sid]


def object_rows(slot: np.ndarray, loads: np.ndarray, stores: np.ndarray,
                n_live: int) -> ObjectRows:
    """:class:`ObjectRows` of rows on known slots."""
    nbytes = (loads + 2.0 * stores) * 64.0
    return ObjectRows(
        slot=slot,
        nbytes=nbytes,
        load_misses=np.bincount(slot, weights=loads, minlength=n_live),
        store_misses=np.bincount(slot, weights=stores, minlength=n_live),
        bytes_total=np.bincount(slot, weights=nbytes, minlength=n_live),
    )


@dataclass
class ReplaySchedule:
    """The workload's allocation schedule, in FlexMalloc replay order.

    Instances are numbered in ``workload.instances()`` order.  Edge
    ``pos < n`` allocates instance ``pos`` and edge ``pos >= n`` frees
    instance ``pos - n``; ``edges`` lists them chronologically, frees
    before allocations at equal times and instance order within a kind,
    exactly the scalar replay's stable sort.  Sizes are the node-wide
    request (``spec.size * ranks``), ``padded`` the heap's aligned
    reservation.  The per-call sequences are tuples, so no consumer can
    change them.
    """

    sizes: np.ndarray              # (N,) requested bytes, int64
    padded: np.ndarray             # (N,) aligned bytes, int64
    sites: Tuple[AllocationSite, ...]  # distinct sites, first-instance order
    alloc_order: np.ndarray        # (N,) instances in allocation-call order
    alloc_sites: Tuple[int, ...]   # site of each allocation call, in order
    alloc_keys: Tuple[Tuple[str, int], ...]  # (site, index) of each call
    #: (site name, instance) of each site's first allocation, in call order
    site_firsts: Tuple[Tuple[str, int], ...]
    edges: np.ndarray              # (2N,) chronological edge positions
    edge_inst: np.ndarray          # (2N,) instance of each edge
    edge_delta: np.ndarray         # (2N,) +padded on alloc, -padded on free
    #: every free edge frees its own instance (no two share a key)
    keys_unique: bool


def _build_replay_schedule(workload: Workload,
                           instances: List[InstanceSpan]) -> ReplaySchedule:
    n = len(instances)
    times = np.array([i.start for i in instances]
                     + [i.end for i in instances], dtype=np.float64)
    kinds = np.concatenate([np.ones(n, dtype=np.int64),
                            np.zeros(n, dtype=np.int64)])
    # stable: same-(time, kind) ties keep ascending position, i.e.
    # instance order within each kind, as the scalar sort does
    edges = np.lexsort((kinds, times))
    edge_alloc = edges < n
    edge_inst = np.where(edge_alloc, edges, edges - n)

    site_idx: Dict[str, int] = {}
    sites: List[AllocationSite] = []
    site_of = np.empty(n, dtype=np.int64)
    for k, inst in enumerate(instances):
        site = inst.spec.site
        s = site_idx.get(site.name)
        if s is None:
            s = site_idx[site.name] = len(sites)
            sites.append(site)
        site_of[k] = s
    keys = [(inst.spec.site.name, inst.index) for inst in instances]
    sizes = np.array([inst.spec.size * workload.ranks for inst in instances],
                     dtype=np.int64)
    padded = (sizes + (ALIGNMENT - 1)) // ALIGNMENT * ALIGNMENT

    alloc_order = edges[edge_alloc]
    order = alloc_order.tolist()
    site_firsts: List[Tuple[str, int]] = []
    seen = set()
    for k in order:
        name = keys[k][0]
        if name not in seen:
            seen.add(name)
            site_firsts.append((name, k))
    return ReplaySchedule(
        sizes=sizes,
        padded=padded,
        sites=tuple(sites),
        alloc_order=alloc_order,
        alloc_sites=tuple(site_of[alloc_order].tolist()),
        alloc_keys=tuple(keys[k] for k in order),
        site_firsts=tuple(site_firsts),
        edges=edges,
        edge_inst=edge_inst,
        edge_delta=np.where(edge_alloc, padded[edge_inst], -padded[edge_inst]),
        keys_unique=len(set(keys)) == n,
    )


@dataclass
class WorkloadPlan:
    """A workload compiled for the engine: everything no placement changes.

    ``segments`` is the timeline segmentation every pack and every solve
    runs over, ``rates`` the access-rate tables of its (segment, instance)
    pairs, ``pack_base`` the kept pairs and their traffic that every
    app-direct placement routes (and the baseline packs reuse), and
    ``assembly`` the scatter targets of result assembly,
    ``object_rows`` the pack base's object rows as every uniform
    app-direct pack emits them, and ``replay`` the allocation schedule
    the FlexMalloc replay walks.  A plan is read-only once built.
    """

    fingerprint: str
    segments: SegmentArrays
    rates: PairRates
    pack_base: _PlacementPackBase
    assembly: AssemblyPlan
    object_rows: ObjectRows
    replay: ReplaySchedule


def _build_plan(workload: Workload, fingerprint: str) -> WorkloadPlan:
    segments = build_segment_arrays(workload)
    rates = pair_rates(workload, segments)
    base = _build_placement_pack_base(workload, segments, rates)
    assembly = _build_assembly_plan(workload, segments)
    # kept pairs are live, so every base row's site has a slot
    return WorkloadPlan(
        fingerprint=fingerprint,
        segments=segments,
        rates=rates,
        pack_base=base,
        assembly=assembly,
        object_rows=object_rows(
            site_slots(assembly, base.site_names)[base.obj_site_ord],
            base.obj_loads_ord, base.obj_stores_ord, assembly.n_live),
        replay=_build_replay_schedule(workload, segments.instances),
    )


class PlanRegistry:
    """Workload plans by content fingerprint: a small LRU plus a weak index.

    ``builds`` counts plans compiled, ``hits`` lookups answered with an
    existing plan, and ``evictions`` plans the LRU let go of (a plan a
    live engine still holds stays findable until the engine is gone).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._index: "weakref.WeakValueDictionary[str, WorkloadPlan]" = (
            weakref.WeakValueDictionary())
        self._recent: "OrderedDict[str, WorkloadPlan]" = OrderedDict()
        self._building: Dict[str, threading.Event] = {}
        self.builds = 0
        self.hits = 0
        self.evictions = 0

    def plan_for(self, workload: Workload) -> WorkloadPlan:
        """The shared plan of ``workload``'s content, built on first use."""
        key = workload_fingerprint(workload)
        while True:
            with self._lock:
                plan = self._index.get(key)
                if plan is not None:
                    self.hits += 1
                    self._remember(key, plan)
                    return plan
                pending = self._building.get(key)
                if pending is None:
                    pending = self._building[key] = threading.Event()
                    break
            # another thread is building this plan: wait, then look again
            # (if its build failed, the first thread to look builds anew)
            pending.wait()
        try:
            plan = _build_plan(workload, key)
            with self._lock:
                self._index[key] = plan
                self.builds += 1
                self._remember(key, plan)
            return plan
        finally:
            with self._lock:
                del self._building[key]
            pending.set()

    def _remember(self, key: str, plan: WorkloadPlan) -> None:
        """Make ``plan`` the most recent; evict beyond the capacity."""
        self._recent[key] = plan
        self._recent.move_to_end(key)
        while len(self._recent) > PLAN_CAPACITY:
            self._recent.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Forget every plan (engines keep theirs) and zero the counters."""
        with self._lock:
            self._index.clear()
            self._recent.clear()
            self.builds = self.hits = self.evictions = 0


#: the process-wide registry every engine reads from
REGISTRY = PlanRegistry()


def plan_for(workload: Workload) -> WorkloadPlan:
    """The process-wide shared plan of ``workload``'s content."""
    return REGISTRY.plan_for(workload)
