"""Allocation replay through FlexMalloc.

The production half of the workflow: every allocation instance of a
workload is replayed *chronologically* through the interposer, so the
placement each instance actually receives reflects both the report
matching and the runtime capacity fallback (a DRAM heap that fills up
bounces later allocations to the fallback subsystem, exactly when the
paper's "running out of memory" footnotes bite).

Returns the per-instance placement map the engine's
:class:`~repro.runtime.traffic.PlacementTraffic` consumes, plus the
interposer and matcher statistics used by the call-stack-format
experiments (Section VIII-D).

Two implementations are provided:

- :func:`replay_allocations` — walks only the heaps that can fill.
  Every allocation is first routed through the matcher, in call order.
  Only a heap that can run out of space can change where an allocation
  lands, so only such heaps go through the chronological first-fit
  walk; every other heap is accounted in bulk from the edge schedule.
  The schedule (edge order, padded sizes, keys) is the workload plan's
  :class:`~repro.runtime.plan.ReplaySchedule`, built once per workload
  content.
- :func:`replay_allocations_scalar` — the original per-edge loop, kept
  verbatim as the reference oracle (every heap walked with scalar scans,
  uncached ``subsystem_of`` address probe).

:func:`replay_results_identical` proves the two produce bit-identical
results: same placements in the same insertion order, same interposer,
matcher, resolver and heap statistics, floats compared with ``==``.

There is deliberately no replay memo across calls or processes: a
replay is a pure function of its inputs, but the benchmark rounds and
sweeps repeat the same cells, so such a memo would mostly measure that
repetition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.alloc.interposer import FlexMalloc
from repro.apps.sites import ProcessImage
from repro.apps.workload import Workload
from repro.errors import AllocationError, MatchError, SimulationError
from repro.runtime.plan import plan_for


@dataclass
class ReplayResult:
    """Outcome of replaying a workload's allocations through FlexMalloc."""

    #: (site_name, instance_index) -> subsystem actually used
    instance_placement: Dict[Tuple[str, int], str]
    #: site_name -> subsystem of its first instance (engine default map)
    site_placement: Dict[str, str]
    flexmalloc: FlexMalloc
    #: simulated seconds spent in allocation calls + matching, per rank
    overhead_s: float
    #: subsystems whose heap went through the first-fit walk (the rest
    #: were accounted in bulk)
    walked: Tuple[str, ...]


def _route(flexmalloc: FlexMalloc, stacks: list, alloc_sites: List[int],
           heap_of: Dict[str, int], fb: int) -> List[int]:
    """Each allocation call's designated heap, matcher charged in call order.

    Exactly :meth:`FlexMalloc.malloc`'s routing: a match error or an
    unmatched stack designates the fallback.  A report subsystem with no
    heap raises the registry's ``KeyError``, as the interposer does.
    """
    stats = flexmalloc.stats
    matcher = flexmalloc.matcher
    if matcher is None:
        stats.fallback_unmatched += len(alloc_sites)
        return [fb] * len(alloc_sites)
    match = matcher.match
    out = []
    append = out.append
    matched = unmatched = errors = 0
    for s in alloc_sites:
        try:
            sub = match(stacks[s])
        except MatchError:
            errors += 1
            append(fb)
            continue
        if sub is None:
            unmatched += 1
            append(fb)
            continue
        matched += 1
        k = heap_of.get(sub)
        if k is None:
            flexmalloc.heaps.get(sub)  # raises the registry's KeyError
        append(k)
    stats.matched += matched
    stats.fallback_unmatched += unmatched
    stats.fallback_match_error += errors
    return out


def replay_allocations(
    workload: Workload,
    process: ProcessImage,
    flexmalloc: FlexMalloc,
) -> ReplayResult:
    """Replay the nominal allocation schedule through the interposer.

    A heap *cannot fill* when the padded sizes of every instance that
    can land in it sum to at most its largest free block on entry: the
    first-fit carve never reaches past the cumulative demand into that
    block, so no request fails.  For the fallback heap the instances that
    can land in it include every possible spill from a heap that can
    fill.  Heaps that can fill are walked chronologically through
    first-fit, exactly as the interposer would; the others are accounted
    in bulk.  Their placements are the designated heap, their high-water
    mark a cumulative sum over the chronological edges, and their free
    lists end unchanged, because every instance is freed again.
    """
    sched = plan_for(workload).replay
    if not sched.keys_unique:
        raise SimulationError(
            f"workload {workload.name!r}: two allocation instances share a "
            f"(site, index) key, so an instance has no free edge of its own")
    n = len(sched.sizes)
    edge_alloc = sched.edges < n
    stats = flexmalloc.stats
    heaps = list(flexmalloc.heaps)
    names = [h.subsystem for h in heaps]
    heap_of = {name: k for k, name in enumerate(names)}
    fb = heap_of[flexmalloc.fallback]

    # 1. route every allocation through the matcher, in call order
    stacks = [process.callstack(site) for site in sched.sites]
    routed = _route(flexmalloc, stacks, sched.alloc_sites, heap_of, fb)
    stats.calls += n
    target = np.empty(n, dtype=np.int64)
    target[sched.alloc_order] = routed

    # 2. which heaps can fill
    demand = [int(sched.padded[target == k].sum()) for k in range(len(heaps))]
    walked = [k != fb and demand[k] > heaps[k].largest_free_block()
              for k in range(len(heaps))]
    spill_demand = sum(d for d, w in zip(demand, walked) if w)
    walked[fb] = demand[fb] + spill_demand > heaps[fb].largest_free_block()

    # 3. the chronological first-fit walk over the heaps that can fill
    landing = target
    spills = 0
    if any(walked):
        landing = target.copy()
        inst_walked = np.array(walked)[target]
        walk = sched.edges[inst_walked[sched.edge_inst]].tolist()
        tgt = target.tolist()
        sizes = sched.sizes.tolist()
        fb_heap = heaps[fb] if walked[fb] else None
        live: Dict[int, tuple] = {}
        for pos in walk:
            if pos < n:
                heap = heaps[tgt[pos]]
                try:
                    live[pos] = (heap, heap.allocate(sizes[pos]).address)
                except AllocationError:
                    if tgt[pos] == fb:
                        raise  # nothing left to try
                    # designated heap full: the fallback serves it
                    spills += 1
                    landing[pos] = fb
                    if fb_heap is not None:
                        live[pos] = (fb_heap,
                                     fb_heap.allocate(sizes[pos]).address)
            else:
                entry = live.pop(pos - n, None)
                if entry is not None:
                    entry[0].free(entry[1])
    stats.fallback_capacity += spills

    # 4. bulk accounting of the heaps nobody walked
    edge_heap = landing[sched.edge_inst]
    for k, heap in enumerate(heaps):
        if walked[k]:
            continue
        mine = landing == k
        count = int(mine.sum())
        if not count:
            continue
        hs = heap.stats
        hs.allocations += count
        hs.frees += count
        hs.bytes_allocated += int(sched.sizes[mine].sum())
        peak = heap.used + int(np.cumsum(sched.edge_delta[edge_heap == k]).max())
        hs.high_water = max(hs.high_water, peak)

    # interposer accounting: one heap-call charge per edge, added in
    # call order (cumsum adds left to right, as repeated += does)
    alloc_cost = np.array([h.alloc_cost_ns for h in heaps], dtype=np.float64)
    free_cost = np.array([h.free_cost_ns for h in heaps], dtype=np.float64)
    charges = np.empty(2 * n + 1, dtype=np.float64)
    charges[0] = stats.overhead_ns
    charges[1:] = np.where(edge_alloc, alloc_cost[edge_heap],
                           free_cost[edge_heap])
    stats.overhead_ns = float(np.cumsum(charges)[-1])
    stats.frees += n
    # bytes by subsystem, keyed in first-landing order
    land_calls = landing[sched.alloc_order]
    landed_heaps, first_call = np.unique(land_calls, return_index=True)
    account = stats.bytes_by_subsystem
    for k in landed_heaps[np.argsort(first_call)].tolist():
        account[names[k]] = (account.get(names[k], 0)
                             + int(sched.sizes[landing == k].sum()))

    landed = [names[k] for k in land_calls.tolist()]
    instance_placement = dict(zip(sched.alloc_keys, landed))
    site_placement = {name: names[landing[k]] for name, k in sched.site_firsts}
    return ReplayResult(
        instance_placement=instance_placement,
        site_placement=site_placement,
        flexmalloc=flexmalloc,
        overhead_s=flexmalloc.total_overhead_ns() * 1e-9,
        walked=tuple(nm for nm, w in zip(names, walked) if w),
    )


def replay_allocations_scalar(
    workload: Workload,
    process: ProcessImage,
    flexmalloc: FlexMalloc,
) -> ReplayResult:
    """The reference replay loop: per-edge Python sort, per-call lookups.

    Kept verbatim as the differential oracle for
    :func:`replay_allocations`.  Heaps take the linear first-fit scan
    (``malloc_scalar``) and each placement is read back through the
    address-range probe, so the entire scalar stack is exercised.
    """
    instances = workload.instances()
    # chronological edges: allocs and frees interleaved; frees first at a
    # tie so back-to-back reallocation at the same site reuses the space
    edges = []
    for inst in instances:
        edges.append((inst.start, 1, inst))
        edges.append((inst.end, 0, inst))
    edges.sort(key=lambda e: (e[0], e[1]))

    instance_placement: Dict[Tuple[str, int], str] = {}
    site_placement: Dict[str, str] = {}
    addr_of: Dict[Tuple[str, int], int] = {}

    for _time, kind, inst in edges:
        key = (inst.spec.site.name, inst.index)
        if kind == 1:
            stack = process.callstack(inst.spec.site)
            alloc = flexmalloc.malloc_scalar(inst.spec.size * workload.ranks, stack)
            addr_of[key] = alloc.address
            subsystem = flexmalloc.subsystem_of(alloc.address)
            instance_placement[key] = subsystem
            site_placement.setdefault(inst.spec.site.name, subsystem)
        else:
            address = addr_of.pop(key, None)
            if address is not None:
                flexmalloc.free(address)

    overhead_s = flexmalloc.total_overhead_ns() * 1e-9
    return ReplayResult(
        instance_placement=instance_placement,
        site_placement=site_placement,
        flexmalloc=flexmalloc,
        overhead_s=overhead_s,
        walked=tuple(flexmalloc.heaps.subsystems),
    )


def replay_results_identical(a: ReplayResult, b: ReplayResult) -> List[str]:
    """Why two replay results differ; empty when bit-identical.

    Every float is compared with ``==`` (no tolerance) and every dict is
    also compared on key *insertion order*, so the batched loop must
    touch instances, sites and subsystems in exactly the oracle's
    sequence to pass.
    """
    diffs: List[str] = []

    def eq(label: str, va, vb) -> None:
        if va != vb:
            diffs.append(f"{label}: {va!r} != {vb!r}")

    def dict_identical(label: str, da: Dict, db: Dict) -> None:
        eq(f"{label} keys", list(da.keys()), list(db.keys()))
        for k in da:
            if k in db:
                eq(f"{label}[{k!r}]", da[k], db[k])

    dict_identical("instance_placement", a.instance_placement, b.instance_placement)
    dict_identical("site_placement", a.site_placement, b.site_placement)
    eq("overhead_s", a.overhead_s, b.overhead_s)

    sa, sb = a.flexmalloc.stats, b.flexmalloc.stats
    for f in (
        "calls",
        "matched",
        "fallback_unmatched",
        "fallback_match_error",
        "fallback_capacity",
        "frees",
        "reallocs",
        "overhead_ns",
    ):
        eq(f"interposer.{f}", getattr(sa, f), getattr(sb, f))
    dict_identical(
        "interposer.bytes_by_subsystem", sa.bytes_by_subsystem, sb.bytes_by_subsystem
    )

    ma, mb = a.flexmalloc.matcher, b.flexmalloc.matcher
    eq("matcher presence", ma is None, mb is None)
    if ma is not None and mb is not None:
        for f in ("lookups", "matches", "time_ns", "init_time_ns", "resident_bytes"):
            eq(f"matcher.{f}", getattr(ma.stats, f), getattr(mb.stats, f))
        ra = getattr(ma, "resolver", None)
        rb = getattr(mb, "resolver", None)
        if ra is not None and rb is not None:
            for f in (
                "frames_resolved",
                "cache_hits",
                "time_ns",
                "debug_info_bytes_loaded",
            ):
                eq(f"resolver.{f}", getattr(ra.cost, f), getattr(rb.cost, f))

    eq("subsystems", a.flexmalloc.heaps.subsystems, b.flexmalloc.heaps.subsystems)
    for ha, hb in zip(a.flexmalloc.heaps, b.flexmalloc.heaps):
        label = f"heap[{ha.subsystem}]"
        for f in (
            "allocations",
            "frees",
            "failed",
            "bytes_allocated",
            "high_water",
        ):
            eq(f"{label}.stats.{f}", getattr(ha.stats, f), getattr(hb.stats, f))
        eq(f"{label}.used", ha.used, hb.used)
        fa = getattr(ha, "free_blocks", None)
        fb = getattr(hb, "free_blocks", None)
        if fa is not None and fb is not None:
            eq(f"{label}.free_blocks", fa(), fb())

    return diffs
