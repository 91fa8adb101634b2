"""Optane memory mode: the hardware-managed DRAM cache baseline.

Every off-chip access first probes the direct-mapped DRAM cache; hits are
served at DRAM latency, misses additionally pay PMem latency plus a fill
penalty and generate PMem traffic.  The hit ratio is the analytic model of
:func:`repro.memsim.dram_cache.memory_mode_hit_ratio`, evaluated per
segment from the working set actually accessed in that segment — so
applications whose active working set exceeds the DRAM (MiniFE, HPCG)
thrash exactly as Table VI reports.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.workload import InstanceSpan, Workload
from repro.baselines.packing import builtin_sum, segment_sums, two_tier_batch
from repro.memsim.dram_cache import memory_mode_hit_ratio
from repro.memsim.subsystem import MemorySystem
from repro.runtime.engine import ExecutionEngine
from repro.runtime.plan import WorkloadPlan
from repro.runtime.stats import RunResult
from repro.runtime.traffic import (
    SegmentTraffic,
    TrafficBatch,
    _build_placement_pack_base,
    check_traffic_adds,
)

#: extra per-load penalty of a DRAM-cache miss: the fill round-trip the
#: memory controller inserts before data reaches the core (measured
#: memory-mode miss paths are worse than raw PMem reads [18]).
FILL_PENALTY_NS = 60.0

#: extra per-access penalty on the DRAM cache itself: the controller's
#: tag/metadata check sits on every access path in memory mode, so even
#: hits are slower than app-direct DRAM reads.
CACHE_PROBE_NS = 22.0

#: fraction of store misses that eventually write back to PMem: the
#: write-back DRAM cache coalesces repeated writes to a line, so only the
#: final eviction reaches the PMem media — the reason memory mode weathers
#: reduced PMem write bandwidth (PMem-2) better than app-direct placement.
WRITEBACK_COALESCING = 0.5


class MemoryModeTraffic:
    """Traffic model for memory mode."""

    def __init__(self, workload: Workload, dram_cache_bytes: int):
        self.workload = workload
        self.dram_cache_bytes = dram_cache_bytes
        #: (traffic weights, hit ratios) chunks, in contribution order
        self._hit_ratios: List[Tuple[Sequence[float], Sequence[float]]] = []

    @property
    def label(self) -> str:
        return "memory-mode"

    def _per_object_hits(self, contributions, dt: float):
        """LRU-competition hit ratios: hot-per-byte objects stay resident.

        The hardware cache keeps whatever is re-referenced most often per
        byte; we model that by granting residence in descending access
        density until the (conflict-discounted) capacity runs out.  The
        resident share of an object hits at the workload's reuse locality;
        the evicted share retains only short streaming reuse.
        """
        wl = self.workload
        ranks = wl.ranks
        order = sorted(
            range(len(contributions)),
            key=lambda i: -(
                (contributions[i][1].load_rate + contributions[i][1].store_rate)
                / contributions[i][0].spec.size
            ),
        )
        budget = self.dram_cache_bytes * (1.0 - wl.conflict_pressure)
        residency = [0.0] * len(contributions)
        for i in order:
            inst, _stats = contributions[i]
            footprint = inst.spec.size * ranks * wl.ws_factor
            if footprint <= budget:
                residency[i] = 1.0
                budget -= footprint
            elif budget > 0:
                residency[i] = budget / footprint
                budget = 0.0

        # Direct-mapped conflict thrash: streams flowing through the cache
        # evict resident lines at random index collisions, so residence
        # protects less the more of the segment's traffic is streaming.
        total_rate = sum(s.load_rate + s.store_rate for _, s in contributions)
        stream_rate = sum(
            (s.load_rate + s.store_rate) * (1.0 - residency[i])
            for i, (_inst, s) in enumerate(contributions)
        )
        stream_share = stream_rate / total_rate if total_rate > 0 else 0.0
        thrash = 1.0 - 2.0 * wl.conflict_pressure * stream_share

        hits = [0.0] * len(contributions)
        for i, (inst, _stats) in enumerate(contributions):
            footprint = inst.spec.size * ranks * wl.ws_factor
            streaming = memory_mode_hit_ratio(
                footprint, self.dram_cache_bytes,
                reuse_locality=wl.locality * 0.15,
                conflict_pressure=wl.conflict_pressure,
            )
            resident = residency[i]
            hits[i] = max(
                resident * wl.locality * thrash + (1.0 - resident) * streaming, 0.0
            )
        return hits

    def segment_traffic(
        self,
        lo: float,
        hi: float,
        phase_name: str,
        live: Sequence[InstanceSpan],
    ) -> SegmentTraffic:
        wl = self.workload
        ranks = wl.ranks
        dt = hi - lo
        traffic = SegmentTraffic()

        contributions = []
        for inst in live:
            stats = inst.spec.access.get(phase_name)
            if stats is None or (stats.load_rate == 0 and stats.store_rate == 0):
                continue
            contributions.append((inst, stats))
        if not contributions:
            return traffic

        hits = self._per_object_hits(contributions, dt)
        weights = []
        self._hit_ratios.append((weights, hits))

        dram = traffic.subsystem("dram")
        pmem = traffic.subsystem("pmem")
        dram.extra_latency_ns = CACHE_PROBE_NS
        pmem.extra_latency_ns = FILL_PENALTY_NS
        for (inst, stats), hit in zip(contributions, hits):
            loads = stats.load_rate * dt * ranks
            stores = stats.store_rate * dt * ranks
            serial = loads * inst.spec.serial_fraction
            weights.append(loads + stores)
            # every access probes the DRAM cache; misses additionally fill
            # a line into DRAM (counted as half a store: one 64 B write,
            # no RFO) — the memory-mode write-amplification effect
            fill_stores = 0.5 * (loads + stores) * (1.0 - hit)
            dram.add(loads=loads, stores=stores + fill_stores, serial_loads=serial)
            # ...and the (1-hit) fraction continues to PMem; store misses
            # reach the media only on (coalesced) dirty evictions
            pmem_stores = stores * (1.0 - hit) * WRITEBACK_COALESCING
            pmem.add(
                loads=loads * (1.0 - hit),
                stores=pmem_stores,
                serial_loads=serial * (1.0 - hit),
            )
            traffic.record_object(inst.spec.site.name, "dram", loads * hit, stores * hit)
            traffic.record_object(
                inst.spec.site.name, "pmem", loads * (1.0 - hit), pmem_stores
            )
        return traffic

    def traffic_batch(
        self, plan: WorkloadPlan, subsystem_names: Sequence[str]
    ) -> TrafficBatch:
        """All segments' traffic at once, field-identical to the scalar path.

        Every per-contribution quantity is the scalar expression evaluated
        on columns of the kept pairs.  The two order-sensitive steps keep
        the scalar order: the greedy residency walks each segment's
        contributions in stable descending density (every segment's
        ``j``-th step at once), and the thrash term's rate totals are the
        builtin ``sum`` over each segment in contribution order.

        A pair's density ``-(rate / size)`` is a function of its
        (spec row, phase) table cell, so the cells are ranked once
        (``np.unique``: equal floats, ``-0.0`` and ``+0.0`` included, get
        one rank) and the pairs are put in density order by one stable
        ``argsort`` of ``segment * cells + rank``: the order a stable sort
        by segment, then density, gives.

        The scalar rule keeps a contribution with stats and not both rates
        zero.  That is the plan's pack base, and its load, store and serial
        columns are this pack's, unless some rate underflowed to zero
        traffic; only then are the pairs re-kept with this rule.  Each
        per-pair temporary is dropped once consumed, so the pack's peak
        stays a few columns above the plan.
        """
        wl = self.workload
        ranks = wl.ranks
        segments = plan.segments
        S = segments.num_segments
        rates = plan.rates
        base = plan.pack_base
        if base.n_rated != base.kseg.size:
            base = _build_placement_pack_base(
                wl, segments, rates,
                lambda has, lr, sr, pl, ps: has & ((lr != 0) | (sr != 0)))
        kseg, kinst = base.kseg, base.kinst
        row, col = rates.at(kseg, kinst)
        rate_tab = rates.lr_tab + rates.sr_tab
        rate = rate_tab[row, col]
        inst_fp = rates.inst_size * ranks * wl.ws_factor
        footprint = inst_fp[kinst]

        # every instance of a spec row has the spec's size
        row_size = np.zeros(rate_tab.shape[0], dtype=rates.inst_size.dtype)
        row_size[rates.inst_row] = rates.inst_size
        _, rank = np.unique(-(rate_tab / row_size[:, None]),
                            return_inverse=True)
        rank = rank.reshape(rate_tab.shape)
        order = np.argsort(kseg * rate_tab.size + rank[row, col],
                           kind="stable")
        del row, col
        residency = np.empty(kseg.size)
        residency[order] = _greedy_residency(
            kseg[order], footprint[order],
            self.dram_cache_bytes * (1.0 - wl.conflict_pressure),
        )
        del order

        bounds = np.searchsorted(kseg, np.arange(S + 1))
        total_rate = segment_sums(rate, bounds)
        stream_rate = segment_sums(rate * (1.0 - residency), bounds)
        del rate
        stream_share = np.divide(stream_rate, total_rate, out=np.zeros(S),
                                 where=total_rate > 0)
        thrash = 1.0 - 2.0 * wl.conflict_pressure * stream_share

        # one analytic hit ratio per distinct footprint
        used = np.zeros(inst_fp.size, dtype=bool)
        used[kinst] = True
        uniq = np.unique(inst_fp[used])
        streaming = np.array([
            memory_mode_hit_ratio(
                f, self.dram_cache_bytes,
                reuse_locality=wl.locality * 0.15,
                conflict_pressure=wl.conflict_pressure,
            )
            for f in uniq.tolist()
        ])[np.searchsorted(uniq, footprint)]
        del footprint
        x = (residency * wl.locality * thrash[kseg]
             + (1.0 - residency) * streaming)
        del residency, streaming
        hit = np.where(0.0 > x, 0.0, x)  # max(x, 0.0), NaN and -0.0 kept
        del x

        loads, stores, serial = base.pl, base.ps, base.pser
        miss = 1.0 - hit
        fill_stores = 0.5 * (loads + stores) * miss
        dram = (loads, stores + fill_stores, serial)
        del fill_stores
        pmem = (loads * miss, stores * miss * WRITEBACK_COALESCING,
                serial * miss)
        del miss
        check_traffic_adds(dram, pmem)
        self._hit_ratios.append((loads + stores, hit))

        touched = bounds[1:] > bounds[:-1]
        return two_tier_batch(
            plan, subsystem_names, base,
            dram=(kseg,) + dram, pmem=(kseg,) + pmem,
            dram_present=touched, pmem_present=touched, dram_first=touched,
            objects=partial(_object_columns, base.pl, base.ps, hit),
            extra_latency_ns=(CACHE_PROBE_NS, FILL_PENALTY_NS),
        )

    def mean_hit_ratio(self) -> Optional[float]:
        """Traffic-weighted DRAM cache hit ratio over the run."""
        if not self._hit_ratios:
            return None
        weights = np.concatenate([np.asarray(w, dtype=float)
                                  for w, _ in self._hit_ratios])
        hits = np.concatenate([np.asarray(h, dtype=float)
                               for _, h in self._hit_ratios])
        total = builtin_sum(weights)
        if total == 0:
            return None
        return builtin_sum(weights * hits) / total


def _object_columns(loads: np.ndarray, stores: np.ndarray, hit: np.ndarray):
    """The per-pair ``(recorded, loads, stores)`` of the ``dram`` and the
    ``pmem`` object rows: the scalar ``record_object`` arguments, from the
    pairs' traffic and hit ratios (every contribution records both)."""
    recorded = np.ones(hit.size, dtype=bool)
    miss = 1.0 - hit
    return ((recorded, loads * hit, stores * hit),
            (recorded, loads * miss, stores * miss * WRITEBACK_COALESCING))


def _greedy_residency(
    seg: np.ndarray, footprint: np.ndarray, budget0: float
) -> np.ndarray:
    """``_per_object_hits``' residency loop for every segment at once.

    ``seg``/``footprint`` list each segment's contributions in the order
    the loop visits them.  Step ``j`` handles every segment's ``j``-th
    contribution: a footprint that fits the budget is resident and
    subtracted from it (sequentially, as the loop does), and the first
    that does not takes what is left of a positive budget, emptying it.
    """
    n = seg.size
    if n == 0:
        return np.zeros(0)
    starts = np.flatnonzero(np.r_[True, seg[1:] != seg[:-1]])
    counts = np.diff(np.r_[starts, n])
    row = np.repeat(np.arange(starts.size), counts)
    pos = np.arange(n) - starts[row]
    # (step, segment) layout: each step is one contiguous row
    shape = (int(counts.max()), starts.size)
    fp = np.zeros(shape)
    fp[pos, row] = footprint
    valid = np.zeros(shape, dtype=bool)
    valid[pos, row] = True
    res = np.zeros(shape)
    budget = np.full(starts.size, budget0)
    for f, v, r in zip(fp, valid, res):
        fits = v & (f <= budget)
        part = v & ~fits & (budget > 0)
        r[fits] = 1.0
        np.divide(budget, f, out=r, where=part)
        budget = np.where(fits, budget - f, np.where(part, 0.0, budget))
    return res[pos, row]


def run_memory_mode(
    workload: Workload,
    system: MemorySystem,
    *,
    dram_cache_bytes: Optional[int] = None,
) -> RunResult:
    """Convenience: execute a workload in memory mode.

    ``dram_cache_bytes`` defaults to the system's full DRAM capacity (in
    memory mode *all* DRAM serves as cache — the paper's baseline has the
    full 16 GB, more than the Advisor's DRAM limit ever gets).
    """
    cache = dram_cache_bytes if dram_cache_bytes is not None else system.get("dram").capacity
    model = MemoryModeTraffic(workload, cache)
    engine = ExecutionEngine(workload, system)
    result = engine.run(model, label="memory-mode")
    result.dram_cache_hit_ratio = model.mean_hit_ratio()
    return result
