"""Kernel-level page migration (Intel tiering-0.71).

The kernel exposes PMem as a NUMA node and reactively promotes hot pages
to DRAM / demotes cold ones.  Two effects the paper highlights are
modelled:

1. **Metadata cost** — enabling the PMem NUMA node costs DRAM for
   ``struct page`` metadata proportional to PMem capacity ("~15 GB in our
   case"), which shrinks the DRAM usable by applications
   (:func:`tiering_effective_dram`).
2. **Reactivity** — promotion happens only after access-bit scans identify
   a hot page, so every phase starts with its hot data in PMem and only
   enjoys DRAM after a reaction delay, modelled as a per-phase-occurrence
   warm-up during which promoted objects' traffic still goes to PMem.
   Promotion also generates migration traffic on both devices.

Objects are promoted hottest-first (true access density — the kernel sees
real access bits, not samples) until the effective DRAM fills.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional, Sequence, Set, Tuple

import numpy as np

from repro.apps.workload import InstanceSpan, Workload
from repro.baselines.packing import two_tier_batch
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
from repro.units import GiB

#: struct page is 64 B per 4 KiB page -> ~1.56% of device capacity.
METADATA_FRACTION = 64.0 / 4096.0


def tiering_effective_dram(dram_bytes: int, pmem_bytes: int,
                           *, reserve_bytes: int = 1 * GiB) -> int:
    """DRAM left for application data after page metadata.

    The kernel keeps at least ``reserve_bytes`` usable (it would refuse to
    boot otherwise); the paper's 6-DIMM node computes to roughly the
    ~15 GB metadata figure it quotes, leaving about 1 GB.
    """
    metadata = int(pmem_bytes * METADATA_FRACTION * 0.31)
    # 0.31: only pages in the active zones get full metadata resident; the
    # factor lands the paper's quoted ~15 GB for 3 TB of PMem per node.
    return max(dram_bytes - metadata, reserve_bytes)


class TieringTraffic:
    """Traffic model for reactive kernel page migration."""

    def __init__(
        self,
        workload: Workload,
        effective_dram: int,
        *,
        reaction_s: float = 1.5,
        scan_overhead: float = 0.015,
    ):
        self.workload = workload
        self.effective_dram = effective_dram
        self.reaction_s = reaction_s
        self.scan_overhead = scan_overhead
        self._promoted_cache: Dict[Tuple[str, int], Set[str]] = {}

    @property
    def label(self) -> str:
        return "kernel-tiering"

    def _promoted_set(self, phase_key: Tuple[str, int],
                      live: Sequence[InstanceSpan], phase_name: str) -> Set[str]:
        """Hottest-first promotion under the effective DRAM budget."""
        cached = self._promoted_cache.get(phase_key)
        if cached is not None:
            return cached
        ranks = self.workload.ranks
        candidates = []
        for inst in live:
            stats = inst.spec.access.get(phase_name)
            if stats is None:
                continue
            rate = stats.load_rate + stats.store_rate
            if rate <= 0:
                continue
            density = rate / inst.spec.size
            candidates.append((density, inst.spec.site.name, inst.spec.size * ranks))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        promoted: Set[str] = set()
        budget = self.effective_dram
        for _density, name, nbytes in candidates:
            if name in promoted:
                continue
            if nbytes <= budget:
                promoted.add(name)
                budget -= nbytes
        self._promoted_cache[phase_key] = promoted
        return promoted

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

        # find the phase occurrence this segment belongs to, for warm-up
        phase_start = None
        phase_key = None
        for span in wl.spans:
            if span.start <= lo < span.end:
                phase_start = span.start
                phase_key = (span.name, span.iteration)
                break
        if phase_key is None:
            return traffic
        promoted = self._promoted_set(phase_key, live, phase_name)

        # fraction of this segment inside the reaction window
        warm_end = phase_start + self.reaction_s
        cold = max(0.0, min(hi, warm_end) - lo) / dt if dt > 0 else 0.0

        for inst in live:
            stats = inst.spec.access.get(phase_name)
            if stats is None:
                continue
            loads = stats.load_rate * dt * ranks * (1.0 + self.scan_overhead)
            stores = stats.store_rate * dt * ranks * (1.0 + self.scan_overhead)
            if loads == 0.0 and stores == 0.0:
                continue
            serial = loads * inst.spec.serial_fraction
            name = inst.spec.site.name
            if name in promoted:
                # cold share still in PMem, warm share promoted to DRAM
                traffic.subsystem("pmem").add(
                    loads=loads * cold, stores=stores * cold,
                    serial_loads=serial * cold,
                )
                traffic.subsystem("dram").add(
                    loads=loads * (1 - cold), stores=stores * (1 - cold),
                    serial_loads=serial * (1 - cold),
                )
                traffic.record_object(name, "dram", loads * (1 - cold), stores * (1 - cold))
                traffic.record_object(name, "pmem", loads * cold, stores * cold)
            else:
                traffic.subsystem("pmem").add(
                    loads=loads, stores=stores, serial_loads=serial
                )
                traffic.record_object(name, "pmem", loads, stores)

        # migration traffic: promoted bytes cross both devices once per
        # phase occurrence, charged to the segment(s) in the warm-up window
        if cold > 0.0:
            window = max(warm_end - phase_start, 1e-9)
            share = (max(0.0, min(hi, warm_end) - lo)) / window
            moved = sum(
                inst.spec.size * ranks
                for inst in live
                if inst.spec.site.name in promoted and inst.spec.access.get(phase_name)
            ) * share
            # a page migration reads PMem and writes DRAM: count as loads
            # on pmem and stores on dram at line granularity
            traffic.subsystem("pmem").add(loads=moved / 64.0)
            traffic.subsystem("dram").add(stores=moved / 128.0)
        return traffic

    def traffic_batch(
        self, plan: WorkloadPlan, subsystem_names: Sequence[str]
    ) -> TrafficBatch:
        """All segments' traffic at once, field-identical to the scalar path."""
        return self._columnar_batch(plan, subsystem_names)

    def _columnar_batch(
        self,
        plan: WorkloadPlan,
        subsystem_names: Sequence[str],
        static_dram: Optional[Set[str]] = None,
    ) -> TrafficBatch:
        """The scalar ``segment_traffic`` evaluated on columns of pairs.

        A segment's phase occurrence is its span (``span_idx``): spans tile
        the timeline, so that is the span the scalar lookup finds.  Each
        occurrence's promoted set comes from :meth:`_promoted_set` on the
        live set of its first segment (the call that fills the scalar
        cache); the warm-up share ``cold`` is per segment.  Every kept
        pair is then routed one of three ways: all to DRAM (a
        ``static_dram`` site, or promoted after warm-up — only when
        ``static_dram`` is given, as :class:`CombinedTraffic` does), split
        between PMem and DRAM (promoted), or all to PMem.  Migration
        traffic is added after the per-instance traffic, as the scalar
        path does.
        """
        wl = self.workload
        ranks = wl.ranks
        spans = wl.spans
        segments = plan.segments
        S = segments.num_segments
        rates = plan.rates
        pseg, pinst = segments.pair_seg, segments.pair_inst
        bounds = np.searchsorted(pseg, np.arange(S + 1))

        # each segment's warm-up share of its phase occurrence
        lo, hi = segments.seg_lo, segments.seg_hi
        dt = segments.durations_nominal
        sp = segments.span_idx
        phase_start = np.array([span.start for span in spans])[sp]
        warm_end = phase_start + self.reaction_s
        warm = np.where(warm_end < hi, warm_end, hi) - lo
        warm = np.where(warm > 0.0, warm, 0.0)
        cold = np.divide(warm, dt, out=np.zeros(S), where=dt > 0)

        site_idx = {name: i for i, name in enumerate(rates.site_names)}
        promoted = np.zeros((len(spans), len(rates.site_names)), dtype=bool)
        firsts = np.flatnonzero(np.r_[True, sp[1:] != sp[:-1]])
        for s in firsts.tolist():
            span = spans[sp[s]]
            live = [segments.instances[j]
                    for j in pinst[bounds[s]:bounds[s + 1]].tolist()]
            for name in self._promoted_set((span.name, span.iteration),
                                           live, span.name):
                promoted[sp[s], site_idx[name]] = True

        # The scalar rule keeps a pair with stats whose scaled traffic is
        # not all zero.  A scale in [1, inf) maps zero to zero and nothing
        # else to zero, so that is the plan's pack base (stats are implied
        # by nonzero traffic); any other scale re-keeps the pairs.
        scale = 1.0 + self.scan_overhead
        base = plan.pack_base
        if not 1.0 <= scale < np.inf:
            base = _build_placement_pack_base(
                wl, segments, rates,
                lambda has, lr, sr, pl, ps: has & ~((pl * scale == 0.0)
                                                    & (ps * scale == 0.0)))
        kseg, kinst = base.kseg, base.kinst
        ksite = rates.inst_site[kinst]
        loads = base.pl * scale
        stores = base.ps * scale
        serial = loads * rates.inst_sf[kinst]
        prom = promoted[sp[kseg], ksite]
        kcold = cold[kseg]
        if static_dram is None:
            to_dram = np.zeros(kseg.size, dtype=bool)
        else:
            static = np.array([name in static_dram
                               for name in rates.site_names], dtype=bool)
            to_dram = static[ksite] | (prom & (kcold == 0.0))
        split = prom & ~to_dram
        to_pmem = ~prom & ~to_dram
        del prom

        columns = (loads, stores, serial)
        pmem_adds = _route(to_pmem, split, kcold, columns)
        dram_adds = _route(to_dram, split, 1 - kcold, columns)
        del loads, stores, serial, kcold, columns
        check_traffic_adds(pmem_adds, dram_adds)

        # migration: promoted bytes cross both devices once per occurrence
        if static_dram is None:
            # every live promoted instance with stats, kept or not
            row, col = rates.at(pseg, pinst)
            moving = rates.has_tab[row, col]
            del row, col
            moving &= promoted[sp[pseg], rates.inst_site[pinst]]
            live_bytes = np.where(moving, rates.inst_size[pinst] * ranks, 0)
            del moving
            csum = np.r_[0, np.cumsum(live_bytes)]
            del live_bytes
            moved_bytes = csum[bounds[1:]] - csum[bounds[:-1]]
            del csum
            migrates = cold > 0.0
        else:
            moved_bytes = np.bincount(
                kseg[split], weights=rates.inst_size[kinst[split]] * ranks,
                minlength=S,
            )
            migrates = (cold > 0.0) & (moved_bytes > 0)
        window = warm_end - phase_start
        window = np.where(1e-9 > window, 1e-9, window)
        mseg = np.flatnonzero(migrates)
        moved = (moved_bytes * (warm / window))[mseg]
        zeros = np.zeros(mseg.size)

        def touches(mask: np.ndarray) -> np.ndarray:
            return np.bincount(kseg[mask], minlength=S) > 0

        # a segment's first bucket is its first contribution's first add
        kb = np.searchsorted(kseg, np.arange(S + 1))
        dram_first = kb[1:] > kb[:-1]
        dram_first[dram_first] = to_dram[kb[:-1][dram_first]]
        return two_tier_batch(
            plan, subsystem_names, base,
            dram=(np.r_[kseg, mseg], np.r_[dram_adds[0], zeros],
                  np.r_[dram_adds[1], moved / 128.0],
                  np.r_[dram_adds[2], zeros]),
            pmem=(np.r_[kseg, mseg], np.r_[pmem_adds[0], moved / 64.0],
                  np.r_[pmem_adds[1], zeros], np.r_[pmem_adds[2], zeros]),
            dram_present=migrates | touches(~to_pmem),
            pmem_present=migrates | touches(~to_dram),
            dram_first=dram_first,
            objects=partial(_object_columns, base, scale, cold, to_dram,
                            split),
        )


def _route(a: np.ndarray, b: np.ndarray, x: np.ndarray,
           columns: Tuple[np.ndarray, ...]) -> Tuple[np.ndarray, ...]:
    """Per-pair ``columns`` where ``a`` takes all of a column and ``b``
    takes ``x`` of it; zero elsewhere."""
    return tuple(np.where(a, v, np.where(b, v * x, 0.0)) for v in columns)


def _object_columns(base, scale: float, cold: np.ndarray,
                    to_dram: np.ndarray, split: np.ndarray):
    """The per-pair ``(recorded, loads, stores)`` of the ``dram`` and the
    ``pmem`` object rows: the routed contributions, recomputed from the
    routing masks and each segment's cold share."""
    loads = base.pl * scale
    stores = base.ps * scale
    kcold = cold[base.kseg]
    to_pmem = ~split & ~to_dram
    return ((~to_pmem,) + _route(to_dram, split, 1 - kcold, (loads, stores)),
            (~to_dram,) + _route(to_pmem, split, kcold, (loads, stores)))


def run_tiering(
    workload: Workload,
    system: MemorySystem,
    *,
    reaction_s: float = 1.5,
) -> RunResult:
    """Convenience: execute a workload under kernel tiering."""
    dram = system.get("dram").capacity
    pmem = system.get("pmem").capacity
    model = TieringTraffic(
        workload,
        tiering_effective_dram(dram, pmem),
        reaction_s=reaction_s,
    )
    engine = ExecutionEngine(workload, system)
    return engine.run(model, label="kernel-tiering")


class CombinedTraffic(TieringTraffic):
    """Proactive initial placement + reactive page migration.

    The paper's stated future work (Section III): start each phase from
    ecoHMEM's *static* placement instead of everything-in-PMem, and let
    the kernel's reactive migration adjust from there.  Two consequences:

    - objects the Advisor already put in DRAM skip the warm-up entirely
      (their pages are hot from the first access);
    - the migration budget only moves objects the Advisor missed, so the
      page-copy traffic shrinks.
    """

    def __init__(self, workload: Workload, effective_dram: int,
                 initial_placement: "Dict[str, str]",
                 *, reaction_s: float = 1.5, scan_overhead: float = 0.015):
        super().__init__(workload, effective_dram,
                         reaction_s=reaction_s, scan_overhead=scan_overhead)
        self.initial_placement = dict(initial_placement)

    @property
    def label(self) -> str:
        return "combined-proactive-reactive"

    def traffic_batch(
        self, plan: WorkloadPlan, subsystem_names: Sequence[str]
    ) -> TrafficBatch:
        """All segments' traffic at once, field-identical to the scalar
        path: the tiering pack with the statically placed DRAM sites."""
        static_dram = {name for name, sub in self.initial_placement.items()
                       if sub == "dram"}
        return self._columnar_batch(plan, subsystem_names, static_dram)

    def segment_traffic(self, lo, hi, phase_name, live):
        wl = self.workload
        ranks = wl.ranks
        dt = hi - lo
        traffic = SegmentTraffic()
        phase_start = None
        phase_key = None
        for span in wl.spans:
            if span.start <= lo < span.end:
                phase_start = span.start
                phase_key = (span.name, span.iteration)
                break
        if phase_key is None:
            return traffic
        promoted = self._promoted_set(phase_key, live, phase_name)
        warm_end = phase_start + self.reaction_s
        cold = max(0.0, min(hi, warm_end) - lo) / dt if dt > 0 else 0.0

        migrated_bytes = 0.0
        for inst in live:
            stats = inst.spec.access.get(phase_name)
            if stats is None:
                continue
            loads = stats.load_rate * dt * ranks * (1.0 + self.scan_overhead)
            stores = stats.store_rate * dt * ranks * (1.0 + self.scan_overhead)
            if loads == 0.0 and stores == 0.0:
                continue
            serial = loads * inst.spec.serial_fraction
            name = inst.spec.site.name
            statically_dram = self.initial_placement.get(name) == "dram"
            if statically_dram or (name in promoted and cold == 0.0):
                # proactively placed, or already promoted: pure DRAM
                traffic.subsystem("dram").add(loads=loads, stores=stores,
                                              serial_loads=serial)
                traffic.record_object(name, "dram", loads, stores)
            elif name in promoted:
                traffic.subsystem("pmem").add(
                    loads=loads * cold, stores=stores * cold,
                    serial_loads=serial * cold)
                traffic.subsystem("dram").add(
                    loads=loads * (1 - cold), stores=stores * (1 - cold),
                    serial_loads=serial * (1 - cold))
                traffic.record_object(name, "dram", loads * (1 - cold),
                                      stores * (1 - cold))
                traffic.record_object(name, "pmem", loads * cold, stores * cold)
                migrated_bytes += inst.spec.size * ranks
            else:
                traffic.subsystem("pmem").add(loads=loads, stores=stores,
                                              serial_loads=serial)
                traffic.record_object(name, "pmem", loads, stores)

        if cold > 0.0 and migrated_bytes > 0:
            window = max(warm_end - phase_start, 1e-9)
            share = (max(0.0, min(hi, warm_end) - lo)) / window
            moved = migrated_bytes * share
            traffic.subsystem("pmem").add(loads=moved / 64.0)
            traffic.subsystem("dram").add(stores=moved / 128.0)
        return traffic


def run_combined(
    workload: Workload,
    system: MemorySystem,
    initial_placement: "Dict[str, str]",
    *,
    reaction_s: float = 1.5,
) -> RunResult:
    """Execute under the combined proactive + reactive policy."""
    dram = system.get("dram").capacity
    pmem = system.get("pmem").capacity
    model = CombinedTraffic(
        workload,
        tiering_effective_dram(dram, pmem),
        initial_placement,
        reaction_s=reaction_s,
    )
    engine = ExecutionEngine(workload, system)
    return engine.run(model, label="combined-proactive-reactive")
