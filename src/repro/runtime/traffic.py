"""Traffic models: who sends which misses to which subsystem.

A :class:`TrafficModel` answers, for one timeline segment with a known set
of live instances, how the segment's off-chip events map onto memory
subsystems.  :class:`PlacementTraffic` implements the app-direct case (an
object's traffic goes to the subsystem its site was placed in); the
baselines package provides memory-mode and tiering models with the same
interface, so the engine core is shared by every configuration the paper
compares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Protocol, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.apps.workload import InstanceSpan, Workload
from repro.profiling.metrics import LINE_BYTES
from repro.runtime.segments import SegmentArrays


@dataclass
class SubsystemTraffic:
    """Node-level traffic one segment sends to one subsystem.

    ``serial_loads`` is the subset of ``loads`` whose latency is serialized
    (no MLP overlap); it is included in ``loads``.
    """

    loads: float = 0.0          # LLC load misses (node total)
    stores: float = 0.0         # L1D store misses (node total)
    serial_loads: float = 0.0
    extra_latency_ns: float = 0.0  # per-load additive penalty (cache fill...)

    @property
    def read_bytes(self) -> float:
        return self.loads * LINE_BYTES

    @property
    def write_bytes(self) -> float:
        # a store miss raises an RFO read plus an eventual writeback
        return self.stores * LINE_BYTES * 2.0

    @property
    def total_bytes(self) -> float:
        return self.read_bytes + self.write_bytes

    @property
    def write_fraction(self) -> float:
        total = self.total_bytes
        return self.write_bytes / total if total > 0 else 0.0

    def add(self, loads: float = 0.0, stores: float = 0.0,
            serial_loads: float = 0.0) -> None:
        if loads < 0 or stores < 0 or serial_loads < 0:
            raise SimulationError("negative traffic contribution")
        if serial_loads > loads:
            raise SimulationError("serial_loads cannot exceed loads")
        self.loads += loads
        self.stores += stores
        self.serial_loads += serial_loads


@dataclass
class SegmentTraffic:
    """All subsystems' traffic for one segment, plus per-object splits."""

    by_subsystem: Dict[str, SubsystemTraffic] = field(default_factory=dict)
    #: (site_name, subsystem) -> (loads, stores), node level
    by_object: Dict[Tuple[str, str], Tuple[float, float]] = field(default_factory=dict)

    def subsystem(self, name: str) -> SubsystemTraffic:
        if name not in self.by_subsystem:
            self.by_subsystem[name] = SubsystemTraffic()
        return self.by_subsystem[name]

    def record_object(self, site_name: str, subsystem: str,
                      loads: float, stores: float) -> None:
        key = (site_name, subsystem)
        prev = self.by_object.get(key, (0.0, 0.0))
        self.by_object[key] = (prev[0] + loads, prev[1] + stores)


@dataclass
class TrafficBatch:
    """All segments' traffic as matrices (the batched ``SegmentTraffic``).

    Matrices are (num_segments, num_subsystems) with the column order of
    ``subsystems``.  ``present`` marks cells whose ``SubsystemTraffic``
    bucket exists in the scalar representation (a bucket can exist with
    zero traffic), and ``order_pos`` carries the canonical first-touch
    position ``s*K + rank`` (``rank`` = the bucket's insertion rank in
    segment ``s``'s dict) so the scalar dicts' insertion order — which
    fixes the floating-point accumulation order — can be reconstructed.
    Every pack path emits exactly these values, so rows from different
    packs compose (see :mod:`repro.runtime.delta`).

    ``obj_*`` arrays flatten the per-segment ``by_object`` dicts: one row
    per (segment, site, subsystem) key with the segment-summed loads and
    stores, ordered by segment and then by first touch within the segment
    (the scalar dict iteration order).
    """

    subsystems: List[str]
    loads: np.ndarray            # (S, K)
    stores: np.ndarray           # (S, K)
    serial_loads: np.ndarray     # (S, K)
    extra_latency_ns: np.ndarray  # (S, K)
    present: np.ndarray          # (S, K) bool
    order_pos: np.ndarray        # (S, K) float, +inf where absent
    site_names: List[str]
    obj_sub_names: List[str]
    obj_seg: np.ndarray          # (M,) int64
    obj_site: np.ndarray         # (M,) int64 -> site_names
    obj_sub: np.ndarray          # (M,) int64 -> obj_sub_names
    obj_loads: np.ndarray        # (M,)
    obj_stores: np.ndarray       # (M,)

    @property
    def read_bytes(self) -> np.ndarray:
        return self.loads * LINE_BYTES

    @property
    def write_bytes(self) -> np.ndarray:
        return self.stores * LINE_BYTES * 2.0

    @property
    def total_bytes(self) -> np.ndarray:
        return self.read_bytes + self.write_bytes

    @property
    def write_fraction(self) -> np.ndarray:
        total = self.total_bytes
        out = np.zeros_like(total)
        np.divide(self.write_bytes, total, out=out, where=total > 0)
        return out


def traffic_batches_identical(a: TrafficBatch, b: TrafficBatch) -> List[str]:
    """Field-by-field comparison of two packs; returns the fields that differ.

    Arrays must match in dtype and compare equal element for element (no
    tolerance); name lists must compare ``==``, order included.
    """
    errors: List[str] = []
    for name in ("subsystems", "site_names", "obj_sub_names"):
        if getattr(a, name) != getattr(b, name):
            errors.append(name)
    for name in ("loads", "stores", "serial_loads", "extra_latency_ns",
                 "present", "order_pos", "obj_seg", "obj_site", "obj_sub",
                 "obj_loads", "obj_stores"):
        x, y = getattr(a, name), getattr(b, name)
        if x.dtype != y.dtype or not np.array_equal(x, y):
            errors.append(name)
    return errors


def pack_traffic_batch(
    model: "TrafficModel",
    workload: Workload,
    segments: SegmentArrays,
    subsystem_names: Sequence[str],
) -> TrafficBatch:
    """Build a :class:`TrafficBatch` by replaying ``model.segment_traffic``.

    The generic adapter for models without a native batched path: it calls
    the scalar entry point once per segment *in segment order* (so models
    with per-segment side effects observe the scalar call sequence) and
    transcribes the dicts into arrays.  It is also the oracle every native
    ``traffic_batch`` must reproduce field for field.
    """
    spans = workload.spans
    K = len(subsystem_names)
    S = segments.num_segments
    colmap = {name: k for k, name in enumerate(subsystem_names)}
    loads = np.zeros((S, K))
    stores = np.zeros((S, K))
    serial = np.zeros((S, K))
    extra = np.zeros((S, K))
    present = np.zeros((S, K), dtype=bool)
    order_pos = np.full((S, K), np.inf)

    site_names: List[str] = []
    site_idx: Dict[str, int] = {}
    sub_names: List[str] = []
    sub_idx: Dict[str, int] = {}
    obj_seg: List[int] = []
    obj_site: List[int] = []
    obj_sub: List[int] = []
    obj_loads: List[float] = []
    obj_stores: List[float] = []

    bounds = np.searchsorted(segments.pair_seg, np.arange(S + 1))
    for s in range(S):
        live = [segments.instances[j]
                for j in segments.pair_inst[bounds[s]:bounds[s + 1]]]
        st = model.segment_traffic(
            float(segments.seg_lo[s]), float(segments.seg_hi[s]),
            spans[segments.span_idx[s]].name, live,
        )
        for j, (name, t) in enumerate(st.by_subsystem.items()):
            k = colmap[name]
            loads[s, k] = t.loads
            stores[s, k] = t.stores
            serial[s, k] = t.serial_loads
            extra[s, k] = t.extra_latency_ns
            present[s, k] = True
            order_pos[s, k] = s * K + j
        for (site, sub), (ld, sd) in st.by_object.items():
            if site not in site_idx:
                site_idx[site] = len(site_names)
                site_names.append(site)
            if sub not in sub_idx:
                sub_idx[sub] = len(sub_names)
                sub_names.append(sub)
            obj_seg.append(s)
            obj_site.append(site_idx[site])
            obj_sub.append(sub_idx[sub])
            obj_loads.append(ld)
            obj_stores.append(sd)

    return TrafficBatch(
        subsystems=list(subsystem_names),
        loads=loads, stores=stores, serial_loads=serial,
        extra_latency_ns=extra, present=present, order_pos=order_pos,
        site_names=site_names, obj_sub_names=sub_names,
        obj_seg=np.array(obj_seg, dtype=np.int64),
        obj_site=np.array(obj_site, dtype=np.int64),
        obj_sub=np.array(obj_sub, dtype=np.int64),
        obj_loads=np.array(obj_loads, dtype=float),
        obj_stores=np.array(obj_stores, dtype=float),
    )


class TrafficModel(Protocol):
    """Maps one segment's events onto memory subsystems."""

    def segment_traffic(
        self,
        lo: float,
        hi: float,
        phase_name: str,
        live: Sequence[InstanceSpan],
    ) -> SegmentTraffic: ...  # pragma: no cover - protocol

    @property
    def label(self) -> str: ...  # pragma: no cover - protocol


class PlacementTraffic:
    """App-direct traffic: objects send misses where their site lives.

    ``placement_of`` maps a site *name* to a subsystem name.
    ``instance_placement`` optionally overrides placement per concrete
    instance ``(site_name, index)`` — the experiment harness fills it from
    a FlexMalloc replay, so capacity-fallback decisions (a full DRAM heap
    bouncing an allocation to PMem mid-run) are honoured exactly.
    """

    def __init__(
        self,
        workload: Workload,
        placement_of: Mapping[str, str],
        instance_placement: "Mapping[Tuple[str, int], str] | None" = None,
    ):
        self.workload = workload
        self.placement_of = dict(placement_of)
        self.instance_placement = dict(instance_placement or {})
        missing = [
            obj.site.name for obj in workload.objects
            if obj.site.name not in self.placement_of
        ]
        if missing:
            raise SimulationError(
                f"placement missing for sites {missing[:3]}"
                + ("..." if len(missing) > 3 else "")
            )

    @property
    def label(self) -> str:
        return "app-direct"

    def segment_traffic(
        self,
        lo: float,
        hi: float,
        phase_name: str,
        live: Sequence[InstanceSpan],
    ) -> SegmentTraffic:
        ranks = self.workload.ranks
        dt = hi - lo
        traffic = SegmentTraffic()
        for inst in live:
            stats = inst.spec.access.get(phase_name)
            if stats is None:
                continue
            loads = stats.load_rate * dt * ranks
            stores = stats.store_rate * dt * ranks
            if loads == 0.0 and stores == 0.0:
                continue
            site_name = inst.spec.site.name
            subsystem = self.instance_placement.get(
                (site_name, inst.index), self.placement_of[site_name]
            )
            bucket = traffic.subsystem(subsystem)
            bucket.add(
                loads=loads,
                stores=stores,
                serial_loads=loads * inst.spec.serial_fraction,
            )
            traffic.record_object(inst.spec.site.name, subsystem, loads, stores)
        return traffic

    def traffic_batch(
        self, segments: SegmentArrays, subsystem_names: Sequence[str]
    ) -> TrafficBatch:
        """All segments' traffic at once (bit-identical to the scalar path).

        Contributions are scatter-added in the exact (segment, live-order)
        sequence the scalar path uses, so every accumulated float sees the
        same sequence of additions.  Everything that does not depend on the
        placement — the kept (segment, instance) pairs and their load/store
        contributions — is computed once per (workload, segmentation) and
        shared across placements (see :class:`_PlacementPackBase`), which
        is what makes packing K candidate placements nearly free.
        """
        base = _placement_pack_base(self.workload, segments)
        K = len(subsystem_names)
        S = segments.num_segments
        colmap = {name: k for k, name in enumerate(subsystem_names)}

        # the only placement-dependent input: each instance's target column
        site_default = np.array(
            [colmap[self.placement_of[nm]] for nm in base.site_names],
            dtype=np.int64,
        )
        inst_col = (site_default[base.inst_site] if base.inst_site.size
                    else np.zeros(0, dtype=np.int64))
        for okey, sub in self.instance_placement.items():
            n = base.slot_of_instance.get(okey)
            if n is not None:
                inst_col[n] = colmap[sub]
        kseg = base.kseg
        kcol = inst_col[base.kinst]

        flat = kseg * K + kcol
        loads = np.bincount(flat, weights=base.pl,
                            minlength=S * K).reshape(S, K)
        stores = np.bincount(flat, weights=base.ps,
                             minlength=S * K).reshape(S, K)
        serial = np.bincount(flat, weights=base.pser,
                             minlength=S * K).reshape(S, K)
        # first-touch position per (segment, column): kpos_f is strictly
        # increasing, so "min kpos per bucket" == "kpos of the first
        # occurrence" == the value left standing after a reverse-order
        # scatter store (fancy assignment keeps the last write).
        flat_op = np.full(S * K, np.inf)
        flat_op[flat[::-1]] = base.kpos_f[::-1]
        first = flat_op.reshape(S, K)
        present = np.isfinite(first)
        # the scalar pack's canonical position s*K + rank, where rank
        # counts the row's columns touched earlier (inf + 1 stays inf)
        order_pos = np.where(present, np.arange(0.0, S * K, K)[:, None], np.inf)
        for j in range(K):
            order_pos += first[:, j:j + 1] < first

        # Per-(segment, site, subsystem) sums in first-touch order.  The
        # (segment, site) grouping is placement-independent and precomputed
        # in the base; a placement only assigns each group a column.  When
        # every pair in a group lands on the same column (always true
        # without per-instance overrides), the grouped sums and their
        # first-touch order are exactly the base's, so the per-placement
        # work is two small gathers.  Overrides that split a group across
        # columns fall back to grouping by the combined key.
        gcol = (kcol[base.bfirst] if base.bfirst.size
                else np.zeros(0, dtype=np.int64))
        uniform = True
        if self.instance_placement:
            kcol_f = kcol.astype(float)
            gsum = np.bincount(base.binv, weights=kcol_f,
                               minlength=gcol.size)
            gsq = np.bincount(base.binv, weights=kcol_f * kcol_f,
                              minlength=gcol.size)
            gc = gcol.astype(float)
            # zero variance around the first member's column <=> uniform
            # (columns are small ints, so the float sums are exact)
            uniform = bool(np.all(gsum == base.gcount_f * gc)
                           and np.all(gsq == base.gcount_f * gc * gc))
        nsites = max(len(base.site_names), 1)
        if uniform:
            obj_seg = base.obj_seg_ord
            obj_site = base.obj_site_ord
            obj_sub = gcol[base.gorder]
            obj_loads = base.obj_loads_ord
            obj_stores = base.obj_stores_ord
        else:
            key = (kseg * nsites + base.ksite) * K + kcol
            uniq, first_pos, inv = np.unique(key, return_index=True,
                                             return_inverse=True)
            gl = np.bincount(inv, weights=base.pl, minlength=uniq.size)
            gs = np.bincount(inv, weights=base.ps, minlength=uniq.size)
            order = np.argsort(first_pos, kind="stable")
            uniq = uniq[order]
            obj_seg = (uniq // (nsites * K)).astype(np.int64)
            obj_site = ((uniq // K) % nsites).astype(np.int64)
            obj_sub = (uniq % K).astype(np.int64)
            obj_loads = gl[order]
            obj_stores = gs[order]
        return TrafficBatch(
            subsystems=list(subsystem_names),
            loads=loads, stores=stores, serial_loads=serial,
            extra_latency_ns=np.zeros((S, K)),
            present=present, order_pos=order_pos,
            site_names=list(base.site_names),
            obj_sub_names=list(subsystem_names),
            obj_seg=obj_seg,
            obj_site=obj_site,
            obj_sub=obj_sub,
            obj_loads=obj_loads,
            obj_stores=obj_stores,
        )


@dataclass
class _PlacementPackBase:
    """The placement-independent half of :meth:`PlacementTraffic.traffic_batch`.

    Which (segment, instance) pairs contribute traffic, and how much, is
    fixed by the workload and the segmentation; a placement only routes
    those contributions to subsystem columns.  One base therefore serves
    every candidate placement over the same segmentation — cached on the
    :class:`SegmentArrays` instance, keyed by workload identity (the
    workload reference is held alongside, so the id can never be reused
    while the cache entry is alive).
    """

    site_names: List[str]
    inst_site: np.ndarray             # (N,) instance -> site index
    slot_of_instance: Dict[Tuple[str, int], int]
    kseg: np.ndarray                  # kept pairs: segment index
    kinst: np.ndarray                 # kept pairs: instance index
    ksite: np.ndarray                 # kept pairs: site index
    kpos_f: np.ndarray                # kept pairs: global first-touch pos
    pl: np.ndarray                    # kept pairs: load contribution
    ps: np.ndarray                    # kept pairs: store contribution
    pser: np.ndarray                  # kept pairs: serialized loads
    # (segment, site) grouping of the kept pairs — placement-independent
    binv: np.ndarray                  # kept pairs -> group index
    bfirst: np.ndarray                # group -> kept index of first member
    gorder: np.ndarray                # groups in first-touch order
    gcount_f: np.ndarray              # group sizes (float, for exact sums)
    obj_seg_ord: np.ndarray           # group segment, first-touch order
    obj_site_ord: np.ndarray          # group site, first-touch order
    obj_loads_ord: np.ndarray         # group load sums, first-touch order
    obj_stores_ord: np.ndarray        # group store sums, first-touch order


def _placement_pack_base(
    workload: Workload, segments: SegmentArrays
) -> _PlacementPackBase:
    cached = getattr(segments, "_pack_base", None)
    if cached is not None and cached[0] is workload:
        return cached[1]
    base = _build_placement_pack_base(workload, segments)
    segments._pack_base = (workload, base)
    return base


@dataclass
class PairRates:
    """Every (segment, live instance) pair's access rates, in scalar order.

    The placement-independent input every columnar pack starts from: for
    each pair of :attr:`SegmentArrays.pair_seg`/``pair_inst``, whether the
    instance's spec has stats for the segment's phase, and its per-rank
    load/store rates (zero where it has none).
    """

    site_names: List[str]             # sites in workload instance order
    inst_site: np.ndarray             # (N,) instance -> site index
    inst_size: np.ndarray             # (N,) int64 bytes per rank
    inst_sf: np.ndarray               # (N,) serial fraction
    slot_of_instance: Dict[Tuple[str, int], int]
    has: np.ndarray                   # (P,) bool: stats exist
    lr: np.ndarray                    # (P,) load rate
    sr: np.ndarray                    # (P,) store rate


def pair_rates(wl: Workload, segments: SegmentArrays) -> PairRates:
    instances = segments.instances
    N = len(instances)

    site_names: List[str] = []
    site_idx: Dict[str, int] = {}
    # per-phase-name rate rows, shared across instances of one spec
    pname_idx: Dict[str, int] = {}
    pname_of_span = np.empty(len(wl.spans), dtype=np.int64)
    for i, span in enumerate(wl.spans):
        if span.name not in pname_idx:
            pname_idx[span.name] = len(pname_idx)
        pname_of_span[i] = pname_idx[span.name]
    U = len(pname_idx)

    spec_row: Dict[int, int] = {}
    rate_load_rows: List[np.ndarray] = []
    rate_store_rows: List[np.ndarray] = []
    has_rows: List[np.ndarray] = []
    inst_row = np.empty(N, dtype=np.int64)
    inst_site = np.empty(N, dtype=np.int64)
    inst_size = np.empty(N, dtype=np.int64)
    inst_sf = np.empty(N, dtype=float)
    slot_of_instance: Dict[Tuple[str, int], int] = {}
    for n, inst in enumerate(instances):
        spec = inst.spec
        row = spec_row.get(id(spec))
        if row is None:
            rl = np.zeros(U)
            rs = np.zeros(U)
            hs = np.zeros(U, dtype=bool)
            for pname, u in pname_idx.items():
                stats = spec.access.get(pname)
                if stats is not None:
                    rl[u] = stats.load_rate
                    rs[u] = stats.store_rate
                    hs[u] = True
            row = len(rate_load_rows)
            spec_row[id(spec)] = row
            rate_load_rows.append(rl)
            rate_store_rows.append(rs)
            has_rows.append(hs)
        inst_row[n] = row
        name = spec.site.name
        if name not in site_idx:
            site_idx[name] = len(site_names)
            site_names.append(name)
        inst_site[n] = site_idx[name]
        inst_size[n] = spec.size
        inst_sf[n] = spec.serial_fraction
        slot_of_instance[(name, inst.index)] = n

    def table(rows: List[np.ndarray], dtype=float) -> np.ndarray:
        return np.array(rows) if rows else np.zeros((0, U), dtype=dtype)

    prow = inst_row[segments.pair_inst]
    pcol = pname_of_span[segments.span_idx][segments.pair_seg]
    return PairRates(
        site_names=site_names,
        inst_site=inst_site,
        inst_size=inst_size,
        inst_sf=inst_sf,
        slot_of_instance=slot_of_instance,
        has=table(has_rows, bool)[prow, pcol],
        lr=table(rate_load_rows)[prow, pcol],
        sr=table(rate_store_rows)[prow, pcol],
    )


def check_traffic_adds(*adds: Tuple[np.ndarray, ...]) -> None:
    """Raise what the first failing :meth:`SubsystemTraffic.add` would.

    ``adds`` are ``(loads, stores, serial_loads)`` columns, one triple per
    ``add`` call a contribution makes, in call order; rows are the
    contributions in scalar order.  A row that skips an ``add`` holds
    zeros there, which always pass.
    """
    neg = [(ld < 0) | (st < 0) | (se < 0) for ld, st, se in adds]
    over = [se > ld for ld, _st, se in adds]
    bad = np.logical_or.reduce(neg + over)
    if not bad.any():
        return
    i = int(np.argmax(bad))
    for n, o in zip(neg, over):
        if n[i]:
            raise SimulationError("negative traffic contribution")
        if o[i]:
            raise SimulationError("serial_loads cannot exceed loads")


def _build_placement_pack_base(
    wl: Workload, segments: SegmentArrays
) -> _PlacementPackBase:
    rates = pair_rates(wl, segments)
    site_names = rates.site_names
    inst_site = rates.inst_site
    inst_sf = rates.inst_sf
    slot_of_instance = rates.slot_of_instance
    pseg = segments.pair_seg
    pinst = segments.pair_inst
    dt = segments.durations_nominal
    ranks = wl.ranks
    pl = rates.lr * dt[pseg] * ranks
    ps = rates.sr * dt[pseg] * ranks
    del rates  # free the per-pair rate columns before the grouping below
    keep = (pl != 0.0) | (ps != 0.0)
    kpos = np.flatnonzero(keep)
    pl, ps = pl[kpos], ps[kpos]
    if pl.size and (pl.min() < 0 or ps.min() < 0):
        raise SimulationError("negative traffic contribution")
    kinst = pinst[kpos]
    kseg = pseg[kpos]
    ksite = inst_site[kinst]
    nsites = max(len(site_names), 1)
    bkey = kseg * nsites + ksite
    buniq, bfirst, binv = np.unique(bkey, return_index=True,
                                    return_inverse=True)
    gorder = np.argsort(bfirst, kind="stable")
    gl = np.bincount(binv, weights=pl, minlength=buniq.size)
    gs = np.bincount(binv, weights=ps, minlength=buniq.size)
    return _PlacementPackBase(
        site_names=site_names,
        inst_site=inst_site,
        slot_of_instance=slot_of_instance,
        kseg=kseg,
        kinst=kinst,
        ksite=ksite,
        kpos_f=kpos.astype(float),
        pl=pl,
        ps=ps,
        pser=pl * inst_sf[kinst],
        binv=binv,
        bfirst=bfirst,
        gorder=gorder,
        gcount_f=np.bincount(binv, minlength=buniq.size).astype(float),
        obj_seg_ord=(buniq // nsites)[gorder].astype(np.int64),
        obj_site_ord=(buniq % nsites)[gorder].astype(np.int64),
        obj_loads_ord=gl[gorder],
        obj_stores_ord=gs[gorder],
    )


def pack_traffic_multi(
    models: Sequence["TrafficModel"],
    workload: Workload,
    segments: SegmentArrays,
    subsystem_names: Sequence[str],
) -> List[TrafficBatch]:
    """Pack several models' traffic over one shared segmentation.

    Models are packed strictly in call order, so stateful models (the
    baselines' hit-ratio and promotion caches) accumulate exactly as a
    sequential loop would.  Models with a ``traffic_batch`` (app-direct,
    Memory Mode, tiering, combined) pack natively; the rest are replayed
    per segment through :func:`pack_traffic_batch`.
    ``PlacementTraffic`` models share one :class:`_PlacementPackBase`
    through the cache on ``segments``, so K placements of the same
    workload re-walk the (segment, instance) pairs exactly once.
    """
    batches: List[TrafficBatch] = []
    for model in models:
        if hasattr(model, "traffic_batch"):
            batches.append(model.traffic_batch(segments, subsystem_names))
        else:
            batches.append(
                pack_traffic_batch(model, workload, segments, subsystem_names)
            )
    return batches
