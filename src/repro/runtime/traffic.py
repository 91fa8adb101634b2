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
from functools import partial
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import SimulationError
from repro.apps.workload import InstanceSpan, Workload
from repro.profiling.metrics import LINE_BYTES
from repro.runtime.deferred import Deferred
from repro.runtime.segments import SegmentArrays

if TYPE_CHECKING:  # pragma: no cover - the plan module imports this one
    from repro.runtime.plan import WorkloadPlan


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


#: a ``TrafficBatch``'s per-row (segments x subsystems) matrices
ROW_FIELDS = ("loads", "stores", "serial_loads", "extra_latency_ns",
              "present", "order_pos")

#: a ``TrafficBatch``'s object rows, in :meth:`TrafficBatch.deferred`'s
#: builder order
OBJECT_FIELDS = ("site_names", "obj_sub_names", "obj_seg", "obj_site",
                 "obj_sub", "obj_loads", "obj_stores")

ObjectFields = Tuple[List[str], List[str], np.ndarray, np.ndarray,
                     np.ndarray, np.ndarray, np.ndarray]


@dataclass
class TrafficBatch(Deferred):
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

    The fused fixed point reads only the row matrices.  The object rows
    serve the result assembly and :func:`~repro.runtime.delta.compose_batches`,
    and most packs are never assembled, so every native pack is made by
    :meth:`deferred`: its row matrices are set at once and its object rows
    (``site_names``, ``obj_sub_names`` and the ``obj_*`` arrays) are built
    on their first read, once, under a per-batch lock (:class:`Deferred`).
    A builder keeps only the inputs it needs; the values it builds are the
    eager pack's, computed by the same code, later.
    """

    _DEFERRED = OBJECT_FIELDS

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

    @classmethod
    def deferred(
        cls,
        build: Callable[[], ObjectFields],
        *,
        subsystems: List[str],
        loads: np.ndarray,
        stores: np.ndarray,
        serial_loads: np.ndarray,
        extra_latency_ns: np.ndarray,
        present: np.ndarray,
        order_pos: np.ndarray,
    ) -> "TrafficBatch":
        """A batch whose object rows (:data:`OBJECT_FIELDS`, in order)
        ``build()`` returns on first read; the row matrices are set now."""
        return cls._defer(
            build, subsystems=subsystems, loads=loads, stores=stores,
            serial_loads=serial_loads, extra_latency_ns=extra_latency_ns,
            present=present, order_pos=order_pos)

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
        self, plan: "WorkloadPlan", subsystem_names: Sequence[str]
    ) -> TrafficBatch:
        """All segments' traffic at once (bit-identical to the scalar path).

        Contributions are scatter-added in the exact (segment, live-order)
        sequence the scalar path uses, so every accumulated float sees the
        same sequence of additions.  Everything that does not depend on the
        placement — the kept (segment, instance) pairs and their load/store
        contributions — is the workload plan's :class:`_PlacementPackBase`,
        shared by every placement of every engine over the plan, which is
        what makes packing K candidate placements nearly free.  The object
        rows are built on first read (:func:`_placement_object_rows`), from
        the per-instance columns alone.
        """
        base = plan.pack_base
        K = len(subsystem_names)
        S = plan.segments.num_segments
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
        # first-touch position per (segment, column): kept pairs are in
        # scalar order, so "min kept index per bucket" == "index of the
        # first occurrence" == the value left standing after a
        # reverse-order scatter store (fancy assignment keeps the last
        # write); only the order of these positions matters below
        flat_op = np.full(S * K, np.inf)
        flat_op[flat[::-1]] = np.arange(float(flat.size))[::-1]
        del flat
        first = flat_op.reshape(S, K)
        present = np.isfinite(first)
        # the scalar pack's canonical position s*K + rank, where rank
        # counts the row's columns touched earlier (inf + 1 stays inf)
        order_pos = np.where(present, np.arange(0.0, S * K, K)[:, None], np.inf)
        for j in range(K):
            order_pos += first[:, j:j + 1] < first

        return TrafficBatch.deferred(
            partial(_placement_object_rows, base, inst_col,
                    list(subsystem_names), bool(self.instance_placement)),
            subsystems=list(subsystem_names),
            loads=loads, stores=stores, serial_loads=serial,
            extra_latency_ns=np.zeros((S, K)),
            present=present, order_pos=order_pos,
        )


def _placement_object_rows(
    base: "_PlacementPackBase",
    inst_col: np.ndarray,
    subsystem_names: List[str],
    overrides: bool,
) -> ObjectFields:
    """An app-direct pack's object rows, from each instance's column.

    Per-(segment, site, subsystem) sums in first-touch order.  The
    (segment, site) grouping is placement-independent and precomputed in
    the base; a placement only assigns each group a column.  A group
    whose pairs all land on its first pair's column (always, without
    per-instance ``overrides``) is one row whose sums are the base's, so
    without split groups the rows are the base's own arrays plus one
    small gather.  Overrides that split a group give it one row per
    column, first touch first, summed over its own pairs in pair order,
    and those rows are merged into the base rows by first touch.
    """
    K = len(subsystem_names)
    gcol = (inst_col[base.kinst[base.gfirst]] if base.gfirst.size
            else np.zeros(0, dtype=np.int64))
    obj_seg = base.obj_seg_ord
    obj_site = base.obj_site_ord
    obj_sub = gcol
    obj_loads = base.obj_loads_ord
    obj_stores = base.obj_stores_ord
    if overrides:
        kcol = inst_col[base.kinst]
        off = base.ginv[kcol != gcol[base.ginv]]
        if off.size:
            split = np.zeros(gcol.size, dtype=bool)
            split[off] = True
            members = np.flatnonzero(split[base.ginv])
            key, key_first, inv = np.unique(
                base.ginv[members] * K + kcol[members],
                return_index=True, return_inverse=True)
            lead = members[key_first]  # each new row's first pair
            by_pos = np.argsort(lead, kind="stable")
            kept = np.flatnonzero(~split)
            at = np.searchsorted(base.gfirst[kept], lead[by_pos])

            def merge(whole: np.ndarray, new: np.ndarray) -> np.ndarray:
                return np.insert(whole[kept], at, new[by_pos])

            obj_seg = merge(obj_seg, base.kseg[lead])
            obj_site = merge(obj_site, base.inst_site[base.kinst[lead]])
            obj_sub = merge(obj_sub, key % K)
            obj_loads = merge(obj_loads, np.bincount(
                inv, weights=base.pl[members], minlength=key.size))
            obj_stores = merge(obj_stores, np.bincount(
                inv, weights=base.ps[members], minlength=key.size))
    return (list(base.site_names), list(subsystem_names), obj_seg, obj_site,
            obj_sub, obj_loads, obj_stores)


@dataclass
class _PlacementPackBase:
    """The placement-independent half of :meth:`PlacementTraffic.traffic_batch`.

    Which (segment, instance) pairs contribute traffic, and how much, is
    fixed by the workload and the segmentation; a placement only routes
    those contributions to subsystem columns.  One base therefore serves
    every candidate placement of every engine over the same workload
    content: it is built once, as part of the workload's
    :class:`~repro.runtime.plan.WorkloadPlan`, and read-only after that.
    The Memory Mode and tiering packs read its kept pairs too, wherever
    their own keep rule provably selects the same pairs.

    Groups are the kept pairs' distinct (segment, site) keys, numbered in
    first-touch order (the order of their first member).
    """

    site_names: List[str]
    inst_site: np.ndarray             # (N,) instance -> site index
    slot_of_instance: Dict[Tuple[str, int], int]
    kseg: np.ndarray                  # kept pairs: segment index
    kinst: np.ndarray                 # kept pairs: instance index
    pl: np.ndarray                    # kept pairs: load contribution
    ps: np.ndarray                    # kept pairs: store contribution
    pser: np.ndarray                  # kept pairs: serialized loads
    #: pairs with stats and a nonzero rate (the Memory Mode keep rule);
    #: equal to the kept count unless a rate underflowed to zero traffic
    n_rated: int
    # (segment, site) grouping of the kept pairs — placement-independent
    ginv: np.ndarray                  # kept pairs -> group
    gfirst: np.ndarray                # group -> kept index of first member
    obj_seg_ord: np.ndarray           # group segment
    obj_site_ord: np.ndarray          # group site
    obj_loads_ord: np.ndarray         # group load sums
    obj_stores_ord: np.ndarray        # group store sums
    site_order: np.ndarray            # sites of kept pairs, first-touch order


@dataclass
class PairRates:
    """The access rates of a workload's (segment, live instance) pairs.

    The placement-independent input every columnar pack starts from.  A
    pair's rates depend only on its instance's spec and its segment's
    phase name, so they are kept as small (spec, phase-name) tables:
    ``has_tab`` says whether the spec has stats for the phase, and
    ``lr_tab``/``sr_tab`` hold its per-rank load/store rates (zero where
    it has none).  :meth:`at` gives the table cells of any pairs.
    """

    site_names: List[str]             # sites in workload instance order
    inst_site: np.ndarray             # (N,) instance -> site index
    inst_size: np.ndarray             # (N,) int64 bytes per rank
    inst_sf: np.ndarray               # (N,) serial fraction
    slot_of_instance: Dict[Tuple[str, int], int]
    inst_row: np.ndarray              # (N,) instance -> table row
    seg_col: np.ndarray               # (S,) segment -> table column
    has_tab: np.ndarray               # (rows, phase names) bool
    lr_tab: np.ndarray                # (rows, phase names) load rate
    sr_tab: np.ndarray                # (rows, phase names) store rate

    def at(self, seg: np.ndarray,
           inst: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The (row, column) table cells of pairs ``(seg[i], inst[i])``."""
        return self.inst_row[inst], self.seg_col[seg]


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

    return PairRates(
        site_names=site_names,
        inst_site=inst_site,
        inst_size=inst_size,
        inst_sf=inst_sf,
        slot_of_instance=slot_of_instance,
        inst_row=inst_row,
        seg_col=pname_of_span[segments.span_idx],
        has_tab=table(has_rows, bool),
        lr_tab=table(rate_load_rows),
        sr_tab=table(rate_store_rows),
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


#: a pack's keep rule over all pairs: ``(has, lr, sr, pl, ps) -> mask``,
#: where ``pl``/``ps`` are the pairs' load/store contributions
KeepRule = Callable[..., np.ndarray]


def _build_placement_pack_base(
    wl: Workload,
    segments: SegmentArrays,
    rates: PairRates,
    keep_rule: Optional[KeepRule] = None,
) -> _PlacementPackBase:
    """Kept pairs, their traffic and their (segment, site) groups.

    The app-direct rule keeps the pairs with nonzero traffic; a baseline
    pack whose own rule keeps other pairs passes it as ``keep_rule``.
    """
    pseg = segments.pair_seg
    pinst = segments.pair_inst
    row, col = rates.at(pseg, pinst)
    has = rates.has_tab[row, col]
    lr = rates.lr_tab[row, col]
    sr = rates.sr_tab[row, col]
    del row, col
    dt = segments.durations_nominal
    ranks = wl.ranks
    pl = lr * dt[pseg] * ranks
    ps = sr * dt[pseg] * ranks
    rated = has & ((lr != 0) | (sr != 0))
    if keep_rule is None:
        keep = (pl != 0.0) | (ps != 0.0)
    else:
        keep = keep_rule(has, lr, sr, pl, ps)
    del has, lr, sr  # free the per-pair columns before the grouping below
    n_rated = int(np.count_nonzero(rated))
    del rated
    kpos = np.flatnonzero(keep)
    del keep
    pl, ps = pl[kpos], ps[kpos]
    if pl.size and (pl.min() < 0 or ps.min() < 0):
        raise SimulationError("negative traffic contribution")
    kinst = pinst[kpos]
    kseg = pseg[kpos]
    del kpos
    ksite = rates.inst_site[kinst]
    nsites = max(len(rates.site_names), 1)
    buniq, bfirst, binv = np.unique(kseg * nsites + ksite,
                                    return_index=True, return_inverse=True)
    # renumber the groups in first-touch order
    gorder = np.argsort(bfirst, kind="stable")
    rank_of = np.empty_like(gorder)
    rank_of[gorder] = np.arange(gorder.size)
    ginv = rank_of[binv]
    del buniq, binv, rank_of
    gfirst = bfirst[gorder]
    G = gfirst.size
    used_sites, site_first = np.unique(ksite, return_index=True)
    return _PlacementPackBase(
        site_names=rates.site_names,
        inst_site=rates.inst_site,
        slot_of_instance=rates.slot_of_instance,
        kseg=kseg,
        kinst=kinst,
        pl=pl,
        ps=ps,
        pser=pl * rates.inst_sf[kinst],
        n_rated=n_rated,
        ginv=ginv,
        gfirst=gfirst,
        obj_seg_ord=kseg[gfirst],
        obj_site_ord=ksite[gfirst],
        obj_loads_ord=np.bincount(ginv, weights=pl, minlength=G),
        obj_stores_ord=np.bincount(ginv, weights=ps, minlength=G),
        site_order=used_sites[np.argsort(site_first, kind="stable")],
    )


def pack_traffic_multi(
    models: Sequence["TrafficModel"],
    workload: Workload,
    plan: "WorkloadPlan",
    subsystem_names: Sequence[str],
) -> List[TrafficBatch]:
    """Pack several models' traffic over one workload plan.

    Models are packed strictly in call order, so stateful models (the
    baselines' hit-ratio and promotion caches) accumulate exactly as a
    sequential loop would.  Models with a ``traffic_batch`` (app-direct,
    Memory Mode, tiering, combined) pack natively from the plan; the rest
    are replayed per segment through :func:`pack_traffic_batch`.
    ``PlacementTraffic`` models all read the plan's
    :class:`_PlacementPackBase`, so no placement re-walks the
    (segment, instance) pairs.
    """
    batches: List[TrafficBatch] = []
    for model in models:
        if hasattr(model, "traffic_batch"):
            batches.append(model.traffic_batch(plan, subsystem_names))
        else:
            batches.append(pack_traffic_batch(
                model, workload, plan.segments, subsystem_names))
    return batches
