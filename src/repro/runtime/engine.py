"""The execution engine (see package docstring for the model).

The engine is deliberately analytic rather than cycle-accurate: the paper's
evaluation hinges on *where* off-chip traffic goes and *what latency it
sees there under load*, which the segment/fixed-point model captures, while
keeping full-application simulations fast enough for parameter sweeps.

Every entry point — :meth:`~ExecutionEngine.run`, ``run_batch``,
``predict_times``, ``run_delta``, ``run_incremental`` and
``predict_times_incremental`` — is a thin wrapper over three steps:

- ``_pack`` resolves plain ``{site: subsystem}`` mappings and packs each
  model into a ``TrafficBatch`` (every segment's per-subsystem traffic
  as (segments x subsystems) matrices; a native pack builds its
  per-object rows only when ``_assemble`` or a composed batch reads
  them);
- ``_solve`` fuses the batches' rows — all of them, or the suffix from
  a boundary segment on — and runs the damped fixed point over them at
  once, with a boolean active mask for per-row convergence, iterating one
  representative of each set of rows whose inputs are equal bit for bit;
- ``_settle`` keeps each lane's converged rows as a ``RunResult`` with
  its ``total_time`` set and its phases, objects and timeline deferred:
  ``_assemble`` builds them on first read, with scatter-adds that replay
  the scalar accumulation order exactly.  Most callers rank runs by
  total time alone and never pay for the detail.

An engine owns no workload-derived state of its own: the segmentation,
the app-direct pack base and the assembly's scatter targets depend on
neither the placement nor the system, so they live in the workload's
shared :class:`~repro.runtime.plan.WorkloadPlan`, which every engine over
equal workload content reads (:func:`~repro.runtime.plan.plan_for`).

:meth:`ExecutionEngine.run_scalar` keeps the original per-segment Python
loop as the reference oracle; the two are bit-identical (see
``tests/runtime/test_engine_vectorized.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.alloc.interposer import InterposerStats
from repro.apps.workload import InstanceSpan, PhaseSpan, Workload
from repro.memsim.bandwidth import BandwidthTimeline
from repro.memsim.subsystem import MemorySystem
from repro.runtime.delta import (
    DeltaState,
    PatchedPlacementTraffic,
    compose_batches,
)
from repro.runtime.plan import object_rows, plan_for, site_slots
from repro.runtime.stats import Detail, ObjectRunStats, PhaseResult, RunResult
from repro.runtime.traffic import (
    ROW_FIELDS,
    PlacementTraffic,
    SegmentTraffic,
    TrafficBatch,
    TrafficModel,
    pack_traffic_multi,
)

_NS = 1e-9


# The timing model's numerical constants (docs/MODEL.md).  The engine
# reads them at call time, so a test can monkeypatch one.

#: fixed-point iterations per row; a row still moving at the cap is
#: returned as it stands, with no signal
FIXED_POINT_ITERS = 24
#: weight of the new iterate in each damped fixed-point step
DAMPING = 0.5
#: convergence tolerance on segment duration (relative)
TOLERANCE = 1e-6
#: utilization at which the latency curve is clamped; beyond it the
#: throughput constraint (duration >= bytes/peak) governs, so letting
#: the curve approach its pole would double-count queueing
LATENCY_UTIL_CAP = 0.92
#: bins of a run's bandwidth timeline (resolution at least 1 us)
TIMELINE_BINS = 600


@dataclass
class _Segment:
    """A maximal nominal interval with a constant live set."""

    lo: float
    hi: float
    phase: PhaseSpan
    live: List[InstanceSpan]

    @property
    def nominal(self) -> float:
        return self.hi - self.lo


def _majority_subsystem(byte_totals: "Dict[str, float]") -> str:
    """The subsystem holding the byte majority, first touch breaking ties.

    ``byte_totals`` must iterate in first-touch order; strict ``>`` keeps
    the earliest-touched subsystem when totals tie (including all-zero
    traffic, where this reduces to the historical first-touch rule).
    """
    best = ""
    best_bytes = -1.0
    for sub, nbytes in byte_totals.items():
        if nbytes > best_bytes:
            best, best_bytes = sub, nbytes
    return best


_EMPTY_I = np.empty(0, dtype=np.int64)
_EMPTY_F = np.empty(0, dtype=float)

def _fuse(batches: Sequence[TrafficBatch], start: int = 0) -> TrafficBatch:
    """Stack rows ``start:`` of every batch into one fixed-point batch.

    Only the per-row matrices the fixed point reads are stacked; object
    rows are left empty (the fixed point never touches them).
    """
    return TrafficBatch(
        subsystems=list(batches[0].subsystems),
        **{field: np.concatenate([getattr(b, field)[start:] for b in batches])
           for field in ROW_FIELDS},
        site_names=[], obj_sub_names=[],
        obj_seg=_EMPTY_I, obj_site=_EMPTY_I, obj_sub=_EMPTY_I,
        obj_loads=_EMPTY_F, obj_stores=_EMPTY_F,
    )


#: odd 64-bit multiplier of the row hash (2**64 / golden ratio)
_HASH_MUL = np.uint64(0x9E3779B97F4A7C15)
_HASH_SHIFT = np.uint64(32)


def _row_hash(key: np.ndarray) -> np.ndarray:
    """A 64-bit mix of each row of the ``uint64`` matrix ``key``.

    Only a bucketing hint: :func:`_distinct_rows` checks every grouping
    it suggests bit for bit, so a collision costs speed, never a result.
    """
    h = np.zeros(key.shape[0], dtype=np.uint64)
    for col in key.T:
        h ^= col
        h *= _HASH_MUL
        h ^= h >> _HASH_SHIFT
    return h


def _distinct_rows(
    compute: np.ndarray, batch: TrafficBatch, order_cols: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``(rep, inverse)`` over the rows whose solve inputs are equal bit
    for bit, or None when every row must be solved.

    A row's key is its nominal duration, its loads, stores, serial-loads
    and extra-latency row, and its stall fold order ``order_cols``,
    compared as ``uint64`` bit patterns (so ``-0.0`` and ``+0.0``
    differ).  Rows are grouped by :func:`_row_hash` and the grouping is
    then checked exactly: ``key[rep[inverse]]`` must equal ``key``.  None
    means every row is distinct, or the hash put unequal rows together.
    """
    key = np.column_stack([
        a.view(np.uint64)
        for a in (compute, batch.loads, batch.stores, batch.serial_loads,
                  batch.extra_latency_ns, order_cols)
    ])
    # np.unique(return_index=True) would sort stably, at 4x the cost;
    # any member of a group serves as its representative
    h = _row_hash(key)
    order = np.argsort(h)
    first = np.empty(h.size, dtype=bool)
    first[:1] = True
    sorted_h = h[order]
    np.not_equal(sorted_h[1:], sorted_h[:-1], out=first[1:])
    rep = order[first]
    if rep.size == h.size:
        return None
    inverse = np.empty(h.size, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    if not np.array_equal(key[rep[inverse]], key):
        return None
    return rep, inverse


def _total_time(durations: np.ndarray, overhead: float) -> float:
    """A lane's total runtime: summed segment durations plus overhead."""
    return float(np.cumsum(durations)[-1]) + overhead


def _per_model(seq, default, K: int, caller: str, what: str) -> list:
    """One per-run argument per model (``default`` when ``seq`` is None)."""
    if seq is None:
        return [default] * K
    out = list(seq)
    if len(out) != K:
        raise SimulationError(f"{caller} got {len(out)} {what} for {K} models")
    return out


class ExecutionEngine:
    """Runs a workload under a traffic model on a memory system."""

    def __init__(self, workload: Workload, system: MemorySystem):
        self.workload = workload
        self.system = system
        #: the shared placement-independent state of ``workload``'s content
        self._plan = plan_for(workload)
        self._segment_arrays = self._plan.segments

    # -- segmentation -----------------------------------------------------------

    @cached_property
    def _segments(self) -> List[_Segment]:
        return self._build_segments()

    def _build_segments(self) -> List[_Segment]:
        wl = self.workload
        instances = wl.instances()
        cuts = {0.0, wl.nominal_duration}
        for span in wl.spans:
            cuts.add(span.start)
            cuts.add(span.end)
        for inst in instances:
            cuts.add(inst.start)
            cuts.add(inst.end)
        ordered = sorted(c for c in cuts if 0.0 <= c <= wl.nominal_duration)

        # map each segment to its phase span and live instances via sweeps
        segments: List[_Segment] = []
        spans = wl.spans
        span_i = 0
        starts = sorted(instances, key=lambda i: i.start)
        ends = sorted(instances, key=lambda i: i.end)
        live: Dict[Tuple[str, int], InstanceSpan] = {}
        si = ei = 0
        for lo, hi in zip(ordered, ordered[1:]):
            if hi <= lo:
                continue
            while si < len(starts) and starts[si].start <= lo:
                inst = starts[si]
                live[(inst.spec.site.name, inst.index)] = inst
                si += 1
            while ei < len(ends) and ends[ei].end <= lo:
                inst = ends[ei]
                live.pop((inst.spec.site.name, inst.index), None)
                ei += 1
            while span_i < len(spans) and spans[span_i].end <= lo:
                span_i += 1
            if span_i >= len(spans):
                raise SimulationError(f"segment [{lo}, {hi}) beyond last phase span")
            segments.append(
                _Segment(lo=lo, hi=hi, phase=spans[span_i], live=list(live.values()))
            )
        if not segments:
            raise SimulationError("workload produced no timeline segments")
        return segments

    # -- the timing fixed point -------------------------------------------------

    def _segment_time(
        self, seg: _Segment, traffic: SegmentTraffic
    ) -> Tuple[float, float, Dict[str, float]]:
        """(actual_duration, stall_time, latency per subsystem) for a segment."""
        wl = self.workload
        compute = seg.nominal
        if not traffic.by_subsystem:
            return compute, 0.0, {}

        duration = compute
        lat_by_sub: Dict[str, float] = {}
        for _ in range(FIXED_POINT_ITERS):
            stall = 0.0
            for name, t in traffic.by_subsystem.items():
                sub = self.system.get(name)
                bw = t.total_bytes / duration
                lat = sub.read_latency_ns(
                    bw, t.write_fraction, util_cap=LATENCY_UTIL_CAP
                )
                lat += t.extra_latency_ns
                lat_by_sub[name] = lat
                # store_stall_factor already encodes what write buffering
                # absorbs, so stores are NOT additionally divided by MLP —
                # PMem's backed-up store buffers stall the pipeline directly
                store_cost = sub.store_stall_factor * lat
                loads_rank = t.loads / wl.ranks
                serial_rank = t.serial_loads / wl.ranks
                stores_rank = t.stores / wl.ranks
                overlapped = (loads_rank - serial_rank) / wl.mlp + serial_rank
                stall += (overlapped * lat + stores_rank * store_cost) * _NS
            new_duration = compute + stall
            # bandwidth saturation: the segment cannot move bytes faster
            # than each device's peak
            for name, t in traffic.by_subsystem.items():
                sub = self.system.get(name)
                new_duration = max(
                    new_duration,
                    t.read_bytes / sub.peak_read_bw + t.write_bytes / sub.peak_write_bw,
                )
            if abs(new_duration - duration) <= TOLERANCE * duration:
                duration = new_duration
                break
            duration = DAMPING * new_duration + (1.0 - DAMPING) * duration
        stall_time = duration - compute
        return duration, stall_time, lat_by_sub

    def _fixed_point_batch(
        self, batch: TrafficBatch, compute: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Run the damped fixed point over all rows of ``batch`` at once.

        Returns (durations, frozen per-subsystem latencies).  ``compute``
        holds each row's nominal duration.

        Every operation of the iteration (:meth:`_iterate`) is per-row
        (elementwise, or a reduction along the subsystem axis), so a row's
        trajectory — its convergence iteration and frozen latency row —
        depends only on its own inputs: its nominal duration, its loads,
        stores, serial-loads and extra-latency row, and its stall fold
        order ``order_cols`` (the scalar dict's insertion order, from
        ``order_pos``; raw ``order_pos`` holds ``s*K + rank`` and so
        differs between equal rows).  Rows whose inputs are equal bit for
        bit therefore solve to bit-equal outputs, so only one
        representative of each is iterated and the outputs are scattered
        back through the inverse index (:func:`_distinct_rows`).  Repeated
        timesteps and candidates that agree on most sites make most fused
        rows copies (docs/PERFORMANCE.md §14).  If the row hash groups
        unequal rows, every row is iterated.  Either way the outputs are
        what each row would give alone: K placements' rows, or their
        suffix rows, solve exactly as they would in K separate calls.
        """
        order_cols = np.argsort(batch.order_pos, axis=1, kind="stable")
        distinct = _distinct_rows(compute, batch, order_cols)
        if distinct is None:
            return self._iterate(batch, compute, order_cols)
        rep, inverse = distinct
        reps = replace(batch, **{f: getattr(batch, f)[rep] for f in ROW_FIELDS})
        durations, lat_final = self._iterate(reps, compute[rep], order_cols[rep])
        return durations[inverse], lat_final[inverse]

    def _iterate(
        self, batch: TrafficBatch, compute: np.ndarray, order_cols: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The damped fixed point over every row of ``batch``.

        Per-row early convergence is a boolean ``active`` mask over one
        full-width loop: a converged row keeps its duration and its latency
        row frozen at the breaking iteration, exactly as the scalar loop
        leaves ``lat_by_sub``.  (Most row-iterations run on still-active
        rows, so gathering the active rows each iteration would mostly copy
        full arrays; see docs/PERFORMANCE.md §9.)  Within a row the stall
        terms are folded in the column order ``order_cols``; absent
        subsystems contribute an exact ``+0.0``, which cannot perturb the
        running sum.
        """
        wl = self.workload
        S, K = batch.loads.shape
        subs = [self.system.get(name) for name in batch.subsystems]
        ssf = np.array([sub.store_stall_factor for sub in subs])
        total_bytes = batch.total_bytes
        wf = batch.write_fraction
        extra = batch.extra_latency_ns

        loads_rank = batch.loads / wl.ranks
        serial_rank = batch.serial_loads / wl.ranks
        stores_rank = batch.stores / wl.ranks
        overlapped = (loads_rank - serial_rank) / wl.mlp + serial_rank
        rb, wb = batch.read_bytes, batch.write_bytes
        prb = np.array([sub.peak_read_bw for sub in subs])
        pwb = np.array([sub.peak_write_bw for sub in subs])
        # the saturation floor is iteration-invariant; absent subsystems
        # contribute 0.0 bytes and max() is exact, so no mask is needed
        floor = (rb / prb + wb / pwb).max(axis=1)

        duration = compute.copy()
        lat_final = np.zeros((S, K))
        active = np.ones(S, dtype=bool)
        for _ in range(FIXED_POINT_ITERS):
            if not active.any():
                break
            bw = total_bytes / duration[:, None]
            lat = np.empty_like(bw)
            for k, sub in enumerate(subs):
                lat[:, k] = sub.read_latency_ns_batch(
                    bw[:, k], wf[:, k], util_cap=LATENCY_UTIL_CAP
                )
            lat = lat + extra
            lat_final = np.where(active[:, None], lat, lat_final)
            contrib = (overlapped * lat + stores_rank * (ssf * lat)) * _NS
            ordered = np.take_along_axis(contrib, order_cols, axis=1)
            stall = np.zeros(S)
            for k in range(K):
                stall = stall + ordered[:, k]
            new = np.maximum(compute + stall, floor)
            converged = np.abs(new - duration) <= TOLERANCE * duration
            step = np.where(converged, new,
                            DAMPING * new + (1.0 - DAMPING) * duration)
            duration = np.where(active, step, duration)
            active &= ~converged
        return duration, lat_final

    # -- the three steps: pack, solve, assemble -----------------------------------

    def _pack(
        self, models: Sequence[TrafficModel]
    ) -> Tuple[List[TrafficModel], List[TrafficBatch]]:
        """Resolve plain ``{site: subsystem}`` mappings and pack every model.

        A mapping becomes a :class:`PlacementTraffic`; every model is then
        packed over the shared segmentation (``pack_traffic_multi``, in
        call order, so stateful models see a sequential call sequence).
        """
        resolved = [
            m if hasattr(m, "segment_traffic") or hasattr(m, "traffic_batch")
            else PlacementTraffic(self.workload, m)
            for m in models
        ]
        batches = pack_traffic_multi(
            resolved, self.workload, self._plan, self.system.names
        )
        return resolved, batches

    def _solve(
        self, batches: Sequence[TrafficBatch], start: int = 0
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One fused fixed point over rows ``start:`` of every batch,
        stacked in order (``start > 0`` is the delta engine's suffix)."""
        nominal = self._segment_arrays.durations_nominal[start:]
        return self._fixed_point_batch(
            _fuse(batches, start), np.tile(nominal, len(batches))
        )

    def _lanes(
        self, models: Sequence[TrafficModel], runs: Sequence[dict]
    ) -> List[DeltaState]:
        """Pack, solve and assemble K models; ``runs[k]`` is lane k's run
        arguments (label, interposer overhead, stats)."""
        resolved, batches = self._pack(models)
        durations, lat_final = self._solve(batches)
        S = self._segment_arrays.num_segments
        return [
            self._settle(model, batch, durations[k * S:(k + 1) * S],
                         lat_final[k * S:(k + 1) * S], **runs[k])
            for k, (model, batch) in enumerate(zip(resolved, batches))
        ]

    def _settle(
        self,
        model: TrafficModel,
        batch: TrafficBatch,
        durations: np.ndarray,
        lat_final: np.ndarray,
        **run,
    ) -> DeltaState:
        """Keep one solved lane as a patchable state whose result builds
        its detail (:meth:`_assemble`) on first read."""
        overhead = run["interposer_overhead_s"]
        total_time = _total_time(durations, overhead)
        result = RunResult.deferred(
            partial(self._assemble, model, batch, durations, lat_final,
                    total_time),
            workload_name=self.workload.name,
            config_label=run["label"] or model.label,
            total_time=total_time,
            interposer_overhead_s=overhead,
            interposer_stats=run["interposer_stats"],
        )
        return DeltaState(
            model=model, batch=batch,
            durations=durations, lat_final=lat_final,
            result=result, **run,
        )

    # -- public entry points ----------------------------------------------------------

    def run(
        self,
        model: TrafficModel,
        *,
        label: Optional[str] = None,
        interposer_overhead_s: float = 0.0,
        interposer_stats: Optional[InterposerStats] = None,
    ) -> RunResult:
        """Execute the workload under ``model`` and collect statistics.

        Vectorized over segments; bit-identical to :meth:`run_scalar`.
        """
        return self._lanes([model], [dict(
            label=label,
            interposer_overhead_s=interposer_overhead_s,
            interposer_stats=interposer_stats,
        )])[0].result

    def run_batch(
        self,
        models: Sequence[TrafficModel],
        *,
        labels: Optional[Sequence[Optional[str]]] = None,
        interposer_overheads_s: Optional[Sequence[float]] = None,
        interposer_stats: Optional[Sequence[Optional[InterposerStats]]] = None,
    ) -> List[RunResult]:
        """Evaluate K candidate placements in one fused fixed-point pass.

        Each element of ``models`` is a traffic model or a plain
        ``{site_name: subsystem}`` mapping (wrapped in
        :class:`PlacementTraffic`).  The K per-placement traffic splits
        are packed over one shared segmentation, stacked into a
        ``(K * segments, subsystems)`` tensor, and iterated through one
        masked damped fixed point; the lanes then unpack into K
        :class:`RunResult`\\ s **bit-identical** to K sequential
        :meth:`run` calls — every fixed-point operation is per-row, so
        fusing rows cannot change any row's trajectory, and the assembly
        replays the exact scalar accumulation orders per lane.

        The optional keyword sequences carry :meth:`run`'s per-run scalar
        arguments, one entry per model.
        """
        K = len(models)
        runs = [
            dict(label=lb, interposer_overhead_s=ov, interposer_stats=st)
            for lb, ov, st in zip(
                _per_model(labels, None, K, "run_batch", "labels"),
                _per_model(interposer_overheads_s, 0.0, K, "run_batch",
                           "overheads"),
                _per_model(interposer_stats, None, K, "run_batch",
                           "interposer stats"),
            )
        ]
        if K == 0:
            return []
        return [state.result for state in self._lanes(models, runs)]

    def predict_times(
        self,
        models: Sequence[TrafficModel],
        *,
        interposer_overheads_s: Optional[Sequence[float]] = None,
    ) -> List[float]:
        """Predicted total runtime for K candidates.

        The what-if query path: the same shared packing and fused fixed
        point as :meth:`run_batch`, each lane reduced to its total time
        (:func:`_total_time`, the expression a result's ``total_time``
        comes from), so every returned float is bit-equal to the
        ``total_time`` of the corresponding sequential :meth:`run`
        (asserted by the differential suite and ``tools/perf_bench.py``).
        Since results defer their detail, this is :meth:`run_batch`
        reduced to its totals; it saves only a ``RunResult`` per lane.
        """
        K = len(models)
        overheads = _per_model(interposer_overheads_s, 0.0, K,
                               "predict_times", "overheads")
        if K == 0:
            return []
        _, batches = self._pack(models)
        durations, _ = self._solve(batches)
        return [
            _total_time(d, ov)
            for d, ov in zip(durations.reshape(K, -1), overheads)
        ]

    # -- incremental re-advisory (the delta engine) --------------------------------

    def run_delta(
        self,
        model: TrafficModel,
        *,
        label: Optional[str] = None,
        interposer_overhead_s: float = 0.0,
        interposer_stats: Optional[InterposerStats] = None,
    ) -> DeltaState:
        """:meth:`run`, but return a :class:`DeltaState` for suffix patching.

        The returned state's ``result`` is the :meth:`run` result; every
        pack path emits canonical ``s*K + rank`` first-touch positions, so
        the cached rows compose with rows packed by any other path.
        """
        return self._lanes([model], [dict(
            label=label,
            interposer_overhead_s=interposer_overhead_s,
            interposer_stats=interposer_stats,
        )])[0]

    def _check_boundary(self, boundary_seg: int, caller: str) -> float:
        S = self._segment_arrays.num_segments
        if not 0 <= boundary_seg < S:
            raise SimulationError(
                f"{caller}: boundary segment {boundary_seg} outside [0, {S})"
            )
        return float(self._segment_arrays.seg_lo[boundary_seg])

    def _patch_suffixes(
        self,
        state: DeltaState,
        placements: Sequence[TrafficModel],
        boundary_seg: int,
    ) -> List[Tuple[TrafficBatch, np.ndarray, np.ndarray]]:
        """Solve K suffix re-placements of ``state`` in one fused pass.

        Each placement is packed over the shared grid and its rows
        ``>= boundary_seg`` are solved.  Returns, per placement, its pack
        and the patched full-length (durations, latencies): ``state``'s
        frozen prefix rows joined to the solved suffix.
        """
        _, suffixes = self._pack(placements)
        s0 = boundary_seg
        solved, lat_solved = self._solve(suffixes, start=s0)
        K = len(suffixes)
        return [
            (suf, np.concatenate([state.durations[:s0], d]),
             np.concatenate([state.lat_final[:s0], lat]))
            for suf, d, lat in zip(
                suffixes, np.split(solved, K), np.split(lat_solved, K))
        ]

    def run_incremental(
        self,
        state: DeltaState,
        placement_of: Dict[str, str],
        boundary_seg: int,
        *,
        label: Optional[str] = None,
    ) -> DeltaState:
        """Apply a placement change at a segment boundary, reusing the prefix.

        ``state`` is a converged :meth:`run_delta` /
        :meth:`run_incremental` output; ``placement_of`` takes effect at
        the start of segment ``boundary_seg``.  Rows ``< boundary_seg``
        are provably unaffected (segmentation, traffic rows, and
        convergence masks are all per-segment) and are reused verbatim;
        the suffix rows are re-solved through the same masked damped
        fixed point.  The assembled result — and the returned state — is
        **bit-identical** to a from-scratch :meth:`run` of the equivalent
        :class:`~repro.runtime.delta.PatchedPlacementTraffic` model
        (enforced by ``tests/runtime/test_online_incremental.py``).

        Scalar run parameters (interposer overhead, stats) carry over
        from ``state`` so totals stay comparable across a chain of
        patches.
        """
        switch_time = self._check_boundary(boundary_seg, "run_incremental")
        patched = PatchedPlacementTraffic(state.model, placement_of, switch_time)
        [(suffix, durations, lat_final)] = self._patch_suffixes(
            state, [patched.suffix], boundary_seg
        )
        return self._settle(
            patched, compose_batches(state.batch, suffix, boundary_seg),
            durations, lat_final,
            label=label if label is not None else state.label,
            interposer_overhead_s=state.interposer_overhead_s,
            interposer_stats=state.interposer_stats,
        )

    def predict_times_incremental(
        self,
        state: DeltaState,
        placements: Sequence[Dict[str, str]],
        boundary_seg: int,
    ) -> List[float]:
        """Total times of K candidate re-placements effective at a boundary.

        The online what-if path: all K candidates share ``state``'s
        frozen prefix rows, their suffix rows are stacked into **one**
        fused fixed-point tensor, and each lane reduces to
        :func:`_total_time` with ``state``'s interposer overhead — the
        exact total-time expression of :meth:`run_incremental` (and hence
        of a from-scratch :meth:`run` of the patched model).  No scalar
        packing, but :meth:`_patch_suffixes` still packs every candidate
        over all segments, so the pack scales with ``K * segments``; only
        the fixed point is suffix-only, and it iterates just the distinct
        rows among the ``K * suffix rows`` (:meth:`_fixed_point_batch`).
        It differs from K :meth:`run_incremental` calls by the fused
        suffix solve and by composing no batch and no state per
        candidate; neither builds a result's detail unless it is read.
        """
        self._check_boundary(boundary_seg, "predict_times_incremental")
        if not placements:
            return []
        return [
            _total_time(durations, state.interposer_overhead_s)
            for _, durations, _ in self._patch_suffixes(
                state, placements, boundary_seg)
        ]

    # -- result assembly -----------------------------------------------------------

    def _assemble(
        self,
        model: TrafficModel,
        batch: TrafficBatch,
        durations: np.ndarray,
        lat_final: np.ndarray,
        total_time: float,
    ) -> Detail:
        """Build one lane's (phases, objects, timeline) from its converged
        durations/latencies: the detail of a deferred :class:`RunResult`.

        All scatter-adds replay the scalar accumulation order exactly:
        ``np.bincount`` visits its input sequentially (``out[idx[i]] +=
        w[i]``), so per-bucket float accumulation sequences equal the
        scalar dicts' — the same determinism fact ``np.add.at`` rested on,
        an order of magnitude cheaper.
        """
        sa = self._segment_arrays
        asm = self._plan.assembly
        n_live = asm.n_live

        stalls = durations - sa.durations_nominal
        starts = np.concatenate(([0.0], np.cumsum(durations)[:-1]))

        pmem_bw_seg = np.zeros(sa.num_segments)
        if "pmem" in self.system.names and "pmem" in batch.subsystems:
            pc = batch.subsystems.index("pmem")
            mask = batch.present[:, pc]
            pmem_bw_seg[mask] = batch.total_bytes[mask, pc] / durations[mask]

        objects: Dict[str, ObjectRunStats] = {}
        for rep in asm.rep_of_slot:
            nm = rep.spec.site.name
            objects[nm] = ObjectRunStats(
                site_name=nm,
                subsystem="",
                size=rep.spec.size,
                alloc_count=rep.spec.alloc_count,
            )
        stats_list = list(objects.values())

        # -- live-pair accumulators (scatter-add in scalar pair order) -----------
        pair_dur = durations[sa.pair_seg]
        live_time = np.bincount(asm.pair_slot, weights=pair_dur,
                                minlength=n_live)
        exec_bw_w = np.bincount(asm.pair_slot,
                                weights=(pmem_bw_seg * durations)[sa.pair_seg],
                                minlength=n_live)
        exec_tw = live_time

        # alloc/dealloc events, grouped per slot in pair order
        ends = starts + durations
        a_segs = asm.a_seg[asm.a_order]
        d_segs = asm.d_seg[asm.d_order]
        a_bw = pmem_bw_seg[a_segs]
        a_t = starts[a_segs]
        d_t = ends[d_segs]
        alloc_bws: List[List[float]] = []
        for slot, st in enumerate(stats_list):
            lo, hi = asm.a_bounds[slot], asm.a_bounds[slot + 1]
            alloc_bws.append(a_bw[lo:hi].tolist())
            st.alloc_times = a_t[lo:hi].tolist()
            lo, hi = asm.d_bounds[slot], asm.d_bounds[slot + 1]
            st.dealloc_times = d_t[lo:hi].tolist()

        # -- per-object traffic accumulators -------------------------------------
        # A uniform app-direct pack's object rows are the plan's pack base
        # rows (the placement only picks obj_sub), so their slots and
        # placement-independent sums come with the plan.
        n_subn = max(len(batch.obj_sub_names), 1)
        n_cols = len(batch.subsystems)
        base = self._plan.pack_base
        oseg, osub = batch.obj_seg, batch.obj_sub
        oloads, ostores = batch.obj_loads, batch.obj_stores
        if (oseg is base.obj_seg_ord and batch.obj_site is base.obj_site_ord
                and oloads is base.obj_loads_ord
                and ostores is base.obj_stores_ord):
            rows = self._plan.object_rows
        else:
            oslot = site_slots(asm, batch.site_names)[batch.obj_site]
            ovalid = oslot >= 0
            if not ovalid.all():
                # some batch sites are unknown to the plan: filter them out
                oslot, oseg, osub, oloads, ostores = (
                    col[ovalid] for col in (oslot, oseg, osub, oloads, ostores))
            rows = object_rows(oslot, oloads, ostores, n_live)
        oslot, obj_bytes = rows.slot, rows.nbytes
        load_misses = rows.load_misses
        store_misses = rows.store_misses
        bytes_total = rows.bytes_total
        mkey = oslot * n_subn + osub

        # per-row load latency: when the object columns are exactly the
        # system's subsystem columns (every PlacementTraffic pack), the
        # column lookup is the identity and the (seg, col) gathers flatten
        # to one linear index over the contiguous (S, cols) matrices
        if list(batch.obj_sub_names) == list(batch.subsystems):
            lin = oseg * n_cols + osub
            olat = np.where(
                batch.present.ravel()[lin], lat_final.ravel()[lin], 0.0
            )
        else:
            colmap = {name: k for k, name in enumerate(batch.subsystems)}
            col_of_obj_sub = np.array(
                [colmap.get(nm, -1) for nm in batch.obj_sub_names],
                dtype=np.int64,
            )
            ocol = col_of_obj_sub[osub] if osub.size else osub
            ocol_safe = np.where(ocol >= 0, ocol, 0)
            olat = np.where(
                (ocol >= 0) & batch.present[oseg, ocol_safe],
                lat_final[oseg, ocol_safe],
                0.0,
            )

        lat_sum = np.bincount(oslot, weights=oloads * olat, minlength=n_live)
        lat_weight = load_misses  # same bincount, read-only below

        # Byte totals per (site, subsystem) in first-touch order, for the
        # byte-majority subsystem attribution.  The key domain is tiny
        # (n_live * n_subn), so dense bincount + a reverse-order scatter
        # (last write wins => first occurrence survives) replaces the
        # former np.unique over all object rows.
        nm_dense = n_live * n_subn
        mbytes = np.bincount(mkey, weights=obj_bytes, minlength=nm_dense)
        mfirst = np.full(nm_dense, -1, dtype=np.int64)
        if mkey.size:
            mfirst[mkey[::-1]] = np.arange(mkey.size)[::-1]
        mocc = np.flatnonzero(mfirst >= 0)
        mocc = mocc[np.argsort(mfirst[mocc], kind="stable")]
        sub_bytes: List[Dict[str, float]] = [{} for _ in range(n_live)]
        for b in mocc:
            slot = int(b // n_subn)
            sub = batch.obj_sub_names[int(b % n_subn)]
            sub_bytes[slot][sub] = float(mbytes[b])

        # -- finalize per-object statistics --------------------------------------
        for slot, st in enumerate(stats_list):
            st.load_misses = float(load_misses[slot])
            st.store_misses = float(store_misses[slot])
            st.bytes_total = float(bytes_total[slot])
            st.live_time = float(live_time[slot])
            if lat_weight[slot]:
                st.mean_load_latency_ns = float(lat_sum[slot] / lat_weight[slot])
            bws = alloc_bws[slot]
            st.pmem_bw_at_alloc = sum(bws) / len(bws) if bws else 0.0
            if exec_tw[slot]:
                st.pmem_bw_exec = float(exec_bw_w[slot] / exec_tw[slot])
            if sub_bytes[slot]:
                st.subsystem = _majority_subsystem(sub_bytes[slot])
            else:
                # never generated traffic; report where its placement sends it
                st.subsystem = getattr(model, "placement_of", {}).get(
                    st.site_name, ""
                )

        phases = self._phase_results_batch(batch, durations, stalls, lat_final, starts)
        timeline = self._timeline_batch(batch, durations, starts, total_time)
        return phases, objects, timeline

    # -- the scalar oracle ---------------------------------------------------------

    def run_scalar(
        self,
        model: TrafficModel,
        *,
        label: Optional[str] = None,
        interposer_overhead_s: float = 0.0,
        interposer_stats: Optional[InterposerStats] = None,
    ) -> RunResult:
        """Reference implementation of :meth:`run`: one Python loop per segment."""
        wl = self.workload
        has_pmem = "pmem" in self.system.names

        seg_results = []
        actual_t = 0.0
        objects: Dict[str, ObjectRunStats] = {}
        # per-site accumulators for latency and pmem-region stats
        lat_weight: Dict[str, float] = {}
        exec_bw_weight: Dict[str, float] = {}
        exec_time_weight: Dict[str, float] = {}
        alloc_pending: Dict[Tuple[str, int], float] = {}
        sub_bytes: Dict[str, Dict[str, float]] = {}

        # instances begin exactly at segment boundaries; track which
        # instances start at each segment's lo for alloc-time stats
        for seg in self._segments:
            traffic = model.segment_traffic(seg.lo, seg.hi, seg.phase.name, seg.live)
            duration, stall, lat_by_sub = self._segment_time(seg, traffic)
            pmem_bw = 0.0
            if has_pmem and "pmem" in traffic.by_subsystem:
                pmem_bw = traffic.by_subsystem["pmem"].total_bytes / duration
            seg_results.append((seg, traffic, actual_t, duration, stall, lat_by_sub,
                                pmem_bw))

            for inst in seg.live:
                name = inst.spec.site.name
                st = objects.get(name)
                if st is None:
                    st = ObjectRunStats(
                        site_name=name,
                        subsystem="",
                        size=inst.spec.size,
                        alloc_count=inst.spec.alloc_count,
                    )
                    objects[name] = st
                if inst.start == seg.lo:
                    key = (name, inst.index)
                    if key not in alloc_pending:
                        alloc_pending[key] = pmem_bw
                        st.alloc_times.append(actual_t)
                if inst.end == seg.hi:
                    st.dealloc_times.append(actual_t + duration)
                st.live_time += duration
                exec_bw_weight[name] = exec_bw_weight.get(name, 0.0) + pmem_bw * duration
                exec_time_weight[name] = exec_time_weight.get(name, 0.0) + duration

            for (site_name, subsystem), (loads, stores) in traffic.by_object.items():
                st = objects.get(site_name)
                if st is None:
                    continue
                st.load_misses += loads
                st.store_misses += stores
                nbytes = (loads + 2.0 * stores) * 64.0
                st.bytes_total += nbytes
                per_sub = sub_bytes.setdefault(site_name, {})
                per_sub[subsystem] = per_sub.get(subsystem, 0.0) + nbytes
                lat = lat_by_sub.get(subsystem, 0.0)
                st.mean_load_latency_ns += loads * lat
                lat_weight[site_name] = lat_weight.get(site_name, 0.0) + loads

            actual_t += duration

        # finalize per-object statistics
        alloc_bws: Dict[str, List[float]] = {}
        for (name, _idx), bw in alloc_pending.items():
            alloc_bws.setdefault(name, []).append(bw)
        for name, st in objects.items():
            if lat_weight.get(name):
                st.mean_load_latency_ns /= lat_weight[name]
            bws = alloc_bws.get(name, [])
            st.pmem_bw_at_alloc = sum(bws) / len(bws) if bws else 0.0
            if exec_time_weight.get(name):
                st.pmem_bw_exec = exec_bw_weight[name] / exec_time_weight[name]
            if sub_bytes.get(name):
                st.subsystem = _majority_subsystem(sub_bytes[name])
            else:
                # never generated traffic; report where its placement sends it
                st.subsystem = getattr(model, "placement_of", {}).get(name, "")

        total_time = actual_t + interposer_overhead_s
        # aggregate segments into per-phase-span results
        phases = self._phase_results(seg_results)
        timeline = self._timeline(seg_results, total_time)

        return RunResult(
            workload_name=wl.name,
            config_label=label or model.label,
            total_time=total_time,
            phases=phases,
            objects=objects,
            timeline=timeline,
            interposer_overhead_s=interposer_overhead_s,
            interposer_stats=interposer_stats,
        )

    # -- aggregation helpers --------------------------------------------------------

    def _phase_results_batch(
        self,
        batch: TrafficBatch,
        durations: np.ndarray,
        stalls: np.ndarray,
        lat_final: np.ndarray,
        starts: np.ndarray,
    ) -> List[PhaseResult]:
        wl = self.workload
        sa = self._segment_arrays
        S, K = batch.loads.shape
        asm = self._plan.assembly
        gseg = asm.gseg
        used_gids, gfirst = asm.used_gids, asm.gfirst
        G = asm.num_gids

        actual_dur = np.bincount(gseg, weights=durations, minlength=G)
        compute_t = np.bincount(gseg, weights=sa.durations_nominal,
                                minlength=G)
        stall_t = np.bincount(gseg, weights=stalls, minlength=G)

        pres_loads = np.where(batch.present, batch.loads, 0.0)
        pres_stores = np.where(batch.present, batch.stores, 0.0)
        pres_bytes = np.where(batch.present, batch.total_bytes, 0.0)
        pres_lat = np.where(batch.present, lat_final, 0.0) * durations[:, None]
        g_loads = np.empty((G, K))
        g_stores = np.empty((G, K))
        g_bytes = np.empty((G, K))
        g_lat = np.empty((G, K))
        for k in range(K):
            g_loads[:, k] = np.bincount(gseg, weights=pres_loads[:, k],
                                        minlength=G)
            g_stores[:, k] = np.bincount(gseg, weights=pres_stores[:, k],
                                         minlength=G)
            g_bytes[:, k] = np.bincount(gseg, weights=pres_bytes[:, k],
                                        minlength=G)
            g_lat[:, k] = np.bincount(gseg, weights=pres_lat[:, k],
                                      minlength=G)
        first_touch = np.full((G, K), np.inf)
        np.minimum.at(first_touch, gseg, batch.order_pos)

        results: List[PhaseResult] = []
        for gid, first_seg in zip(used_gids, gfirst):
            span = wl.spans[int(sa.span_idx[first_seg])]
            pr = PhaseResult(
                name=span.name,
                iteration=span.iteration,
                nominal_start=span.start,
                nominal_end=span.end,
                actual_start=float(starts[first_seg]),
                actual_duration=float(actual_dur[gid]),
                compute_time=float(compute_t[gid]),
                stall_time=float(stall_t[gid]),
            )
            denom = max(pr.actual_duration, 1e-12)
            for k in np.argsort(first_touch[gid], kind="stable"):
                if not np.isfinite(first_touch[gid, k]):
                    break
                name = batch.subsystems[k]
                pr.loads_by_subsystem[name] = float(g_loads[gid, k])
                pr.stores_by_subsystem[name] = float(g_stores[gid, k])
                pr.bytes_by_subsystem[name] = float(g_bytes[gid, k])
                pr.mean_latency_by_subsystem[name] = float(g_lat[gid, k] / denom)
            results.append(pr)
        return results

    def _timeline_batch(
        self,
        batch: TrafficBatch,
        durations: np.ndarray,
        starts: np.ndarray,
        total_time: float,
    ) -> BandwidthTimeline:
        resolution = max(total_time / TIMELINE_BINS, 1e-6)
        timeline = BandwidthTimeline(duration=total_time, resolution=resolution)
        ends = starts + durations
        # zero-length segments, and positive durations below the float
        # resolution at their start time, spread no traffic
        positive = (durations > 0.0) & (ends > starts)
        for k, name in enumerate(batch.subsystems):
            mask = batch.present[:, k] & (batch.total_bytes[:, k] > 0) & positive
            if mask.any():
                timeline.add_traffic_batch(
                    name, starts[mask], ends[mask], batch.total_bytes[mask, k]
                )
        return timeline

    def _phase_results(self, seg_results) -> List[PhaseResult]:
        phases: Dict[Tuple[str, int], PhaseResult] = {}
        order: List[Tuple[str, int]] = []
        for seg, traffic, start, duration, stall, lat_by_sub, _pf in seg_results:
            key = (seg.phase.name, seg.phase.iteration)
            pr = phases.get(key)
            if pr is None:
                pr = PhaseResult(
                    name=seg.phase.name,
                    iteration=seg.phase.iteration,
                    nominal_start=seg.phase.start,
                    nominal_end=seg.phase.end,
                    actual_start=start,
                    actual_duration=0.0,
                    compute_time=0.0,
                    stall_time=0.0,
                )
                phases[key] = pr
                order.append(key)
            pr.actual_duration += duration
            pr.compute_time += seg.nominal
            pr.stall_time += stall
            for name, t in traffic.by_subsystem.items():
                pr.loads_by_subsystem[name] = pr.loads_by_subsystem.get(name, 0.0) + t.loads
                pr.stores_by_subsystem[name] = (
                    pr.stores_by_subsystem.get(name, 0.0) + t.stores
                )
                pr.bytes_by_subsystem[name] = (
                    pr.bytes_by_subsystem.get(name, 0.0) + t.total_bytes
                )
                prev = pr.mean_latency_by_subsystem.get(name, 0.0)
                # duration-weighted mean latency within the phase
                pr.mean_latency_by_subsystem[name] = prev + lat_by_sub.get(name, 0.0) * duration
        for pr in phases.values():
            for name in list(pr.mean_latency_by_subsystem):
                pr.mean_latency_by_subsystem[name] /= max(pr.actual_duration, 1e-12)
        return [phases[k] for k in order]

    def _timeline(self, seg_results, total_time: float) -> BandwidthTimeline:
        resolution = max(total_time / TIMELINE_BINS, 1e-6)
        timeline = BandwidthTimeline(duration=total_time, resolution=resolution)
        for seg, traffic, start, duration, _stall, _lat, _pf in seg_results:
            if duration <= 0.0:  # zero-length segment: nothing to spread
                continue
            end = start + duration
            if end <= start:  # positive duration below float resolution at start
                continue
            for name, t in traffic.by_subsystem.items():
                if t.total_bytes > 0:
                    timeline.add_traffic(name, start, end, t.total_bytes)
        return timeline
