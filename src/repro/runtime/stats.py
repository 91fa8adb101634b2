"""Run results: what one simulated execution produces.

Everything the experiments need downstream: total runtime, per-phase
breakdowns, an actual-time bandwidth timeline per subsystem, per-object
statistics (for figures 4/5 and the bandwidth-aware advisor's
observations), and VTune-style aggregates (memory-bound fraction, hit
ratios) for Table VI.

Most callers rank runs by ``total_time`` alone, so the engine's results
carry their detail (phases, objects, timeline) as a builder that runs on
first read (:meth:`RunResult.deferred`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.advisor.model import BandwidthObservation
from repro.alloc.interposer import InterposerStats
from repro.memsim.bandwidth import BandwidthTimeline
from repro.runtime.deferred import Deferred


@dataclass
class PhaseResult:
    """One phase span's outcome."""

    name: str
    iteration: int
    nominal_start: float
    nominal_end: float
    actual_start: float
    actual_duration: float
    compute_time: float
    stall_time: float
    loads_by_subsystem: Dict[str, float] = field(default_factory=dict)
    stores_by_subsystem: Dict[str, float] = field(default_factory=dict)
    bytes_by_subsystem: Dict[str, float] = field(default_factory=dict)
    mean_latency_by_subsystem: Dict[str, float] = field(default_factory=dict)

    @property
    def memory_bound_fraction(self) -> float:
        return self.stall_time / self.actual_duration if self.actual_duration else 0.0


@dataclass
class ObjectRunStats:
    """Per-site statistics of one run (node level, actual time)."""

    site_name: str
    subsystem: str
    size: int
    alloc_count: int
    load_misses: float = 0.0
    store_misses: float = 0.0
    bytes_total: float = 0.0
    live_time: float = 0.0               # total actual live seconds
    alloc_times: List[float] = field(default_factory=list)   # actual
    dealloc_times: List[float] = field(default_factory=list)
    pmem_bw_at_alloc: float = 0.0        # bytes/s, mean over instances
    pmem_bw_exec: float = 0.0            # bytes/s, time-weighted over lifetime
    mean_load_latency_ns: float = 0.0

    @property
    def mean_bandwidth(self) -> float:
        """Bytes/s this site's objects consume while alive."""
        return self.bytes_total / self.live_time if self.live_time > 0 else 0.0

    @property
    def mean_lifetime(self) -> float:
        return self.live_time / self.alloc_count if self.alloc_count else 0.0


Detail = Tuple[List[PhaseResult], Dict[str, ObjectRunStats], BandwidthTimeline]


@dataclass
class RunResult(Deferred):
    """The complete outcome of one simulated execution.

    A result made by :meth:`deferred` holds ``phases``, ``objects`` and
    ``timeline`` as a builder instead (:class:`Deferred`): the first read
    of any of them runs it once, under a per-result lock, and stores all
    three as plain attributes.  Pickling (and copying) builds the detail
    first and drops the builder, so a result crosses a process pool whole.
    """

    _DEFERRED = ("phases", "objects", "timeline")

    workload_name: str
    config_label: str
    total_time: float
    phases: List[PhaseResult]
    objects: Dict[str, ObjectRunStats]
    timeline: BandwidthTimeline
    interposer_overhead_s: float = 0.0
    dram_cache_hit_ratio: Optional[float] = None  # memory-mode runs only
    #: FlexMalloc accounting for the run (None when no interposer ran);
    #: ``interposer_stats.fallback_total`` counts every degraded match
    interposer_stats: Optional[InterposerStats] = None

    def __post_init__(self) -> None:
        if self.total_time <= 0:
            raise SimulationError(
                f"run {self.workload_name}/{self.config_label}: "
                f"non-positive total time {self.total_time}"
            )

    @classmethod
    def deferred(
        cls,
        build: Callable[[], Detail],
        *,
        workload_name: str,
        config_label: str,
        total_time: float,
        interposer_overhead_s: float = 0.0,
        interposer_stats: Optional[InterposerStats] = None,
    ) -> "RunResult":
        """A result whose ``(phases, objects, timeline)`` ``build()`` returns
        on first read; every other field is set now."""
        result = cls._defer(
            build,
            workload_name=workload_name,
            config_label=config_label,
            total_time=total_time,
            interposer_overhead_s=interposer_overhead_s,
            dram_cache_hit_ratio=None,
            interposer_stats=interposer_stats,
        )
        result.__post_init__()
        return result

    @property
    def memory_bound_fraction(self) -> float:
        """Stall share of the whole run (VTune's memory-bound slots proxy)."""
        stall = sum(p.stall_time for p in self.phases)
        return stall / self.total_time if self.total_time else 0.0

    def speedup_vs(self, baseline: "RunResult") -> float:
        """How much faster this run is than a baseline run."""
        if baseline.workload_name != self.workload_name:
            raise SimulationError(
                f"comparing different workloads: {self.workload_name} vs "
                f"{baseline.workload_name}"
            )
        return baseline.total_time / self.total_time

    def observed_pmem_peak(self) -> float:
        """Peak PMem bandwidth this run reached (the Table II reference).

        The paper's B_low/B_mid/B_high regions are fractions of the
        *application's* peak demand, not the device limit — LULESH's whole
        Figure 3 plays out around 1.3 GB/s on a 30 GB/s device.
        """
        return self.timeline.peak("pmem")

    def observations(
        self, reference_bw: Optional[float] = None
    ) -> Dict[str, BandwidthObservation]:
        """Per-site bandwidth observations for the bandwidth-aware advisor.

        ``reference_bw`` sets the normalization for the bandwidth-region
        fractions; it defaults to this run's observed PMem peak.
        """
        ref = reference_bw if reference_bw is not None else self.observed_pmem_peak()
        if ref <= 0:
            ref = 1.0  # no PMem traffic at all: every fraction is 0
        return {
            name: BandwidthObservation(
                own_bandwidth=st.mean_bandwidth,
                pmem_frac_at_alloc=st.pmem_bw_at_alloc / ref,
                pmem_frac_exec=st.pmem_bw_exec / ref,
            )
            for name, st in self.objects.items()
        }

    def phase_durations(self) -> Dict[str, float]:
        """Total actual seconds per phase name."""
        out: Dict[str, float] = {}
        for p in self.phases:
            out[p.name] = out.get(p.name, 0.0) + p.actual_duration
        return out

    def subsystem_bytes(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for p in self.phases:
            for name, b in p.bytes_by_subsystem.items():
                out[name] = out.get(name, 0.0) + b
        return out


def run_results_identical(a: "RunResult", b: "RunResult") -> List[str]:
    """Bitwise comparison of two run results; returns mismatch descriptions.

    Used by the differential suite and ``tools/perf_bench.py`` to assert
    that the vectorized engine reproduces the scalar oracle exactly: all
    floats are compared with ``==`` (no tolerance), and every dict is also
    compared on key *order* — the accumulation order is part of the
    contract — except the timeline's internal bins, whose key order is an
    implementation detail.  It reads ``phases``, ``objects`` and
    ``timeline`` of both results, so a deferred result's detail is built
    and compared, never skipped.
    """
    errors: List[str] = []

    def check(cond: bool, msg: str) -> None:
        if not cond:
            errors.append(msg)

    check(a.workload_name == b.workload_name,
          f"workload_name: {a.workload_name} != {b.workload_name}")
    check(a.config_label == b.config_label,
          f"config_label: {a.config_label} != {b.config_label}")
    check(a.total_time == b.total_time,
          f"total_time: {a.total_time!r} != {b.total_time!r}")
    check(a.interposer_overhead_s == b.interposer_overhead_s,
          "interposer_overhead_s differs")
    check(a.dram_cache_hit_ratio == b.dram_cache_hit_ratio,
          "dram_cache_hit_ratio differs")

    check(len(a.phases) == len(b.phases),
          f"phase count: {len(a.phases)} != {len(b.phases)}")
    for i, (pa, pb) in enumerate(zip(a.phases, b.phases)):
        for f in ("name", "iteration", "nominal_start", "nominal_end",
                  "actual_start", "actual_duration", "compute_time",
                  "stall_time"):
            va, vb = getattr(pa, f), getattr(pb, f)
            check(va == vb, f"phase[{i}].{f}: {va!r} != {vb!r}")
        for f in ("loads_by_subsystem", "stores_by_subsystem",
                  "bytes_by_subsystem", "mean_latency_by_subsystem"):
            da, db = getattr(pa, f), getattr(pb, f)
            check(list(da) == list(db), f"phase[{i}].{f} key order differs")
            for k in da:
                check(da.get(k) == db.get(k),
                      f"phase[{i}].{f}[{k}]: {da.get(k)!r} != {db.get(k)!r}")

    check(list(a.objects) == list(b.objects), "objects key order differs")
    for name in a.objects:
        if name not in b.objects:
            continue
        oa, ob = a.objects[name], b.objects[name]
        for f in ("site_name", "subsystem", "size", "alloc_count",
                  "load_misses", "store_misses", "bytes_total", "live_time",
                  "alloc_times", "dealloc_times", "pmem_bw_at_alloc",
                  "pmem_bw_exec", "mean_load_latency_ns"):
            va, vb = getattr(oa, f), getattr(ob, f)
            check(va == vb, f"object[{name}].{f}: {va!r} != {vb!r}")

    ta, tb = a.timeline, b.timeline
    check(ta.duration == tb.duration, "timeline.duration differs")
    check(ta.resolution == tb.resolution, "timeline.resolution differs")
    check(set(ta._bins) == set(tb._bins),
          f"timeline subsystems: {set(ta._bins)} != {set(tb._bins)}")
    for k in set(ta._bins) & set(tb._bins):
        if not np.array_equal(ta._bins[k], tb._bins[k]):
            bad = int(np.argmax(ta._bins[k] != tb._bins[k]))
            errors.append(
                f"timeline[{k}] bin {bad}: "
                f"{ta._bins[k][bad]!r} != {tb._bins[k][bad]!r}"
            )
    return errors
