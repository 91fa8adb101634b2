"""The fault corpus: traces x fault plans x seeds, with differential checks.

One corpus *cell* is a clean base trace corrupted by one
:class:`~repro.faults.plan.FaultPlan` under one seed.  The differential
oracle then holds the pipeline's paired implementations to an executable
contract over every cell:

- in **lenient** mode (a :class:`DegradationReport` supplied), the
  vectorized :meth:`Paramedir.analyze` and the scalar
  :meth:`Paramedir.analyze_scalar` must produce bit-identical profiles
  *and* identical degradation reports;
- in **strict** mode, both must either succeed bit-identically or raise
  the same error class.

``tools/fault_corpus.py`` materializes the corpus to disk and runs the
check from the command line; ``tests/faults/`` parametrizes over the same
cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.alloc.interposer import FlexMalloc
from repro.alloc.matching import BOMMatcher
from repro.alloc.memkind import build_heaps
from repro.alloc.report import PlacementEntry, PlacementReport
from repro.apps.workload import AccessStats, AllocationSite, ObjectSpec, Phase, Workload
from repro.binary.callstack import StackFormat
from repro.faults.degrade import DegradationReport
from repro.faults.plan import FaultPlan, inject
from repro.memsim.subsystem import MemorySystem, pmem6_system
from repro.profiling.paramedir import Paramedir, SiteProfile
from repro.profiling.pebs import PEBSConfig
from repro.profiling.trace import Trace
from repro.profiling.tracer import ExtraeTracer, TracerConfig
from repro.runtime.engine import ExecutionEngine
from repro.runtime.replay import (
    replay_allocations,
    replay_allocations_scalar,
    replay_results_identical,
)
from repro.runtime.stats import run_results_identical
from repro.runtime.traffic import PlacementTraffic
from repro.units import KiB

SiteKey = Tuple


def corpus_workload() -> Workload:
    """A small three-site workload: enough structure, millisecond runs.

    Repeated short-lived allocations (``w::temp``) give the corpus heap
    address reuse — the ingredient that turns dropped frees into
    overlapping allocations downstream.
    """
    hot = ObjectSpec(
        site=AllocationSite(name="w::hot", image="w.x",
                            stack=("w_hot_0", "w_hot_1")),
        size=256 * KiB,
        access={"compute": AccessStats(load_rate=2_000_000.0,
                                       store_rate=400_000.0,
                                       accessor="hot_kernel")},
    )
    cold = ObjectSpec(
        site=AllocationSite(name="w::cold", image="w.x",
                            stack=("w_cold_0", "w_cold_1")),
        size=1024 * KiB,
        access={"compute": AccessStats(load_rate=300_000.0,
                                       accessor="cold_kernel")},
    )
    temp = ObjectSpec(
        site=AllocationSite(name="w::temp", image="w.x",
                            stack=("w_temp_0", "w_temp_1", "w_temp_2")),
        size=64 * KiB,
        alloc_count=3,
        first_alloc=0.5,
        lifetime=0.4,
        period=1.0,
        access={"compute": AccessStats(load_rate=800_000.0,
                                       store_rate=600_000.0,
                                       accessor="temp_kernel")},
    )
    return Workload(
        name="fault-corpus",
        phases=[Phase("compute", compute_time=1.0, repeat=3)],
        objects=[hot, cold, temp],
        ranks=1,
        mlp=4.0,
        locality=0.8,
        conflict_pressure=0.3,
    )


def base_trace(seed: int = 0, workload: Optional[Workload] = None,
               *, check_tracer_oracle: bool = False) -> Trace:
    """One clean profiling trace of the corpus workload.

    With ``check_tracer_oracle``, the vectorized tracer is asserted
    bit-identical to its scalar oracle for this seed before the trace is
    handed out — so every fault cell provably starts from a trace both
    tracer implementations agree on.
    """
    wl = workload or corpus_workload()
    tracer = ExtraeTracer(
        wl,
        TracerConfig(seed=101 + seed,
                     pebs=PEBSConfig(frequency_hz=200.0, seed=77 + 13 * seed),
                     window=0.5),
    )
    trace = tracer.run(rank=0, aslr_seed=1000 + seed)
    if check_tracer_oracle:
        oracle = tracer.run_scalar(rank=0, aslr_seed=1000 + seed)
        if not trace.same_events(oracle):
            raise AssertionError(
                f"tracer differential failure at seed {seed}: vectorized "
                f"and scalar runs disagree on the clean base trace"
            )
    return trace


def default_plans(include_file_level: bool = False) -> List[FaultPlan]:
    """One plan per registered fault kind, paper-realistic parameters."""
    plans = [
        FaultPlan.make("clean"),
        FaultPlan.make("drop_allocs", frac=0.25),
        FaultPlan.make("drop_frees", frac=0.25),
        FaultPlan.make("duplicate_allocs", frac=0.25),
        FaultPlan.make("duplicate_frees", frac=0.25),
        FaultPlan.make("shuffle_timestamps"),
        FaultPlan.make("retarget_samples", frac=0.3),
        FaultPlan.make("strip_frames", frac=0.5),
        FaultPlan.make("inflate_sizes", frac=0.25),
    ]
    if include_file_level:
        plans += [
            FaultPlan.make("truncate_jsonl"),
            FaultPlan.make("truncate_npz"),
        ]
    return plans


@dataclass(frozen=True)
class CorpusCell:
    """One (plan, seed) corruption of a base trace."""

    plan: FaultPlan
    seed: int
    trace: Trace

    @property
    def label(self) -> str:
        return f"{self.plan.label}@seed{self.seed}"


def build_cells(
    seeds: Sequence[int] = (0, 1, 2),
    workload: Optional[Workload] = None,
    plans: Optional[Sequence[FaultPlan]] = None,
    *,
    check_tracer_oracle: bool = False,
) -> List[CorpusCell]:
    """All in-memory corpus cells for the given seeds (one base per seed)."""
    plans = [p for p in (plans or default_plans()) if not p.file_level]
    cells = []
    for seed in seeds:
        base = base_trace(seed, workload,
                          check_tracer_oracle=check_tracer_oracle)
        for plan in plans:
            cells.append(CorpusCell(plan=plan, seed=seed,
                                    trace=inject(base, plan, seed)))
    return cells


# -- the differential oracle ---------------------------------------------------


def profile_mismatches(
    a: Dict[SiteKey, SiteProfile],
    b: Dict[SiteKey, SiteProfile],
) -> List[str]:
    """Why two analyzer outputs differ ([] = bit-identical incl. order)."""
    problems = []
    if list(a.keys()) != list(b.keys()):
        problems.append(
            f"site sets/order differ: {len(a)} vs {len(b)} sites"
        )
        return problems
    for key in a:
        if a[key] != b[key]:
            problems.append(f"profile differs at site {key!r}")
    return problems


@dataclass
class DifferentialOutcome:
    """What the differential oracle saw for one corpus cell."""

    identical: bool
    mismatches: List[str] = field(default_factory=list)
    #: lenient-mode degradation (vectorized path's report)
    degradation: DegradationReport = field(default_factory=DegradationReport)
    #: "ok" or the raised error class name, per path, in strict mode
    strict_vectorized: str = "ok"
    strict_scalar: str = "ok"
    #: the fast-path replay, for checks inspecting interposer/heap state
    replay: Optional[object] = None


def _strict_outcome(analyze, trace) -> Tuple[str, Optional[dict]]:
    try:
        return "ok", analyze(trace)
    except Exception as exc:
        return type(exc).__name__, None


def differential_check(trace: Trace) -> DifferentialOutcome:
    """Run both analyzer implementations over one trace; compare everything.

    The contract: lenient mode must agree bit for bit (profiles *and*
    degradation counts), and strict mode must either succeed identically
    on both paths or fail with the same error class on both.
    """
    pm = Paramedir()
    deg_vec = DegradationReport()
    deg_sca = DegradationReport()
    prof_vec = pm.analyze(trace, degradation=deg_vec)
    prof_sca = pm.analyze_scalar(trace, degradation=deg_sca)

    mismatches = profile_mismatches(prof_vec, prof_sca)
    if deg_vec != deg_sca:
        mismatches.append(
            f"degradation reports differ: {deg_vec!r} vs {deg_sca!r}"
        )

    strict_vec, strict_vec_prof = _strict_outcome(pm.analyze, trace)
    strict_sca, strict_sca_prof = _strict_outcome(pm.analyze_scalar, trace)
    if strict_vec != strict_sca:
        mismatches.append(
            f"strict outcomes differ: vectorized {strict_vec}, "
            f"scalar {strict_sca}"
        )
    elif strict_vec == "ok":
        mismatches.extend(
            "strict-mode " + m
            for m in profile_mismatches(strict_vec_prof, strict_sca_prof)
        )

    return DifferentialOutcome(
        identical=not mismatches,
        mismatches=mismatches,
        degradation=deg_vec,
        strict_vectorized=strict_vec,
        strict_scalar=strict_sca,
    )


# -- the execution-engine differential -----------------------------------------


def engine_placement_from_profiles(
    profiles: Dict[SiteKey, SiteProfile],
    workload: Workload,
    *,
    seed: int = 0,
    fast: str = "dram",
    slow: str = "pmem",
) -> Tuple[Dict[str, str], Dict[Tuple[str, int], str]]:
    """Turn a (possibly degraded) profile into a concrete placement.

    Deliberately *not* the Advisor: the corpus wants the engine exercised
    on whatever a corrupted profile suggests, with no repair logic in
    between.  The hottest profiled site (by estimated load misses, ties by
    profile order) goes to ``fast``; everything else — including sites the
    corruption erased entirely — goes to ``slow``.  The first
    multi-instance site additionally gets one instance overridden to the
    opposite subsystem, so the ``instance_placement`` path is always on.

    ``seed`` must match the ``base_trace`` seed: the trace's site keys are
    ASLR-dependent, and the reverse map is rebuilt with the same layout.
    """
    process = workload.site_registry.make_process(rank=0, aslr_seed=1000 + seed)
    name_of_key = {
        process.site_key(obj.site, StackFormat.BOM): obj.site.name
        for obj in workload.objects
    }
    placement = {obj.site.name: slow for obj in workload.objects}
    order = {key: i for i, key in enumerate(profiles)}
    ranked = sorted(
        profiles, key=lambda k: (-profiles[k].load_misses, order[k])
    )
    for key in ranked[:1]:
        name = name_of_key.get(key)
        if name is not None:
            placement[name] = fast
    overrides: Dict[Tuple[str, int], str] = {}
    for obj in workload.objects:
        if obj.alloc_count > 1:
            current = placement[obj.site.name]
            overrides[(obj.site.name, 1)] = fast if current == slow else slow
            break
    return placement, overrides


def engine_differential_check(
    trace: Trace,
    *,
    seed: int = 0,
    workload: Optional[Workload] = None,
    system: Optional[MemorySystem] = None,
) -> DifferentialOutcome:
    """Hold the batched execution engine to its scalar oracle for one cell.

    The trace is analyzed leniently, a placement is derived straight from
    the degraded profile, and both :meth:`ExecutionEngine.run` and
    :meth:`ExecutionEngine.run_scalar` execute it.  The contract is the
    strongest one the engine offers: :func:`run_results_identical` — every
    float equal, every dict in the same order.
    """
    wl = workload or corpus_workload()
    sys_ = system or pmem6_system()
    pm = Paramedir()
    degradation = DegradationReport()
    profiles = pm.analyze(trace, degradation=degradation)
    placement, overrides = engine_placement_from_profiles(
        profiles, wl, seed=seed
    )
    engine = ExecutionEngine(wl, sys_)
    vec = engine.run(PlacementTraffic(wl, placement, overrides))
    sca = engine.run_scalar(PlacementTraffic(wl, placement, overrides))
    mismatches = run_results_identical(vec, sca)
    return DifferentialOutcome(
        identical=not mismatches,
        mismatches=mismatches,
        degradation=degradation,
    )


# -- the allocation-replay differential ----------------------------------------


def replay_differential_check(
    trace: Trace,
    *,
    seed: int = 0,
    workload: Optional[Workload] = None,
    system: Optional[MemorySystem] = None,
    dram_limit: int = 256 * KiB,
) -> DifferentialOutcome:
    """Hold the batched allocation replay to its scalar oracle for one cell.

    The degraded profile drives a BOM placement report (written from the
    profiling process's layout, matched in a production process with a
    different ASLR seed), and the workload's allocation schedule is
    replayed through both :func:`replay_allocations` and
    :func:`replay_allocations_scalar` — fresh heaps and matchers per
    side, the fast side memoized, the oracle side not.

    The report lists the profile's hottest site *and* the multi-instance
    ``w::temp`` site for DRAM, leaving the rest unmatched, and the
    default ``dram_limit`` cannot hold both the hot object and a temp
    instance at once — so the capacity fallback, the unmatched fallback,
    and free-list reuse all fire on typical cells.  The contract is
    :func:`replay_results_identical`: every placement, stat and overhead
    float equal, every dict in the same order.
    """
    wl = workload or corpus_workload()
    sys_ = system or pmem6_system()
    pm = Paramedir()
    degradation = DegradationReport()
    profiles = pm.analyze(trace, degradation=degradation)
    placement, overrides = engine_placement_from_profiles(
        profiles, wl, seed=seed
    )
    dram_sites = {n for n, s in placement.items() if s != "pmem"}
    # the engine check flips one multi-instance site; the replay check
    # pins that same site to DRAM so address reuse happens under squeeze
    dram_sites.update(name for (name, _i) in overrides)

    profiling = wl.site_registry.make_process(rank=0, aslr_seed=1000 + seed)
    report = PlacementReport(StackFormat.BOM)
    for obj in wl.objects:
        # sites outside the report stay unmatched, keeping the fallback
        # path in play on every cell
        if obj.site.name in dram_sites:
            report.add(PlacementEntry(
                site=profiling.site_key(obj.site, StackFormat.BOM),
                subsystem="dram",
            ))

    registry = wl.site_registry

    def side(memoize: bool):
        production = registry.make_process(rank=0, aslr_seed=4000 + seed)
        heaps = build_heaps(sys_, dram_limit=dram_limit)
        matcher = BOMMatcher(report, production.space, memoize=memoize)
        return production, FlexMalloc(heaps, matcher, fallback=report.fallback)

    proc_f, flex_f = side(memoize=True)
    proc_s, flex_s = side(memoize=False)
    fast = replay_allocations(wl, proc_f, flex_f)
    scalar = replay_allocations_scalar(wl, proc_s, flex_s)
    mismatches = replay_results_identical(fast, scalar)
    return DifferentialOutcome(
        identical=not mismatches,
        mismatches=mismatches,
        degradation=degradation,
        replay=fast,
    )
