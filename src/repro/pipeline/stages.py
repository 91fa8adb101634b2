"""The pipeline stages: profile → placement → run.

The harness entry points and the placement server build their cells
from these functions: :func:`cell_config` is the one advisor-config rule,
:func:`placement_stage` the one density / bandwidth-aware placement
sequence, :func:`run_stage` the one production run.

Only the profile stage is cached.  It is the one expensive, reusable
step of the paper's workflow (profile once, place many times), so
:func:`profile_stage` looks a profile up memory → artifact → compute:
the in-memory :class:`~repro.profiling.cache.ProfileStore` LRU first,
then the profile artifact in an
:class:`~repro.pipeline.artifacts.ArtifactStore` (the pipeline's only
on-disk cache), and only then the tracer + analyzer.  A placement is
cheaper to recompute than to read back, and a run result embeds
timelines the codec cannot represent, so neither is stored.

A custom :class:`~repro.apps.sites.SiteRegistry` changes the address
spaces behind the site keys, so it bypasses both profile caches.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple

from repro.advisor import AdvisorConfig, HMemAdvisor, Placement
from repro.advisor.config import config_for_system
from repro.alloc import (
    BOMMatcher,
    FlexMalloc,
    HumanReadableMatcher,
    PlacementReport,
    build_heaps,
)
from repro.apps.sites import SiteRegistry
from repro.apps.workload import Workload
from repro.binary.callstack import StackFormat
from repro.errors import SimulationError
from repro.memsim.subsystem import MemorySystem
from repro.pipeline.artifacts import (
    ArtifactStore,
    artifact_key,
    resolve_artifact_store,
)
from repro.profiling.cache import (
    ProfileKey,
    ProfileStore,
    decode_profiles,
    encode_profiles,
    resolve_store,
)
from repro.profiling.paramedir import Paramedir, SiteProfile
from repro.profiling.pebs import PEBSConfig
from repro.profiling.tracer import ExtraeTracer, TracerConfig
from repro.runtime.engine import ExecutionEngine
from repro.runtime.replay import ReplayResult, replay_allocations
from repro.runtime.stats import RunResult
from repro.runtime.traffic import PlacementTraffic

Profiles = Dict[Tuple, SiteProfile]


# -- profiling ----------------------------------------------------------------


def profile_workload(
    workload: Workload,
    *,
    seed: int = 11,
    stack_format: StackFormat = StackFormat.BOM,
    pebs_hz: float = 100.0,
    profile_ranks: int = 1,
    rank_jitter: float = 0.0,
    registry: Optional[SiteRegistry] = None,
    profile_store: Optional[ProfileStore] = None,
) -> Profiles:
    """The profiling stage: Extrae + Paramedir per-site profiles, memoized.

    The result is a deterministic function of (workload content, seed,
    stack format, PEBS rate, profiled ranks, rank jitter), so it is
    cached in memory through a :class:`~repro.profiling.cache.ProfileStore`
    and shared by every pipeline run with the same configuration — one
    profiling run per configuration instead of one per sweep cell.  A
    custom ``registry`` changes the address spaces behind the site keys,
    so it bypasses the cache.  Cross-process reuse is
    :func:`profile_stage`'s artifact layer.

    Each rank is profiled with :meth:`ExtraeTracer.profile`, which
    equals ``Paramedir().analyze(tracer.run(...))`` field for field but
    never builds the trace (only profiles are ever cached).

    Determinism is per rank, not per profiling session: the tracer
    derives each run's generators from ``(seed, rank)``, so profiling
    rank ``r`` alone yields the same profile as profiling ranks ``0..r``
    (and the vectorized tracer/analyzer are bit-identical to their
    scalar oracles) — cached profiles stay valid however the ranks were
    produced.
    """

    def compute() -> Profiles:
        tracer = ExtraeTracer(
            workload,
            TracerConfig(stack_format=stack_format, seed=seed,
                         pebs=PEBSConfig(frequency_hz=pebs_hz, seed=seed * 7 + 1),
                         rank_jitter=rank_jitter),
            registry or workload.site_registry,
        )
        if profile_ranks > 1:
            # rank r of run_all_ranks(aslr_base_seed=b) is run(r, b + r)
            per_rank = [tracer.profile(rank=r, aslr_seed=1000 + seed + r)
                        for r in range(profile_ranks)]
            merged = Paramedir().merge(per_rank, mode="sum")
            # cross-rank sums describe profile_ranks processes; the advisor's
            # density ranking is scale-invariant, so no renormalization needed
            return {
                key: replace(prof,
                             load_misses=prof.load_misses / profile_ranks,
                             store_misses=prof.store_misses / profile_ranks)
                for key, prof in merged.items()}
        return tracer.profile(rank=0, aslr_seed=1000 + seed)

    if registry is not None:
        return compute()
    store = resolve_store(profile_store)
    if store is None:
        return compute()
    key = ProfileKey.for_workload(
        workload, seed=seed, stack_format=stack_format, pebs_hz=pebs_hz,
        profile_ranks=profile_ranks, rank_jitter=rank_jitter,
    )
    return store.get_or_compute(key, compute)


def profile_stage(
    workload: Workload,
    *,
    seed: int = 11,
    stack_format: StackFormat = StackFormat.BOM,
    pebs_hz: float = 100.0,
    profile_ranks: int = 1,
    rank_jitter: float = 0.0,
    registry: Optional[SiteRegistry] = None,
    profile_store: Optional[ProfileStore] = None,
    artifact_store: "ArtifactStore | str | None" = None,
) -> Tuple[Profiles, Optional[str], bool]:
    """:func:`profile_workload` with the profile artifact behind the memory LRU.

    Returns ``(profiles, key, cached)``.  ``key`` is the profile artifact
    key, ``None`` when the artifact layer is off or bypassed (custom
    registry); ``cached`` says whether the memory LRU or the artifact
    served the profile (it is ``False`` whenever ``key`` is ``None``).
    Lookup order: the memory LRU, then the profile artifact (a hit fills
    the LRU), then :func:`profile_workload`, whose result is published.
    A stored profile artifact decodes bit-identically to a fresh
    computation.
    """
    knobs = dict(seed=seed, stack_format=stack_format, pebs_hz=pebs_hz,
                 profile_ranks=profile_ranks, rank_jitter=rank_jitter)
    store = resolve_artifact_store(artifact_store)
    if store is None or registry is not None:
        profiles = profile_workload(workload, registry=registry,
                                    profile_store=profile_store, **knobs)
        return profiles, None, False

    pkey = ProfileKey.for_workload(workload, **knobs)
    key = artifact_key("profile", pkey)
    memory = resolve_store(profile_store)
    profiles = memory.get(pkey) if memory is not None else None
    if profiles is not None:
        # an in-process profile still owes the store its artifact
        if not store.contains(key):
            store.put(key, encode_profiles(profiles))
        return profiles, key, True
    profiles = decode_profiles(store.get(key))
    if profiles is not None:
        if memory is not None:
            memory.put(pkey, profiles)
        return profiles, key, True
    profiles = profile_workload(workload, profile_store=profile_store, **knobs)
    store.put(key, encode_profiles(profiles))
    return profiles, key, False


# -- placement ----------------------------------------------------------------


def cell_config(
    system: MemorySystem,
    dram_limit: int,
    *,
    ranks: int,
    use_stores: bool = True,
    config: Optional[AdvisorConfig] = None,
) -> AdvisorConfig:
    """The advisor config of one pipeline cell.

    ``config`` (by default the system's own config) with the DRAM limit
    folded in, and loads-only when ``use_stores`` is off — the paper's
    *Loads* vs *Loads+stores* profile metrics.
    """
    config = config or config_for_system(system, dram_limit, ranks=ranks)
    config = config.with_dram_limit(dram_limit)
    return config if use_stores else config.loads_only()


#: bandwidth observer: (advisor, density placement, objects) -> observations
ObserveFn = Callable[[HMemAdvisor, Placement, dict], dict]


def bandwidth_observer(
    workload: Workload,
    system: MemorySystem,
    registry: SiteRegistry,
    *,
    dram_limit: int,
    stack_format: StackFormat,
    seed: int,
) -> ObserveFn:
    """The Section VII observation step as an :data:`ObserveFn`.

    Runs the workload once under the density placement (overhead not
    charged — it is an offline profiling step), bridges the run's
    per-name bandwidth observations back to stable site keys through a
    probe process, and zero-fills sites that never went live.  Both the
    harness and the placement service build their bandwidth-aware
    pipelines from this one implementation.
    """

    def observe(advisor: HMemAdvisor, placement: Placement, objects: dict) -> dict:
        from repro.advisor.model import BandwidthObservation

        density_report = advisor.to_report(placement, stack_format)
        density_run, _ = run_stage(
            workload, system, registry, density_report,
            dram_limit=dram_limit, stack_format=stack_format,
            aslr_seed=2000 + seed, label="density-observation",
            charge_overhead=False,
        )
        # bridge site names <-> stable site keys
        probe = registry.make_process(rank=0, aslr_seed=3000 + seed)
        name_to_key = {
            obj.site.name: probe.site_key(obj.site, stack_format)
            for obj in workload.objects
        }
        by_name = density_run.observations()
        observations = {}
        for name, obs in by_name.items():
            key = name_to_key.get(name)
            if key is not None and key in objects:
                observations[key] = obs
        # sites that never went live in the observation run get zeros
        for key in objects:
            observations.setdefault(key, BandwidthObservation(0.0, 0.0, 0.0))
        return observations

    return observe


@dataclass
class PlacementOutcome:
    """Everything the placement stage produced."""

    placement: Placement
    #: the report after a dumps/loads round trip — exactly what
    #: FlexMalloc would read in the production run
    report: PlacementReport
    base_placement: Optional[Placement] = None
    categories: Optional[dict] = None
    swaps: Optional[list] = None


def placement_stage(
    profiles: Profiles,
    system: MemorySystem,
    config: AdvisorConfig,
    *,
    algorithm: str = "density",
    stack_format: StackFormat = StackFormat.BOM,
    observe: Optional[ObserveFn] = None,
) -> PlacementOutcome:
    """Profiles in, placement + FlexMalloc-ready report out.

    ``config`` is the cell's full advisor config (:func:`cell_config`:
    DRAM limit and loads-only policy included).  For ``bw-aware`` the
    ``observe`` callback supplies the Section VII bandwidth observations
    for the density base placement — the harness and the service both
    pass :func:`bandwidth_observer`'s density-observation run.
    """
    if algorithm not in ("density", "bw-aware"):
        raise SimulationError(f"unknown algorithm {algorithm!r}")

    advisor = HMemAdvisor(system, config)
    objects = advisor.objects_from_profiles(profiles)
    placement = advisor.advise_density(objects)

    base_placement = None
    categories = None
    swaps = None
    if algorithm == "bw-aware":
        if observe is None:
            raise SimulationError(
                "bw-aware placement needs an `observe` callback for the "
                "density-observation run"
            )
        base_placement = placement
        observations = observe(advisor, placement, objects)
        result = advisor.advise_bandwidth_aware(
            objects, observations, base=placement)
        placement = result.placement
        categories = result.categories
        swaps = result.swaps

    report = advisor.to_report(placement, stack_format)
    # serialize + parse round trip: run exactly what FlexMalloc would read
    report = PlacementReport.loads(report.dumps())
    return PlacementOutcome(
        placement=placement,
        report=report,
        base_placement=base_placement,
        categories=categories,
        swaps=swaps,
    )


# -- production run -----------------------------------------------------------


@dataclass
class PreparedRun:
    """A production execution matched and replayed, but not yet timed.

    Everything :meth:`~repro.runtime.engine.ExecutionEngine.run` needs,
    with the engine call left to the caller — so a group of prepared
    runs over the same (workload, system) can be timed in one fused
    :meth:`~repro.runtime.engine.ExecutionEngine.run_batch` pass (the
    what-if path the batched harness and experiment sweeps use).
    """

    model: PlacementTraffic
    replay: ReplayResult
    #: replayed site -> subsystem mapping, fallback-completed
    site_placement: Dict[str, str]
    #: interposer overhead to charge (0.0 when the run is an offline
    #: observation step)
    overhead_s: float


def prepare_production(
    workload: Workload,
    system: MemorySystem,
    registry: SiteRegistry,
    report: PlacementReport,
    *,
    dram_limit: int,
    stack_format: StackFormat,
    aslr_seed: int,
    charge_overhead: bool = True,
) -> PreparedRun:
    """Match + replay one production execution, stopping short of the engine.

    Exactly the pre-engine half of the run stage: matcher + heaps +
    FlexMalloc replay, the fallback-completed site placement, and the
    :class:`~repro.runtime.traffic.PlacementTraffic` model carrying the
    replay's per-instance placements.  Feeding the returned model through
    ``engine.run`` reproduces the run stage bit-identically; feeding K of
    them through ``engine.run_batch`` does too, in one fused pass.
    """
    process = registry.make_process(rank=0, aslr_seed=aslr_seed)
    if stack_format is StackFormat.BOM:
        matcher = BOMMatcher(report, process.space)
    else:
        matcher = HumanReadableMatcher(report, process.space)
    heaps = build_heaps(system, dram_limit=dram_limit)
    flex = FlexMalloc(heaps, matcher=matcher, fallback=report.fallback)
    replay = replay_allocations(workload, process, flex)

    # sites whose every instance fell back still need a default mapping
    site_placement = dict(replay.site_placement)
    for obj in workload.objects:
        site_placement.setdefault(obj.site.name, report.fallback)

    model = PlacementTraffic(
        workload, site_placement, instance_placement=replay.instance_placement
    )
    return PreparedRun(
        model=model,
        replay=replay,
        site_placement=site_placement,
        overhead_s=replay.overhead_s if charge_overhead else 0.0,
    )


def run_stage(
    workload: Workload,
    system: MemorySystem,
    registry: SiteRegistry,
    report: PlacementReport,
    *,
    dram_limit: int,
    stack_format: StackFormat,
    aslr_seed: int,
    label: str,
    charge_overhead: bool = True,
) -> Tuple[RunResult, PreparedRun]:
    """Match + replay + time one production execution.

    Returns the timed run and the :class:`PreparedRun` behind it (replay
    and fallback-completed site placement).
    """
    prepared = prepare_production(
        workload, system, registry, report,
        dram_limit=dram_limit, stack_format=stack_format,
        aslr_seed=aslr_seed, charge_overhead=charge_overhead,
    )
    engine = ExecutionEngine(workload, system)
    run = engine.run(
        prepared.model,
        label=label,
        interposer_overhead_s=prepared.overhead_s,
        interposer_stats=prepared.replay.flexmalloc.stats,
    )
    return run, prepared
