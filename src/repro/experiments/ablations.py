"""Ablation studies on the design choices DESIGN.md calls out.

Four sweeps, each isolating one knob of the methodology:

- :func:`sampling_frequency_sweep` — how much profile *quality* the 100 Hz
  PEBS rate buys: placements computed from 5/20/100/500 Hz profiles.
- :func:`store_coefficient_sweep` — Section V's store weighting on the
  store-sensitive CloverLeaf3D: 0 (loads-only) through aggressive.
- :func:`threshold_sweep` — Table IV's ``T_PMEMHIGH`` threshold on
  OpenFOAM's bandwidth-aware placement.
- :func:`input_sensitivity` — profile one input, run another (the
  sensitivity study the paper defers to future work): access rates and
  sizes scaled between the profiling and production runs.
- :func:`combined_policy_comparison` — the paper's proposed future
  combination of proactive placement with reactive kernel migration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.advisor.config import AdvisorConfig, config_for_system
from repro.apps import get_workload
from repro.apps.workload import AccessStats, ObjectSpec, Workload
from repro.baselines.memory_mode import run_memory_mode
from repro.baselines.tiering import run_combined, run_tiering
from repro.experiments.harness import EcoCell, run_ecohmem, run_ecohmem_batch
from repro.experiments.sweep import (
    ResultDB,
    SweepManifest,
    resolve_result_db,
    run_scheduled,
)
from repro.memsim.subsystem import pmem6_system
from repro.units import GiB

ManifestArg = Union[None, str, Path, SweepManifest]
ResultsArg = Union[None, str, Path, ResultDB]


@dataclass(frozen=True)
class AblationPoint:
    """One sweep point: the knob value and the resulting speedup."""

    knob: float
    speedup: float
    detail: str = ""


def _ablation_sweep(
    kind: str, task, specs, *, app: str, seed: int,
    jobs: Optional[int], manifest: ManifestArg, results: ResultsArg,
) -> List[AblationPoint]:
    """Dispatch one ablation grid through the sweep engine + ledger.

    A task may return a single point or a whole group of them (the
    what-if path batches a sweep's placements into one fused engine
    pass); either way the ledger records the flat point list.
    """
    raw = run_scheduled(task, specs, jobs=jobs,
                        experiment=f"ablation-{kind}", manifest=manifest)
    points = [p for r in raw for p in (r if isinstance(r, list) else [r])]
    db = resolve_result_db(results)
    if db is not None:
        db.append(f"ablation-{kind}", points, label=app, seed=seed)
    return points


def _sampling_group(spec) -> List[AblationPoint]:
    """All sampling-rate points in one fused engine pass.

    Each rate profiles separately, but the resulting placements run
    through one :func:`run_ecohmem_batch`.
    """
    app, frequencies, dram_limit, seed, baseline_time = spec
    cells = [EcoCell(dram_limit=dram_limit, pebs_hz=hz) for hz in frequencies]
    batch = run_ecohmem_batch(get_workload(app), pmem6_system(), cells,
                              seed=seed)
    return [
        AblationPoint(
            knob=hz, speedup=baseline_time / eco.run.total_time,
            detail=f"{len(eco.report)} DRAM rows",
        )
        for hz, eco in zip(frequencies, batch)
    ]


def sampling_frequency_sweep(
    app: str = "minife",
    frequencies: Sequence[float] = (5.0, 20.0, 100.0, 500.0),
    *, dram_limit: int = 12 * GiB, seed: int = 11,
    jobs: Optional[int] = None,
    manifest: ManifestArg = None, results: ResultsArg = None,
) -> List[AblationPoint]:
    """Placement quality vs PEBS sampling rate.

    Lower rates under-sample small/short-lived objects, degrading the
    advisor's ranking; beyond the paper's 100 Hz the returns flatten.
    """
    baseline = run_memory_mode(get_workload(app), pmem6_system())
    specs = [(app, tuple(frequencies), dram_limit, seed, baseline.total_time)]
    return _ablation_sweep("sampling", _sampling_group, specs, app=app,
                           seed=seed, jobs=jobs, manifest=manifest,
                           results=results)


def _store_coefficient_config(wl, coef: float, dram_limit: int) -> AdvisorConfig:
    return AdvisorConfig(
        coefficients={"dram": (1.0, 1.0), "pmem": (2.1, max(coef, 0.0))},
        dram_limit=dram_limit,
        ranks=wl.ranks,
    )


def _store_coefficient_group(spec) -> List[AblationPoint]:
    """All store-coefficient points in one fused engine pass."""
    app, coefficients, dram_limit, seed, baseline_time = spec
    wl = get_workload(app)
    cells = [
        EcoCell(dram_limit=dram_limit,
                config=_store_coefficient_config(wl, coef, dram_limit))
        for coef in coefficients
    ]
    batch = run_ecohmem_batch(wl, pmem6_system(), cells, seed=seed)
    return [
        AblationPoint(knob=coef, speedup=baseline_time / eco.run.total_time)
        for coef, eco in zip(coefficients, batch)
    ]


def store_coefficient_sweep(
    app: str = "cloverleaf3d",
    coefficients: Sequence[float] = (0.0, 1.0, 3.0, 6.0, 12.0),
    *, dram_limit: int = 12 * GiB, seed: int = 11,
    jobs: Optional[int] = None,
    manifest: ManifestArg = None, results: ResultsArg = None,
) -> List[AblationPoint]:
    """Section V's store coefficient on a store-sensitive application.

    0 reproduces the *Loads* configuration; 6 is the paper's default for
    PMem; far beyond it, store-heavy objects crowd out read-hot ones.
    """
    baseline = run_memory_mode(get_workload(app), pmem6_system())
    specs = [(app, tuple(coefficients), dram_limit, seed, baseline.total_time)]
    return _ablation_sweep("stores", _store_coefficient_group, specs, app=app,
                           seed=seed, jobs=jobs, manifest=manifest,
                           results=results)


def _threshold_config(system, wl, t_high: float, dram_limit: int) -> AdvisorConfig:
    config = config_for_system(system, dram_limit, ranks=wl.ranks)
    return dc_replace(config, t_pmem_high=t_high,
                      t_pmem_low=min(0.20, t_high / 2))


def _threshold_group(spec) -> List[AblationPoint]:
    """All T_PMEMHIGH points in one fused engine pass.

    Each threshold still runs its own bandwidth-aware refinement (the
    observation run is part of the placement, not the production run);
    the K refined placements then share one fused production pass.
    """
    app, thresholds, dram_limit, seed, baseline_time = spec
    system = pmem6_system()
    wl = get_workload(app)
    cells = [
        EcoCell(dram_limit=dram_limit, algorithm="bw-aware",
                config=_threshold_config(system, wl, t_high, dram_limit))
        for t_high in thresholds
    ]
    batch = run_ecohmem_batch(wl, system, cells, seed=seed)
    return [
        AblationPoint(
            knob=t_high, speedup=baseline_time / eco.run.total_time,
            detail=f"{len(eco.swaps or [])} swaps",
        )
        for t_high, eco in zip(thresholds, batch)
    ]


def threshold_sweep(
    app: str = "openfoam",
    thresholds: Sequence[float] = (0.40, 0.70, 0.90, 0.97),
    *, dram_limit: int = 11 * GiB, seed: int = 11,
    jobs: Optional[int] = None,
    manifest: ManifestArg = None, results: ResultsArg = None,
) -> List[AblationPoint]:
    """Table IV's ``T_PMEMHIGH`` on the bandwidth-aware algorithm.

    Too low: everything PMem-resident counts as Thrashing and the swap
    queue outruns the Fitting pool.  Too high: real thrashers escape
    classification and stay in PMem.
    """
    baseline = run_memory_mode(get_workload(app), pmem6_system())
    specs = [(app, tuple(thresholds), dram_limit, seed, baseline.total_time)]
    return _ablation_sweep("thresholds", _threshold_group, specs, app=app,
                           seed=seed, jobs=jobs, manifest=manifest,
                           results=results)


def scale_workload(workload: Workload, *, rate_scale: float = 1.0,
                   size_scale: float = 1.0) -> Workload:
    """A same-sites variant of a workload with scaled rates/sizes.

    Models running a different input with the binary (and hence the call
    stacks) unchanged — what the placement report would face in practice.
    """
    objects = []
    for obj in workload.objects:
        access = {
            phase: AccessStats(
                load_rate=a.load_rate * rate_scale,
                store_rate=a.store_rate * rate_scale,
                l1d_store_rate=(None if a.l1d_store_rate is None
                                else a.l1d_store_rate * rate_scale),
                accessor=a.accessor,
            )
            for phase, a in obj.access.items()
        }
        objects.append(dc_replace(
            obj, size=max(int(obj.size * size_scale), 1), access=access,
        ))
    return workload.replace(objects=objects)


def _input_sensitivity_point(spec) -> AblationPoint:
    app, rate_scale, size_scale, dram_limit, seed = spec
    system = pmem6_system()
    scaled = scale_workload(get_workload(app), rate_scale=rate_scale,
                            size_scale=size_scale)
    baseline = run_memory_mode(
        scale_workload(get_workload(app), rate_scale=rate_scale,
                       size_scale=size_scale),
        system,
    )
    eco = run_ecohmem(get_workload(app), system, dram_limit=dram_limit,
                      production_workload=scaled, seed=seed)
    return AblationPoint(
        knob=rate_scale * 100 + size_scale,  # composite key for sorting
        speedup=eco.run.speedup_vs(baseline),
        detail=f"rate x{rate_scale}, size x{size_scale}, "
               f"{eco.replay.flexmalloc.stats.fallback_capacity} capacity "
               f"fallbacks",
    )


def input_sensitivity(
    app: str = "minife",
    scales: Sequence[Tuple[float, float]] = ((1.0, 1.0), (1.5, 1.0),
                                             (1.0, 1.3), (2.0, 1.5)),
    *, dram_limit: int = 12 * GiB, seed: int = 11,
    jobs: Optional[int] = None,
    manifest: ManifestArg = None, results: ResultsArg = None,
) -> List[AblationPoint]:
    """Profile the nominal input, run a scaled one (paper future work).

    Each point is (rate_scale, size_scale): the report computed from the
    nominal profile drives a production run whose objects are bigger or
    hotter.  Size growth can overflow the DRAM budget (FlexMalloc's
    capacity fallback takes over); rate growth shifts which objects
    matter.  The speedup is measured against memory mode *on the scaled
    input*.
    """
    specs = [(app, rate_scale, size_scale, dram_limit, seed)
             for rate_scale, size_scale in scales]
    return _ablation_sweep("input", _input_sensitivity_point, specs, app=app,
                           seed=seed, jobs=jobs, manifest=manifest,
                           results=results)


def combined_policy_comparison(
    app: str = "minife", *, dram_limit: int = 12 * GiB, seed: int = 11,
    results: ResultsArg = None,
) -> Dict[str, float]:
    """ecoHMEM alone vs kernel tiering alone vs the combined policy."""
    system = pmem6_system()
    baseline = run_memory_mode(get_workload(app), system)
    eco = run_ecohmem(get_workload(app), system, dram_limit=dram_limit,
                      seed=seed)
    tier = run_tiering(get_workload(app), system)
    combined = run_combined(get_workload(app), system, eco.site_placement)
    out = {
        "memory-mode": 1.0,
        "kernel-tiering": tier.speedup_vs(baseline),
        "ecohmem": eco.run.speedup_vs(baseline),
        "combined": combined.speedup_vs(baseline),
    }
    db = resolve_result_db(results)
    if db is not None:
        db.append("ablation-combined", out, label=app, seed=seed)
    return out
