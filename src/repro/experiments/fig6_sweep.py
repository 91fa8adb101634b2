"""Figure 6: the miniapp speedup sweep.

Five miniapps x {Loads, Loads+stores} x DRAM limits {4, 8, 12 GB} x
{PMem-6, PMem-2}, all against the memory-mode baseline of the same memory
configuration — plus the kernel-tiering and best-of-four ProfDP rows.

Every cell is an independent deterministic pipeline run, so the sweep is
dispatched through the sweep engine
(:func:`repro.experiments.sweep.run_scheduled`): work-stealing worker
processes under ``jobs``/``REPRO_JOBS``, an optional JSONL manifest for
kill/restart resume, and results reassembled in cell order so every
dispatch mode is bit-identical to a serial loop over the cells.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.apps import get_workload
from repro.baselines.memory_mode import run_memory_mode
from repro.baselines.tiering import run_tiering
from repro.experiments.harness import (
    EcoCell,
    run_ecohmem_batch,
    run_profdp_best,
)
from repro.experiments.sweep import (
    ResultDB,
    SweepManifest,
    resolve_result_db,
    run_scheduled,
)
from repro.memsim.subsystem import MemorySystem, pmem2_system, pmem6_system
from repro.units import GiB

MINIAPPS = ["minife", "minimd", "lulesh", "hpcg", "cloverleaf3d"]
DRAM_LIMITS_GB = [4, 8, 12]
METRIC_CONFIGS = ["loads", "loads+stores"]


@dataclass
class Fig6Cell:
    """One bar of Figure 6."""

    app: str
    pmem_dimms: int
    dram_limit_gb: int
    metrics: str
    speedup: float


@dataclass
class Fig6Result:
    cells: List[Fig6Cell] = field(default_factory=list)
    tiering: Dict[str, float] = field(default_factory=dict)
    profdp: Dict[str, Optional[float]] = field(default_factory=dict)
    profdp_variant: Dict[str, Optional[str]] = field(default_factory=dict)

    def lookup(self, app: str, pmem: int, limit_gb: int, metrics: str) -> float:
        # scan the live cells, newest first, so any edit since the last
        # lookup is seen and the last duplicate wins, as in ``dict(cells)``
        key = (app, pmem, limit_gb, metrics)
        for c in reversed(self.cells):
            if (c.app, c.pmem_dimms, c.dram_limit_gb, c.metrics) == key:
                return c.speedup
        raise KeyError(key)


def _system_for(dimms: int) -> MemorySystem:
    return pmem6_system() if dimms == 6 else pmem2_system()


# -- picklable sweep tasks ----------------------------------------------------


def _baseline_task(spec: Tuple[str, int]) -> float:
    """Memory-mode baseline total time for one (app, pmem_dimms)."""
    app, dimms = spec
    return run_memory_mode(get_workload(app), _system_for(dimms)).total_time


def _cell_group_task(
    spec: Tuple[str, int, Tuple[int, ...], Tuple[str, ...], int, float]
) -> List[Fig6Cell]:
    """All DRAM-limit x metrics cells of one (app, pmem) pair, fused.

    The what-if path: the group's placements share one profile and one
    :meth:`~repro.runtime.engine.ExecutionEngine.run_batch` pass; each
    cell's speedup is bit-identical to one
    :func:`~repro.experiments.harness.run_ecohmem` per cell.
    """
    app, dimms, limits_gb, metric_list, seed, baseline_time = spec
    cells = [
        EcoCell(dram_limit=limit_gb * GiB,
                use_stores=(metrics == "loads+stores"))
        for limit_gb in limits_gb
        for metrics in metric_list
    ]
    batch = run_ecohmem_batch(
        get_workload(app), _system_for(dimms), cells, seed=seed)
    return [
        Fig6Cell(
            app=app, pmem_dimms=dimms, dram_limit_gb=limit_gb,
            metrics=metrics,
            speedup=baseline_time / eco.run.total_time,
        )
        for (limit_gb, metrics), eco in zip(
            ((g, m) for g in limits_gb for m in metric_list), batch)
    ]


def _baseline_rows_task(
    spec: Tuple[str, int, float]
) -> Tuple[float, Optional[float], Optional[str]]:
    """Kernel-tiering and best-of-four ProfDP rows for one PMem-6 app."""
    app, seed, baseline_time = spec
    system = _system_for(6)
    tier = run_tiering(get_workload(app), system)
    variant, run = run_profdp_best(
        get_workload(app), system, dram_limit=12 * GiB, seed=seed,
    )
    return (
        baseline_time / tier.total_time,
        None if run is None else baseline_time / run.total_time,
        None if variant is None else variant.label,
    )


def compute_fig6(
    apps: Optional[List[str]] = None,
    *,
    pmem_configs: Tuple[int, ...] = (6, 2),
    dram_limits_gb: Optional[List[int]] = None,
    include_baseline_rows: bool = True,
    seed: int = 11,
    jobs: Optional[int] = None,
    manifest: Union[None, str, Path, SweepManifest] = None,
    results: Union[None, str, Path, ResultDB] = None,
) -> Fig6Result:
    """Run the full sweep (or a subset) and collect speedups.

    ``jobs`` (default: ``REPRO_JOBS`` or serial) sets the worker count;
    the scheduled result is bit-identical to the serial one.  With a
    ``manifest`` (or ``REPRO_SWEEP_MANIFEST``) completed cells are
    journaled and a restarted sweep re-runs only the missing ones; with
    ``results`` (or ``REPRO_RESULT_DB``) the finished grid is appended to
    the cross-run result ledger.
    """
    t0 = time.perf_counter()
    apps = apps or MINIAPPS
    dram_limits_gb = dram_limits_gb or DRAM_LIMITS_GB
    dimms_list = [d for d in (6, 2) if d in pmem_configs]

    pairs = [(app, dimms) for app in apps for dimms in dimms_list]
    base_time = dict(zip(pairs, run_scheduled(
        _baseline_task, pairs, jobs=jobs,
        experiment="fig6/baseline", manifest=manifest,
    )))

    # one what-if group per (app, pmem): the group's DRAM-limit x metrics
    # placements share a profile and one fused engine pass; flattening in
    # group order reproduces the per-cell sweep's exact cell order
    group_specs = [
        (app, dimms, tuple(dram_limits_gb), tuple(METRIC_CONFIGS),
         seed, base_time[(app, dimms)])
        for app in apps
        for dimms in dimms_list
    ]
    groups = run_scheduled(
        _cell_group_task, group_specs, jobs=jobs,
        experiment="fig6/cell-groups", manifest=manifest,
    )
    result = Fig6Result(cells=[cell for group in groups for cell in group])

    if include_baseline_rows and 6 in dimms_list:
        row_specs = [(app, seed, base_time[(app, 6)]) for app in apps]
        rows = run_scheduled(
            _baseline_rows_task, row_specs, jobs=jobs,
            experiment="fig6/baseline-rows", manifest=manifest,
        )
        for app, (tier_s, profdp_s, profdp_v) in zip(apps, rows):
            result.tiering[app] = tier_s
            result.profdp[app] = profdp_s
            result.profdp_variant[app] = profdp_v

    db = resolve_result_db(results)
    if db is not None:
        db.append(
            "fig6", result, seed=seed,
            params={
                "apps": list(apps),
                "pmem_configs": list(pmem_configs),
                "dram_limits_gb": list(dram_limits_gb),
                "include_baseline_rows": include_baseline_rows,
            },
            elapsed_s=round(time.perf_counter() - t0, 4),
        )
    return result


def fig6_rows(result: Fig6Result) -> List[List[object]]:
    """Flatten to printable rows (app, PMem, DRAM, metrics, speedup)."""
    rows: List[List[object]] = []
    for c in sorted(
        result.cells,
        key=lambda c: (c.app, -c.pmem_dimms, c.dram_limit_gb, c.metrics),
    ):
        rows.append([
            c.app, f"PMem-{c.pmem_dimms}", f"{c.dram_limit_gb} GB",
            c.metrics, c.speedup,
        ])
    for app, s in sorted(result.tiering.items()):
        rows.append([app, "PMem-6", "-", "kernel-tiering", s])
    for app, s in sorted(result.profdp.items()):
        rows.append([
            app, "PMem-6", "12 GB",
            f"profdp ({result.profdp_variant.get(app)})",
            s if s is not None else "n/a",
        ])
    return rows
