"""Table VIII: OpenFOAM & LAMMPS speedups, main vs bandwidth-aware advisor.

The paper's full-application headline: the base (density) algorithm loses
~2x on OpenFOAM while the bandwidth-aware algorithm wins 6.1%; LAMMPS is
insensitive (slowdown kept below 4%) with either algorithm.  DRAM limits
follow the paper: OpenFOAM 11 GB for both; LAMMPS 14 GB for the main
algorithm vs 16 GB for the bandwidth-aware one (the main algorithm packs
DRAM so aggressively that the larger limit runs out of memory).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.apps import get_workload
from repro.baselines.memory_mode import run_memory_mode
from repro.experiments.harness import EcoCell, run_ecohmem_batch
from repro.experiments.sweep import (
    ResultDB,
    SweepManifest,
    resolve_result_db,
    run_scheduled,
)
from repro.memsim.subsystem import pmem6_system
from repro.units import GiB

#: app -> (main-algorithm DRAM limit GB, bandwidth-aware DRAM limit GB)
DRAM_LIMITS = {"lammps": (14, 16), "openfoam": (11, 11)}

#: the paper's Table VIII values for side-by-side reporting
PAPER_VALUES = {
    "lammps": {"density": 0.97, "bw-aware": 0.96},
    "openfoam": {"density": 0.49, "bw-aware": 1.061},
}


@dataclass
class Tab8Row:
    app: str
    algorithm: str
    dram_limit_gb: int
    speedup: float
    paper_speedup: float
    swaps: int


def _tab8_baseline_task(app: str) -> float:
    return run_memory_mode(get_workload(app), pmem6_system()).total_time


def _tab8_group_task(
    spec: Tuple[str, Tuple[Tuple[str, int], ...], int, float]
) -> List[Tab8Row]:
    """Both algorithm rows of one app in one fused engine pass.

    The density and bandwidth-aware placements share the app's profile
    and one :func:`run_ecohmem_batch` production pass, bit-identical to
    one :func:`~repro.experiments.harness.run_ecohmem` per row.
    """
    app, algo_limits, seed, baseline_time = spec
    cells = [EcoCell(dram_limit=limit_gb * GiB, algorithm=algorithm)
             for algorithm, limit_gb in algo_limits]
    batch = run_ecohmem_batch(get_workload(app), pmem6_system(), cells,
                              seed=seed)
    return [
        Tab8Row(
            app=app, algorithm=algorithm, dram_limit_gb=limit_gb,
            speedup=baseline_time / eco.run.total_time,
            paper_speedup=PAPER_VALUES[app][algorithm],
            swaps=0 if algorithm == "density" else len(eco.swaps or []),
        )
        for (algorithm, limit_gb), eco in zip(algo_limits, batch)
    ]


def compute_tab8(
    *,
    seed: int = 11,
    jobs: Optional[int] = None,
    manifest: Union[None, str, Path, SweepManifest] = None,
    results: Union[None, str, Path, ResultDB] = None,
) -> List[Tab8Row]:
    """Run the full-application grid through the sweep engine.

    ``manifest``/``results`` behave as in
    :func:`repro.experiments.fig6_sweep.compute_fig6`: journal cells for
    resume, append the finished table to the cross-run ledger.
    """
    t0 = time.perf_counter()
    apps = list(DRAM_LIMITS)
    base_time = dict(zip(apps, run_scheduled(
        _tab8_baseline_task, apps, jobs=jobs,
        experiment="tab8/baseline", manifest=manifest,
    )))
    # one what-if group per app: both algorithms' production runs share
    # one fused engine pass; flattening keeps the per-cell row order
    specs = [
        (app, (("density", limit_main), ("bw-aware", limit_bw)),
         seed, base_time[app])
        for app, (limit_main, limit_bw) in DRAM_LIMITS.items()
    ]
    groups = run_scheduled(_tab8_group_task, specs, jobs=jobs,
                           experiment="tab8/cell-groups", manifest=manifest)
    rows = [row for group in groups for row in group]
    db = resolve_result_db(results)
    if db is not None:
        db.append("tab8", rows, seed=seed,
                  params={"apps": apps},
                  elapsed_s=round(time.perf_counter() - t0, 4))
    return rows
