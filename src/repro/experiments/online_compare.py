"""Static ecoHMEM vs online re-advisory vs kernel tiering (ROADMAP item 2).

Sweeps the three contenders over a mixed grid — registered paper
workloads and generated corpus scenarios — through the work-stealing
scheduler / manifest / ResultDB stack:

- **static**: the density advisor over the full-timeline engine traffic,
  left alone (:func:`~repro.pipeline.online.static_placement`);
- **online**: the same starting placement, then the phase-aware loop of
  :func:`~repro.runtime.online.run_online` — re-advise at detected
  shifts, charge migration costs, accept only net-positive moves.  The
  reported time *includes* the charged migration seconds;
- **tiering**: the kernel-style paging baseline
  (:class:`~repro.baselines.tiering.TieringTraffic`) on the same system.

Because candidate scores are exact engine totals and a move is only
accepted when the predicted saving beats its migration cost, online can
never lose to static — the interesting aggregate is the *strict-win*
rate: how often phase-aware re-placement actually buys time.  Corpus
cells are where it does: generated objects are active in random phase
subsets, so the hot set rotates and a one-shot placement leaves DRAM
parked on gone-cold objects.  Registered paper workloads are mostly
stationary, which the report makes visible rather than hiding.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.apps import get_workload
from repro.apps.corpus import generate_cell
from repro.apps.dsl.spec import default_corpus_spec
from repro.baselines.tiering import TieringTraffic, tiering_effective_dram
from repro.experiments.quality import cell_system
from repro.experiments.sweep import (
    ResultDB,
    SweepManifest,
    resolve_result_db,
    run_scheduled,
)
from repro.pipeline.online import run_online_pipeline
from repro.runtime.engine import ExecutionEngine
from repro.runtime.online import OnlineParams

#: equality slack when calling a cell a tie (totals are deterministic,
#: so exact comparison is safe; the slack only guards the speedup ratio)
_EPS = 0.0


@dataclass
class OnlineCell:
    """Three-way outcome of one grid cell (times in seconds).

    ``online_time`` includes the charged migration cost, so the three
    columns compare apples to apples.
    """

    kind: str                 # "app" (registered) or "corpus" (generated)
    workload_name: str
    corpus_seed: int
    cell_index: int
    dimms: int
    dram_frac: float
    dram_limit: int
    static_time: float
    online_time: float
    online_engine_time: float
    migration_time: float
    migrations: int
    shift_count: int
    candidate_evaluations: int
    tiering_time: float

    @property
    def online_not_worse(self) -> bool:
        """Online >= static on total time (the acceptance criterion)."""
        return self.online_time <= self.static_time + _EPS

    @property
    def strict_win(self) -> bool:
        return self.online_time < self.static_time

    @property
    def beats_tiering(self) -> bool:
        return self.online_time <= self.tiering_time

    @property
    def online_speedup(self) -> float:
        return self.static_time / self.online_time if self.online_time else 0.0


# -- picklable sweep task ------------------------------------------------------


def _online_cell_task(
    spec: Tuple[str, str, int, int, int, float, int, float]
) -> OnlineCell:
    """Run static / online / tiering on one cell, sharing one engine.

    Static and online are one :func:`run_online_pipeline` cell; the
    tiering baseline then runs on the same engine.
    """
    (kind, app, corpus_seed, cell_index, dimms, dram_frac,
     epochs, threshold) = spec
    if kind == "app":
        wl = get_workload(app)
    else:
        wl = generate_cell(default_corpus_spec(), corpus_seed,
                           cell_index).workload
    hwm = wl.heap_high_water() * wl.ranks
    system, dram_limit = cell_system(hwm, dram_frac=dram_frac, dimms=dimms)
    # per-rank budget: the advisor and the engine both think per rank
    rank_limit = max(dram_limit // wl.ranks, 1)

    engine = ExecutionEngine(wl, system)
    report = run_online_pipeline(
        wl, system,
        dram_limit=rank_limit,
        params=OnlineParams(epochs=epochs, shift_threshold=threshold),
        engine=engine,
    ).report
    tier = engine.run(TieringTraffic(
        wl,
        tiering_effective_dram(system.get("dram").capacity,
                               system.get("pmem").capacity),
    ))

    return OnlineCell(
        kind=kind,
        workload_name=wl.name,
        corpus_seed=corpus_seed,
        cell_index=cell_index,
        dimms=dimms,
        dram_frac=dram_frac,
        dram_limit=rank_limit,
        static_time=float(report.static_time),
        online_time=float(report.total_time),
        online_engine_time=float(report.engine_time),
        migration_time=float(report.migration_total_s),
        migrations=report.migrations,
        shift_count=len(report.shift_boundaries),
        candidate_evaluations=report.candidate_evaluations,
        tiering_time=float(tier.total_time),
    )


@dataclass
class OnlineCompareReport:
    """The aggregate of one static-vs-online-vs-tiering sweep."""

    cells: List[OnlineCell] = field(default_factory=list)

    @property
    def not_worse_rate(self) -> float:
        if not self.cells:
            return 0.0
        return sum(1 for c in self.cells if c.online_not_worse) / len(self.cells)

    @property
    def strict_win_rate(self) -> float:
        if not self.cells:
            return 0.0
        return sum(1 for c in self.cells if c.strict_win) / len(self.cells)

    @property
    def tiering_win_rate(self) -> float:
        if not self.cells:
            return 0.0
        return sum(1 for c in self.cells if c.beats_tiering) / len(self.cells)

    @property
    def total_migrations(self) -> int:
        return sum(c.migrations for c in self.cells)

    @property
    def mean_online_speedup(self) -> float:
        if not self.cells:
            return 0.0
        return sum(c.online_speedup for c in self.cells) / len(self.cells)


#: registered paper workloads in the default grid (kept small: these are
#: mostly stationary, included to show the detector does not fire moves
#: that cannot pay for themselves)
DEFAULT_APPS = ("minife", "minimd", "lammps", "openfoam")


def run_online_compare(
    *,
    apps: Tuple[str, ...] = DEFAULT_APPS,
    corpus_seed: int = 2026,
    corpus_cells: int = 12,
    corpus_start: int = 0,
    dimms: int = 6,
    dram_fracs: Tuple[float, ...] = (0.1, 0.25),
    epochs: int = 6,
    shift_threshold: float = 0.10,
    seed: int = 11,
    jobs: Optional[int] = None,
    manifest: Union[None, str, Path, SweepManifest] = None,
    results: Union[None, str, Path, ResultDB] = None,
) -> OnlineCompareReport:
    """Sweep the three-way comparison over the workload/corpus grid.

    Dispatches through :func:`run_scheduled`: ``jobs`` workers steal
    cells, ``manifest`` journals completed ones for kill/restart resume,
    and ``results`` appends the finished report to the cross-run ledger.
    Corpus cells regenerate deterministically inside the task from
    ``(corpus_seed, cell_index)``, so a resumed sweep recomputes exactly
    the cells it is missing.
    """
    t0 = time.perf_counter()
    specs: List[Tuple[str, str, int, int, int, float, int, float]] = []
    for frac in dram_fracs:
        for app in apps:
            specs.append(("app", app, 0, 0, dimms, frac,
                          epochs, shift_threshold))
        for i in range(corpus_cells):
            specs.append(("corpus", "", corpus_seed, corpus_start + i,
                          dimms, frac, epochs, shift_threshold))

    report = OnlineCompareReport(cells=run_scheduled(
        _online_cell_task, specs, jobs=jobs,
        experiment="online/cells", manifest=manifest,
    ))

    db = resolve_result_db(results)
    if db is not None:
        db.append(
            "online_compare", report.cells, seed=seed,
            params={
                "apps": list(apps),
                "corpus_seed": corpus_seed,
                "corpus_cells": corpus_cells,
                "corpus_start": corpus_start,
                "dimms": dimms,
                "dram_fracs": list(dram_fracs),
                "epochs": epochs,
                "shift_threshold": shift_threshold,
                "not_worse_rate": report.not_worse_rate,
                "strict_win_rate": report.strict_win_rate,
                "tiering_win_rate": report.tiering_win_rate,
                "total_migrations": report.total_migrations,
            },
            elapsed_s=round(time.perf_counter() - t0, 4),
        )
    return report


def check_online_compare(
    report: OnlineCompareReport,
    *,
    not_worse_floor: float = 0.5,
    min_migrations: int = 1,
) -> List[str]:
    """The CI gate: empty list = pass, else human-readable failures.

    ``not_worse_floor`` is the acceptance criterion (online >= static on
    a majority of cells with migration charged); the by-construction
    expectation is 1.0, so any drop below it flags a broken cost model.
    ``min_migrations`` guards against the loop silently never firing —
    a detector or advisor regression would otherwise read as a clean
    all-ties sweep.
    """
    failures: List[str] = []
    if not report.cells:
        failures.append("no cells were swept")
        return failures
    if report.not_worse_rate < not_worse_floor:
        losses = [
            f"{c.workload_name} (static {c.static_time:.6f}s vs online "
            f"{c.online_time:.6f}s)"
            for c in report.cells if not c.online_not_worse
        ]
        failures.append(
            f"online-not-worse rate {report.not_worse_rate:.3f} below floor "
            f"{not_worse_floor:.3f}: {'; '.join(losses)}"
        )
    if report.total_migrations < min_migrations:
        failures.append(
            f"only {report.total_migrations} migrations across "
            f"{len(report.cells)} cells (floor {min_migrations}) — the "
            f"online loop never fired"
        )
    return failures
