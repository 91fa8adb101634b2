"""Placement CI: advisor quality as a test-asserted property.

Sweeps advisor-vs-kernel-tiering over a slice of a generated workload
corpus (:mod:`repro.apps.corpus`) through the work-stealing scheduler /
manifest / ResultDB stack, and checks three properties per cell plus one
aggregate:

- **win**: the ecoHMEM advisor's production run beats the kernel-tiering
  baseline on the same memory system (aggregated into a win rate the CI
  gate floors);
- **feasibility**: the peak of simultaneously-live DRAM bytes implied by
  the production run's instance placement never exceeds the advisor's
  DRAM budget;
- **monotonicity**: giving the advisor twice the DRAM budget should not
  make the run slower.  This is asserted as a *rate floor*, not
  per-cell: under heavy contention, concentrating all traffic in DRAM
  pushes the loaded-latency curve past its knee while PMem sits idle, so
  a smaller budget (which splits traffic across tiers) can genuinely win
  — the same oversubscription effect the paper's bandwidth-aware
  algorithm (Section VII) exists to counter.  A placement regression
  shows up as the monotone rate dropping below its floor;
- optionally, per-tier **energy** (the corpus spec's
  :class:`~repro.apps.dsl.spec.EnergyModel`) for both contenders, so
  placement quality is scored in joules as well as seconds.

Each cell builds its *own* memory system scaled to the generated node's
heap high-water mark (``dram_frac`` of it as the DRAM budget, PMem big
enough to hold everything), so every scenario forces real placement
decisions regardless of its absolute footprint.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.apps.corpus import generate_cell
from repro.apps.dsl.spec import CorpusSpec, default_corpus_spec, load_corpus_yaml
from repro.apps.workload import Workload
from repro.baselines.tiering import TieringTraffic, tiering_effective_dram
from repro.experiments.harness import EcoCell, run_ecohmem, run_ecohmem_batch
from repro.experiments.sweep import (
    ResultDB,
    SweepManifest,
    resolve_result_db,
    run_scheduled,
)
from repro.memsim.subsystem import MemorySystem, dram_ddr4, pmem_optane
from repro.units import GiB

#: relative slack for the monotonicity invariant (engine arithmetic is
#: deterministic, but the two budgets take different code paths)
MONOTONE_RTOL = 1e-9


@dataclass
class QualityCell:
    """Advisor-vs-baseline outcome of one corpus cell."""

    corpus_seed: int
    cell_index: int
    workload_name: str
    digest: str
    jobs: int
    hwm_bytes: int
    dram_limit: int
    advisor_time: float
    advisor_half_time: float
    tiering_time: float
    peak_dram_bytes: int
    advisor_energy_j: Optional[float] = None
    tiering_energy_j: Optional[float] = None

    @property
    def win(self) -> bool:
        return self.advisor_time <= self.tiering_time

    @property
    def feasible(self) -> bool:
        return self.peak_dram_bytes <= self.dram_limit

    @property
    def monotone(self) -> bool:
        """Doubling the DRAM budget never slowed the advisor down."""
        return self.advisor_time <= self.advisor_half_time * (1 + MONOTONE_RTOL)


def _load_spec(spec_path: Optional[str]) -> CorpusSpec:
    return load_corpus_yaml(spec_path) if spec_path else default_corpus_spec()


def cell_system(hwm_bytes: int, *, dram_frac: float,
                dimms: int) -> Tuple[MemorySystem, int]:
    """The per-cell memory system and advisor DRAM budget.

    DRAM is ``dram_frac`` of the node heap high-water mark (floored at
    1 GiB so the tiering baseline's metadata reserve stays meaningful);
    PMem keeps its ``dimms`` bandwidth scaling but is resized to hold the
    whole footprint several times over, so capacity pressure is always on
    the DRAM side.
    """
    dram_limit = max(int(hwm_bytes * dram_frac), 1 * GiB)
    pmem_cap = max(4 * hwm_bytes, 4 * GiB)
    pmem = pmem_optane(dimms).with_capacity(pmem_cap)
    return MemorySystem([dram_ddr4(dram_limit), pmem]), dram_limit


def dram_peak_bytes(workload: Workload, instance_placement) -> int:
    """Peak simultaneously-live DRAM bytes under a replayed placement."""
    ranks = workload.ranks
    events: List[Tuple[float, int]] = []
    for inst in workload.instances():
        key = (inst.spec.site.name, inst.index)
        if instance_placement.get(key) != "dram":
            continue
        events.append((inst.start, inst.spec.size * ranks))
        events.append((inst.end, -inst.spec.size * ranks))
    # frees before allocations at equal timestamps — the replay's edge
    # order (back-to-back instances reuse the freed block)
    events.sort(key=lambda e: (e[0], e[1]))
    level = peak = 0
    for _, delta in events:
        level += delta
        peak = max(peak, level)
    return peak


# -- picklable sweep task ------------------------------------------------------


def _quality_cell_task(
    spec: Tuple[int, int, str, int, float, int]
) -> QualityCell:
    """Generate one corpus cell and race advisor vs tiering on it."""
    corpus_seed, cell_index, spec_path, dimms, dram_frac, seed = spec
    cspec = _load_spec(spec_path or None)
    cell = generate_cell(cspec, corpus_seed, cell_index)
    wl = cell.workload
    hwm = wl.heap_high_water() * wl.ranks
    system, dram_limit = cell_system(hwm, dram_frac=dram_frac, dimms=dimms)

    # the what-if path: the advisor placement and the kernel-tiering
    # contender share one fused engine pass (bit-identical to running
    # run_ecohmem + run_tiering sequentially); the half-budget probe
    # runs on its *own* scaled memory system, so it cannot batch here
    tier_model = TieringTraffic(
        wl,
        tiering_effective_dram(system.get("dram").capacity,
                               system.get("pmem").capacity),
    )
    ecos, extra = run_ecohmem_batch(
        wl, system, [EcoCell(dram_limit=dram_limit)], seed=seed,
        extra_models=[(tier_model, "kernel-tiering")],
    )
    eco, tier = ecos[0], extra[0]
    # same profile (memoized by content fingerprint), half the budget
    half_system, half_limit = cell_system(
        hwm, dram_frac=dram_frac / 2.0, dimms=dimms)
    eco_half = run_ecohmem(wl, half_system, dram_limit=half_limit, seed=seed)

    advisor_energy = tiering_energy = None
    if cell.energy is not None:
        advisor_energy = cell.energy.energy_joules(eco.run)
        tiering_energy = cell.energy.energy_joules(tier)

    return QualityCell(
        corpus_seed=corpus_seed,
        cell_index=cell_index,
        workload_name=wl.name,
        digest=cell.digest(),
        jobs=len(cell.jobs),
        hwm_bytes=hwm,
        dram_limit=dram_limit,
        advisor_time=eco.run.total_time,
        advisor_half_time=eco_half.run.total_time,
        tiering_time=tier.total_time,
        peak_dram_bytes=dram_peak_bytes(wl, eco.replay.instance_placement),
        advisor_energy_j=advisor_energy,
        tiering_energy_j=tiering_energy,
    )


@dataclass
class QualityReport:
    """The aggregate of one placement-CI sweep."""

    cells: List[QualityCell] = field(default_factory=list)

    @property
    def win_rate(self) -> float:
        if not self.cells:
            return 0.0
        return sum(1 for c in self.cells if c.win) / len(self.cells)

    @property
    def infeasible(self) -> List[QualityCell]:
        return [c for c in self.cells if not c.feasible]

    @property
    def non_monotone(self) -> List[QualityCell]:
        return [c for c in self.cells if not c.monotone]

    @property
    def monotone_rate(self) -> float:
        if not self.cells:
            return 0.0
        return sum(1 for c in self.cells if c.monotone) / len(self.cells)

    @property
    def mean_speedup(self) -> float:
        if not self.cells:
            return 0.0
        return sum(c.tiering_time / c.advisor_time
                   for c in self.cells) / len(self.cells)

    def energy_win_rate(self) -> Optional[float]:
        """Advisor-beats-tiering rate in joules (None without a model)."""
        scored = [c for c in self.cells
                  if c.advisor_energy_j is not None
                  and c.tiering_energy_j is not None]
        if not scored:
            return None
        return sum(1 for c in scored
                   if c.advisor_energy_j <= c.tiering_energy_j) / len(scored)


def run_quality(
    spec_path: Union[None, str, Path] = None,
    *,
    corpus_seed: int = 2026,
    cells: int = 64,
    start: int = 0,
    dimms: int = 6,
    dram_frac: float = 0.5,
    seed: int = 11,
    jobs: Optional[int] = None,
    manifest: Union[None, str, Path, SweepManifest] = None,
    results: Union[None, str, Path, ResultDB] = None,
) -> QualityReport:
    """Sweep advisor-vs-tiering over corpus cells ``start..start+cells-1``.

    Dispatches through :func:`run_scheduled`, so ``jobs`` workers
    steal cells, a ``manifest`` journals completed ones for kill/restart
    resume, and ``results`` appends the finished report to the cross-run
    ledger.  Cell generation happens *inside* the task from the
    ``(corpus_seed, cell_index)`` stream, so a resumed sweep regenerates
    exactly the cells it is missing.
    """
    t0 = time.perf_counter()
    if spec_path is not None:
        _load_spec(str(spec_path))  # validate up front, not per worker
    specs = [
        (corpus_seed, start + i, str(spec_path) if spec_path else "",
         dimms, dram_frac, seed)
        for i in range(cells)
    ]
    report = QualityReport(cells=run_scheduled(
        _quality_cell_task, specs, jobs=jobs,
        experiment="quality/cells", manifest=manifest,
    ))

    db = resolve_result_db(results)
    if db is not None:
        db.append(
            "quality", report.cells, seed=seed,
            params={
                "spec_path": str(spec_path) if spec_path else None,
                "corpus_seed": corpus_seed,
                "cells": cells,
                "start": start,
                "dimms": dimms,
                "dram_frac": dram_frac,
                "win_rate": report.win_rate,
                "mean_speedup": report.mean_speedup,
                "energy_win_rate": report.energy_win_rate(),
            },
            elapsed_s=round(time.perf_counter() - t0, 4),
        )
    return report


def check_quality(report: QualityReport, *,
                  win_rate_floor: float,
                  monotone_rate_floor: float = 0.9) -> List[str]:
    """The CI gate: empty list = pass, else human-readable failures.

    Feasibility is a hard per-cell invariant.  Win rate and monotone
    rate are aggregate floors (see the module docstring for why
    monotonicity cannot be per-cell under bandwidth saturation).
    """
    failures: List[str] = []
    if not report.cells:
        failures.append("no cells were swept")
        return failures
    if report.win_rate < win_rate_floor:
        losses = [c.cell_index for c in report.cells if not c.win]
        failures.append(
            f"win rate {report.win_rate:.3f} below floor {win_rate_floor:.3f} "
            f"(advisor lost cells {losses})"
        )
    for c in report.infeasible:
        failures.append(
            f"cell {c.cell_index}: placement infeasible — peak DRAM "
            f"{c.peak_dram_bytes} B exceeds budget {c.dram_limit} B"
        )
    if report.monotone_rate < monotone_rate_floor:
        details = [
            f"cell {c.cell_index}: {c.advisor_time:.6f}s at full budget vs "
            f"{c.advisor_half_time:.6f}s at half"
            for c in report.non_monotone
        ]
        failures.append(
            f"monotone rate {report.monotone_rate:.3f} below floor "
            f"{monotone_rate_floor:.3f} ({'; '.join(details)})"
        )
    return failures
