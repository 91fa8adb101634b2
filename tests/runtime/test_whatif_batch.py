"""Differential grid: the fused what-if batch against sequential runs.

``ExecutionEngine.run_batch([p1..pK])`` must reproduce
``[engine.run(p) for p in (p1..pK)]`` bit for bit — every float compared
with ``==`` — across traffic models, memory systems, real workloads and
batch widths, including mixed-convergence batches where one lane's fixed
point settles in a different iteration than another's.
``predict_times`` must return exactly the batch's ``total_time`` values
(it skips assembly, not arithmetic).
"""

import pytest

from repro.apps.registry import get_workload
from repro.baselines.memory_mode import MemoryModeTraffic
from repro.baselines.tiering import (
    CombinedTraffic,
    TieringTraffic,
    tiering_effective_dram,
)
from repro.memsim.subsystem import (
    hbm_dram_pmem_system,
    pmem2_system,
    pmem6_system,
)
from repro.pipeline import whatif
from repro.pipeline.whatif import evaluate_placements, rank_placements
from repro.runtime.engine import ExecutionEngine
from repro.runtime.stats import run_results_identical
from repro.runtime.traffic import PlacementTraffic

from tests.conftest import make_toy_workload

SYSTEMS = {
    "pmem6": pmem6_system,
    "pmem2": pmem2_system,
    "hbm-dram-pmem": hbm_dram_pmem_system,
}


def load_workload(name):
    return make_toy_workload() if name == "toy" else get_workload(name)


def candidate_placements(workload, names, K):
    """K candidates mixing rotations and nested DRAM-prefix splits.

    Rotations cycle every site over the tiers (maximum churn between
    lanes); prefix splits put the first ``c`` sites on the fastest tier
    and the rest on the slowest (so lanes range from all-fast to
    all-slow, which converge in different fixed-point iterations).
    Candidate 0 also overrides one multi-instance site's second instance
    to a different tier, exercising the ``instance_placement`` path.
    """
    sites = [obj.site.name for obj in workload.objects]
    cands = []
    for k in range(K):
        if k % 2 == 0:
            placement = {
                s: names[(i + k // 2) % len(names)]
                for i, s in enumerate(sites)
            }
        else:
            c = max(1, (k * len(sites)) // (2 * K) + 1)
            placement = {
                s: names[0] if i < c else names[-1]
                for i, s in enumerate(sites)
            }
        overrides = {}
        if k == 0:
            for obj in workload.objects:
                if obj.alloc_count > 1:
                    current = placement[obj.site.name]
                    overrides[(obj.site.name, 1)] = next(
                        n for n in names if n != current)
                    break
        cands.append((placement, overrides))
    return cands


def assert_batch_identical(workload, system, make_models):
    """Fused batch ≡ sequential runs ≡ predict_times, on one engine.

    ``make_models`` is called once per path so stateful models (the
    baselines accumulate per-call side effects) start fresh each time.
    """
    engine = ExecutionEngine(workload, system)
    seq = [engine.run(model) for model in make_models()]
    batch = engine.run_batch(make_models())
    assert len(batch) == len(seq)
    for k, (b, s) in enumerate(zip(batch, seq)):
        errs = run_results_identical(b, s)
        assert not errs, f"lane {k}: {errs[:5]}"
    times = engine.predict_times(make_models())
    assert times == [r.total_time for r in batch]


class TestPlacementGrid:
    """The full differential grid from the issue's acceptance criteria."""

    @pytest.mark.parametrize("K", [1, 2, 16])
    @pytest.mark.parametrize("system_name", sorted(SYSTEMS))
    # cloverleaf3d, lammps and minimd lanes mix rows that converge with
    # rows still moving at the fixed point's iteration cap
    @pytest.mark.parametrize("workload_name",
                             ["toy", "minife", "lulesh", "openfoam",
                              "cloverleaf3d", "lammps", "minimd"])
    def test_grid(self, workload_name, system_name, K):
        wl = load_workload(workload_name)
        system = SYSTEMS[system_name]()
        cands = candidate_placements(wl, system.names, K)
        assert_batch_identical(
            wl, system,
            lambda: [PlacementTraffic(wl, p, o) for p, o in cands],
        )


class TestMixedConvergence:
    """Lanes that settle at different fixed-point iterations must not
    perturb each other: an all-DRAM lane (converges almost immediately)
    fused with an oversubscribed all-PMem lane (many damped iterations)
    must both match their solo runs exactly."""

    @pytest.mark.parametrize("system_factory", [pmem6_system, pmem2_system])
    def test_fast_and_slow_lanes(self, system_factory):
        wl = make_toy_workload(hot_rate=50_000_000.0)
        system = system_factory()
        sites = [obj.site.name for obj in wl.objects]
        fast = {s: "dram" for s in sites}
        slow = {s: "pmem" for s in sites}
        mixed = {s: ("dram" if i % 2 else "pmem")
                 for i, s in enumerate(sites)}
        assert_batch_identical(
            wl, system,
            lambda: [PlacementTraffic(wl, p) for p in (fast, slow, mixed)],
        )


class TestBaselineModels:
    """All traffic models in one batch: the baselines have no
    ``traffic_batch`` so they pack through the generic scalar replay,
    fused alongside the vectorized app-direct lanes."""

    @pytest.mark.parametrize("workload_name", ["toy", "minife"])
    def test_mixed_model_batch(self, workload_name):
        wl = load_workload(workload_name)
        system = pmem6_system()
        eff = tiering_effective_dram(
            system.get("dram").capacity, system.get("pmem").capacity)
        cache = max(wl.heap_high_water() // 2, 1)
        placement = {obj.site.name: system.names[i % len(system.names)]
                     for i, obj in enumerate(wl.objects)}

        def models():
            return [
                PlacementTraffic(wl, placement),
                TieringTraffic(wl, eff),
                MemoryModeTraffic(wl, cache),
                CombinedTraffic(wl, eff, placement),
            ]

        assert_batch_identical(wl, system, models)


class TestPlainDictCandidates:
    def test_dicts_resolve_to_placement_traffic(self):
        """run_batch accepts bare {site: subsystem} mappings."""
        wl = make_toy_workload()
        system = pmem6_system()
        sites = [obj.site.name for obj in wl.objects]
        cands = [{s: "dram" for s in sites}, {s: "pmem" for s in sites}]
        engine = ExecutionEngine(wl, system)
        batch = engine.run_batch(cands)
        seq = [engine.run(PlacementTraffic(wl, c)) for c in cands]
        for b, s in zip(batch, seq):
            assert run_results_identical(b, s) == []


class TestEvaluatePlacements:
    """The pipeline front door: chunked fused passes, same numbers."""

    def test_chunking_is_invisible(self, monkeypatch):
        wl = get_workload("minife")
        system = pmem6_system()
        cands = [p for p, _ in candidate_placements(wl, system.names, 7)]
        whole = evaluate_placements(wl, system, cands)
        for size in (3, 2):
            monkeypatch.setattr(whatif, "BATCH_SIZE", size)
            assert evaluate_placements(wl, system, cands) == whole

    def test_full_results_match_predictions(self):
        wl = make_toy_workload()
        system = pmem6_system()
        cands = [p for p, _ in candidate_placements(wl, system.names, 4)]
        runs = ExecutionEngine(wl, system).run_batch(cands)
        times = evaluate_placements(wl, system, cands)
        assert times == [r.total_time for r in runs]

    def test_ranking_is_stable_on_ties(self):
        assert rank_placements([3.0, 1.0, 3.0, 1.0]) == [1, 3, 0, 2]
        assert rank_placements([]) == []
