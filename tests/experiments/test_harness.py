"""Tests for harness-level helpers (ProfDP runner, speedup table)."""

import pytest

from repro.baselines.memory_mode import run_memory_mode
from repro.experiments.harness import run_ecohmem, run_profdp_best, speedup_table
from repro.memsim.subsystem import pmem6_system
from repro.units import GiB, MiB

from tests.conftest import make_toy_workload


class TestProfDPRunner:
    def test_minimd_unavailable(self, system6):
        """The paper could not run ProfDP on MiniMD (HPCToolkit crash)."""
        from repro.apps import get_workload
        wl = get_workload("minimd")
        variant, run = run_profdp_best(wl, system6, dram_limit=12 * GiB)
        assert variant is None and run is None

    def test_toy_returns_best_variant(self, system6):
        wl = make_toy_workload()
        variant, run = run_profdp_best(wl, system6, dram_limit=64 * MiB)
        assert variant is not None
        assert run.total_time > 0
        # "best" really is the fastest of the four variants
        assert variant.label.startswith("profdp-")


def exhaustive_profdp(wl, system, dram_limit, seed=11):
    """All four ProfDP variants run, the strictly fastest kept."""
    from repro.advisor import HMemAdvisor
    from repro.advisor.config import default_config
    from repro.apps.sites import SiteRegistry
    from repro.baselines.profdp import ALL_VARIANTS, profdp_placement
    from repro.binary.callstack import StackFormat
    from repro.pipeline.stages import profile_stage, run_stage

    if wl.name == "minimd":
        return None, None
    registry = SiteRegistry(wl)
    profiles, _, _ = profile_stage(wl, seed=seed)
    advisor = HMemAdvisor(system, default_config(dram_limit, ranks=wl.ranks))
    objects = advisor.objects_from_profiles(profiles)
    best = (None, None)
    for variant in ALL_VARIANTS:
        placement = profdp_placement(objects, system, variant, dram_limit,
                                     ranks=wl.ranks, seed=seed)
        run, _ = run_stage(
            wl, system, registry,
            advisor.to_report(placement, StackFormat.BOM),
            dram_limit=dram_limit, stack_format=StackFormat.BOM,
            aslr_seed=5000 + seed, label=variant.label)
        if best[1] is None or run.total_time < best[1].total_time:
            best = (variant, run)
    return best


class TestProfDPDedup:
    @pytest.mark.parametrize("app", ["minife", "minimd", "lulesh", "hpcg",
                                     "cloverleaf3d"])
    def test_equals_exhaustive_loop(self, app, system6):
        """Skipping variants whose report repeats an earlier one returns
        the exhaustive four-variant loop's variant and run."""
        from repro.apps import get_workload
        from repro.runtime.stats import run_results_identical

        wl = get_workload(app)
        variant, run = run_profdp_best(wl, system6, dram_limit=12 * GiB)
        want_variant, want_run = exhaustive_profdp(wl, system6, 12 * GiB)
        assert variant == want_variant
        if want_run is None:
            assert run is None
        else:
            assert run_results_identical(run, want_run) == []


class TestSpeedupTable:
    def test_table(self, system6):
        baseline = run_memory_mode(make_toy_workload(), system6)
        eco = run_ecohmem(make_toy_workload(), system6, dram_limit=64 * MiB)
        table = speedup_table({"eco": eco.run}, baseline)
        assert table["eco"] == pytest.approx(eco.run.speedup_vs(baseline))


class TestObservationRunIsolation:
    def test_bw_aware_final_report_differs_when_swaps_happen(self, system6):
        """When the bandwidth-aware pass changes nothing, the two reports
        agree; the plumbing must keep base and final placements distinct
        objects either way."""
        res = run_ecohmem(make_toy_workload(), system6, dram_limit=64 * MiB,
                          algorithm="bw-aware")
        assert res.base_placement is not None
        assert res.placement is not res.base_placement


class TestEcoHMEMBatch:
    """run_ecohmem_batch fuses same-(workload, system) cells into one
    engine pass; every cell must be bit-identical to its own
    run_ecohmem call."""

    def _cells(self):
        from repro.experiments.harness import EcoCell

        return [
            EcoCell(dram_limit=64 * MiB),
            EcoCell(dram_limit=16 * MiB),
            EcoCell(dram_limit=64 * MiB, use_stores=False),
            EcoCell(dram_limit=64 * MiB, algorithm="bw-aware"),
        ]

    def test_matches_sequential_run_ecohmem(self, system6):
        from dataclasses import asdict

        from repro.experiments.harness import run_ecohmem_batch
        from repro.runtime.stats import run_results_identical

        wl = make_toy_workload()
        batch = run_ecohmem_batch(wl, system6, self._cells())
        assert len(batch) == 4
        for cell, got in zip(self._cells(), batch):
            want = run_ecohmem(
                wl, system6, **{k: v for k, v in asdict(cell).items()
                                if k != "pebs_hz"},
                profile_store=None,
            )
            errs = run_results_identical(got.run, want.run)
            assert not errs, (cell, errs[:5])
            assert got.site_placement == want.site_placement
            assert got.report.dumps() == want.report.dumps()

    def test_extra_models_ride_the_same_pass(self, system6):
        from repro.baselines.tiering import (
            TieringTraffic,
            run_tiering,
            tiering_effective_dram,
        )
        from repro.experiments.harness import EcoCell, run_ecohmem_batch
        from repro.runtime.stats import run_results_identical

        wl = make_toy_workload()
        eff = tiering_effective_dram(
            system6.get("dram").capacity, system6.get("pmem").capacity)
        ecos, extra = run_ecohmem_batch(
            wl, system6, [EcoCell(dram_limit=64 * MiB)],
            extra_models=[(TieringTraffic(wl, eff), "kernel-tiering")],
        )
        assert len(ecos) == 1 and len(extra) == 1
        want = run_tiering(make_toy_workload(), system6)
        assert run_results_identical(extra[0], want) == []
