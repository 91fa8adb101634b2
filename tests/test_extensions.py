"""Tests for the forward-looking extensions (three-tier, combined policy,
workload scaling)."""

import pytest

from repro.advisor.config import config_for_system, three_tier_config
from repro.apps import get_workload
from repro.baselines import run_combined, run_tiering
from repro.baselines.memory_mode import run_memory_mode
from repro.experiments.ablations import scale_workload
from repro.experiments.harness import run_ecohmem
from repro.memsim import hbm_dram_pmem_system, hbm_stack, pmem6_system
from repro.units import GiB, MiB

from tests.conftest import make_toy_workload


class TestThreeTier:
    def test_system_layout(self):
        s = hbm_dram_pmem_system()
        assert s.names == ["hbm", "dram", "pmem"]
        assert s.fallback.name == "pmem"

    def test_hbm_character(self):
        hbm = hbm_stack()
        from repro.memsim import dram_ddr4
        dram = dram_ddr4()
        # higher idle latency but far more bandwidth headroom
        assert hbm.idle_read_latency_ns() > dram.idle_read_latency_ns()
        assert hbm.peak_read_bw > 3 * dram.peak_read_bw

    def test_config_from_system(self):
        cfg = config_for_system(hbm_dram_pmem_system(), 12 * GiB, ranks=4)
        assert set(cfg.coefficients) == {"hbm", "dram", "pmem"}
        assert cfg.coefficient("hbm")[0] < cfg.coefficient("dram")[0]

    def test_three_tier_config_factory(self):
        cfg = three_tier_config(12 * GiB)
        assert set(cfg.coefficients) == {"hbm", "dram", "pmem"}

    def test_pipeline_places_hot_objects_in_hbm(self):
        wl = make_toy_workload()
        eco = run_ecohmem(wl, hbm_dram_pmem_system(hbm_capacity=24 * MiB,
                                                   dram_capacity=1 * GiB),
                          dram_limit=1 * GiB)
        assert eco.site_placement["toy::hot"] == "hbm"
        assert eco.site_placement["toy::cold"] in ("dram", "pmem")

    def test_hbm_capacity_respected(self):
        """HBM smaller than the hot object pushes it down a tier."""
        wl = make_toy_workload()
        eco = run_ecohmem(wl, hbm_dram_pmem_system(hbm_capacity=8 * MiB,
                                                   dram_capacity=1 * GiB),
                          dram_limit=1 * GiB)
        # hot is 8 MiB x 2 ranks = 16 MiB > 8 MiB HBM
        assert eco.site_placement["toy::hot"] == "dram"


class TestCombinedPolicy:
    def test_beats_reactive_only(self, system6):
        wl = get_workload("minife")
        baseline = run_memory_mode(wl, system6)
        eco = run_ecohmem(get_workload("minife"), system6, dram_limit=12 * GiB)
        tier = run_tiering(get_workload("minife"), system6)
        combined = run_combined(get_workload("minife"), system6,
                                eco.site_placement)
        assert combined.speedup_vs(baseline) > tier.speedup_vs(baseline)

    def test_close_to_proactive_only(self, system6):
        wl = get_workload("minife")
        baseline = run_memory_mode(wl, system6)
        eco = run_ecohmem(get_workload("minife"), system6, dram_limit=12 * GiB)
        combined = run_combined(get_workload("minife"), system6,
                                eco.site_placement)
        assert combined.speedup_vs(baseline) > 0.9 * eco.run.speedup_vs(baseline)

    def test_label(self, system6):
        eco = run_ecohmem(get_workload("minife"), system6, dram_limit=12 * GiB)
        combined = run_combined(get_workload("minife"), system6,
                                eco.site_placement)
        assert combined.config_label == "combined-proactive-reactive"


class TestWorkloadScaling:
    def test_rates_scaled(self, toy_workload):
        scaled = scale_workload(toy_workload, rate_scale=2.0)
        a = toy_workload.object_by_site("toy::hot").access["compute"]
        b = scaled.object_by_site("toy::hot").access["compute"]
        assert b.load_rate == 2 * a.load_rate
        assert b.store_rate == 2 * a.store_rate

    def test_sizes_scaled(self, toy_workload):
        scaled = scale_workload(toy_workload, size_scale=1.5)
        assert scaled.object_by_site("toy::cold").size == int(
            toy_workload.object_by_site("toy::cold").size * 1.5
        )

    def test_sites_preserved(self, toy_workload):
        scaled = scale_workload(toy_workload, rate_scale=3.0, size_scale=2.0)
        assert [o.site for o in scaled.objects] == \
            [o.site for o in toy_workload.objects]

    def test_l1d_rate_scaled_when_present(self, toy_workload):
        from dataclasses import replace
        from repro.apps.workload import AccessStats
        first, *rest = toy_workload.objects
        stats = AccessStats(load_rate=1.0, store_rate=1.0, l1d_store_rate=8.0)
        variant = toy_workload.replace(
            objects=(replace(first, access={"compute": stats}), *rest))
        scaled = scale_workload(variant, rate_scale=2.0)
        assert scaled.objects[0].access["compute"].l1d_store_rate == 16.0

    def test_production_workload_roundtrip(self, system6, toy_workload):
        """Profile nominal, run scaled — matching still works (same sites)."""
        scaled = scale_workload(make_toy_workload(), rate_scale=1.5)
        eco = run_ecohmem(make_toy_workload(), system6, dram_limit=64 * MiB,
                          production_workload=scaled)
        assert eco.site_placement["toy::hot"] == "dram"
        assert eco.replay.flexmalloc.matcher.stats.matches > 0


from tests.conftest import make_toy_workload  # noqa: E402  (fixture helper)
