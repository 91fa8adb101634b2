"""Tests for the execution engine's timing model."""

import pytest

from repro.errors import SimulationError
from repro.apps.workload import AccessStats, ObjectSpec, Phase, Workload
from repro.memsim.subsystem import pmem2_system, pmem6_system
from repro.runtime.engine import ExecutionEngine
from repro.runtime.traffic import PlacementTraffic
from repro.units import MiB

from tests.conftest import make_site, make_toy_workload, with_serial_fraction


def run_with(workload, placement, system=None, **kwargs):
    system = system or pmem6_system()
    engine = ExecutionEngine(workload, system)
    return engine.run(PlacementTraffic(workload, placement), **kwargs)


ALL_DRAM = {"toy::hot": "dram", "toy::cold": "dram", "toy::temp": "dram"}
ALL_PMEM = {"toy::hot": "pmem", "toy::cold": "pmem", "toy::temp": "pmem"}


class TestBasicTiming:
    def test_runtime_at_least_compute(self, toy_workload):
        res = run_with(toy_workload, ALL_DRAM)
        assert res.total_time >= toy_workload.nominal_duration

    def test_pmem_slower_than_dram(self, toy_workload):
        dram = run_with(toy_workload, ALL_DRAM)
        pmem = run_with(toy_workload, ALL_PMEM)
        assert pmem.total_time > dram.total_time

    def test_hot_object_placement_dominates(self, toy_workload):
        good = run_with(toy_workload, {**ALL_PMEM, "toy::hot": "dram"})
        bad = run_with(toy_workload, {**ALL_DRAM, "toy::hot": "pmem"})
        assert good.total_time < bad.total_time

    def test_pmem2_slower_than_pmem6(self):
        wl = make_toy_workload(hot_rate=4e7)  # enough traffic to load pmem
        t6 = run_with(wl, ALL_PMEM, system=pmem6_system()).total_time
        t2 = run_with(wl, ALL_PMEM, system=pmem2_system()).total_time
        assert t2 > t6

    def test_more_traffic_more_time(self):
        light = make_toy_workload(hot_rate=1e6)
        heavy = make_toy_workload(hot_rate=1e8)
        assert (run_with(heavy, ALL_PMEM).total_time
                > run_with(light, ALL_PMEM).total_time)

    def test_higher_mlp_faster(self):
        slow = make_toy_workload().replace(mlp=2.0)
        fast = make_toy_workload().replace(mlp=12.0)
        assert (run_with(fast, ALL_PMEM).total_time
                < run_with(slow, ALL_PMEM).total_time)

    def test_serial_fraction_hurts(self):
        base = make_toy_workload()
        serial = with_serial_fraction(make_toy_workload(), 0.8)
        assert (run_with(serial, ALL_PMEM).total_time
                > run_with(base, ALL_PMEM).total_time)

    def test_interposer_overhead_added(self, toy_workload):
        res = run_with(toy_workload, ALL_DRAM, interposer_overhead_s=1.5)
        base = run_with(toy_workload, ALL_DRAM)
        assert res.total_time == pytest.approx(base.total_time + 1.5)


class TestBandwidthSaturation:
    def test_duration_floor_at_device_peak(self):
        """Traffic beyond the device peak stretches the run to match."""
        system = pmem2_system()
        pmem = system.get("pmem")
        # a workload pushing ~5x the PMem-2 read peak
        rate = 5 * pmem.peak_read_bw / 64.0
        wl = make_toy_workload(ranks=1, hot_rate=rate, store_rate=0.0)
        res = run_with(wl, ALL_PMEM, system=system)
        total_bytes = res.subsystem_bytes()["pmem"]
        # effective bandwidth can never exceed the peak
        assert total_bytes / res.total_time <= pmem.peak_read_bw * 1.01

    def test_latency_stays_finite_under_overload(self):
        system = pmem2_system()
        rate = 10 * system.get("pmem").peak_read_bw / 64.0
        wl = make_toy_workload(ranks=1, hot_rate=rate)
        res = run_with(wl, ALL_PMEM, system=system)
        for p in res.phases:
            for lat in p.mean_latency_by_subsystem.values():
                assert lat < 10_000


class TestResultStructure:
    def test_phase_results_cover_run(self, toy_workload):
        res = run_with(toy_workload, ALL_DRAM)
        assert sum(p.actual_duration for p in res.phases) == pytest.approx(
            res.total_time, rel=1e-9
        )

    def test_per_object_stats(self, toy_workload):
        res = run_with(toy_workload, ALL_PMEM)
        hot = res.objects["toy::hot"]
        assert hot.subsystem == "pmem"
        assert hot.load_misses > 0
        assert hot.mean_load_latency_ns > 0
        assert hot.alloc_count == 1

    def test_temp_object_alloc_times(self, toy_workload):
        res = run_with(toy_workload, ALL_PMEM)
        temp = res.objects["toy::temp"]
        assert len(temp.alloc_times) == 4  # realized instances
        assert temp.alloc_times == sorted(temp.alloc_times)

    def test_timeline_bytes_match_phases(self, toy_workload):
        res = run_with(toy_workload, ALL_PMEM)
        assert res.timeline.total_bytes("pmem") == pytest.approx(
            res.subsystem_bytes()["pmem"], rel=0.01
        )

    def test_memory_bound_fraction_in_range(self, toy_workload):
        res = run_with(toy_workload, ALL_PMEM)
        assert 0.0 < res.memory_bound_fraction < 1.0

    def test_speedup_requires_same_workload(self, toy_workload):
        res = run_with(toy_workload, ALL_DRAM)
        other = make_toy_workload().replace(name="different")
        res2 = run_with(other, ALL_DRAM)
        with pytest.raises(SimulationError):
            res.speedup_vs(res2)

    def test_observations_normalized_to_observed_peak(self, toy_workload):
        res = run_with(toy_workload, ALL_PMEM)
        obs = res.observations()
        fracs = [o.pmem_frac_exec for o in obs.values()]
        assert max(fracs) <= 1.0 + 1e-9
        assert any(f > 0 for f in fracs)


class TestValidation:
    def test_missing_placement_rejected(self, toy_workload):
        with pytest.raises(SimulationError):
            PlacementTraffic(toy_workload, {"toy::hot": "dram"})


class TestInstanceOverride:
    def test_instance_level_placement(self, toy_workload):
        """Capacity-fallback overrides: one temp instance lands elsewhere."""
        model = PlacementTraffic(
            toy_workload, ALL_DRAM,
            instance_placement={("toy::temp", 0): "pmem"},
        )
        engine = ExecutionEngine(toy_workload, pmem6_system())
        res = engine.run(model)
        assert res.subsystem_bytes().get("pmem", 0.0) > 0
